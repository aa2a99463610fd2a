"""Exact-rational engine for hypergeometric mirror maps, Yukawa couplings,
and the nonlinear differential identities that couple them.

A public name resolves on first access: ``mirrormap.golden_report`` imports
``mirrormap.golden`` then, and not before (PEP 562)."""

import sys
from importlib import import_module

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "series": ("LogSeries", "PowerSeries", "Q", "TruncationError",
               "VariableMismatch", "rat", "series_from_record",
               "series_to_record"),
    "operators": ("DeltaOperator", "RationalFunction", "eighth_operator",
                  "fourth_order_normal_form", "frobenius_basis",
                  "g_functions", "mirror_operator", "pfq_series",
                  "second_order_normal_form", "symmetric_square_check"),
    "mirror": ("MirrorData", "integrality_report", "mirror_data",
               "mirror_pipeline", "verify_hodge_identity"),
    "yukawa": ("InstantonTable", "eisenstein_analog", "evaluate_F0_at",
               "instanton_numbers", "integrality_suite", "lambert_expand",
               "prepotential", "t_functions", "verify_pandharipande",
               "verify_yukawa_identity", "yukawa_coupling"),
    "wronskian": ("DiffPolynomial", "IndeterminateWronskian", "r_operator",
                  "r_substitute", "schwarzian", "wronskian"),
    "relations": ("RelationSearchResult", "rational_q", "rational_q_tilde",
                  "relation_search", "verify_duality", "verify_eq_fourth",
                  "verify_eq_schwarzian", "verify_eq_second"),
    "golden": ("GOLDEN_TABLES", "golden_report"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(type(sys)):
    """The import system binds each loaded submodule on its package, but
    the public ``wronskian`` is the function, so that one binding is
    dropped; ``import_module("mirrormap.wronskian")`` is the module."""

    def __setattr__(self, name, value):
        if name != "wronskian" or not isinstance(value, type(sys)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
