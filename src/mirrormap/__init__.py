"""Exact-rational engine for hypergeometric mirror maps, Yukawa couplings,
and the nonlinear differential identities that couple them."""

from .series import (LogSeries, PowerSeries, Q, TruncationError,
                     VariableMismatch, rat, series_from_record,
                     series_to_record)
from .operators import (DeltaOperator, RationalFunction, eighth_operator,
                        fourth_order_normal_form, frobenius_basis,
                        g_functions, mirror_operator, pfq_series,
                        second_order_normal_form, symmetric_square_check)
from .mirror import (MirrorData, integrality_report, mirror_data,
                     mirror_pipeline, verify_hodge_identity)
from .yukawa import (InstantonTable, eisenstein_analog, evaluate_F0_at,
                     instanton_numbers, integrality_suite, lambert_expand,
                     prepotential, t_functions, verify_pandharipande,
                     verify_yukawa_identity, yukawa_coupling)
from .wronskian import (DiffPolynomial, IndeterminateWronskian, r_operator,
                        r_substitute, schwarzian, wronskian)
from .relations import (ABQuantities, RelationSearchResult, ab_quantities,
                        rational_q, rational_q_tilde, relation_search,
                        verify_duality, verify_eq_fourth,
                        verify_eq_schwarzian, verify_eq_second)
from .golden import GOLDEN_TABLES, golden_report

__version__ = "0.1.0"

__all__ = [
    "LogSeries", "PowerSeries", "Q", "TruncationError",
    "VariableMismatch", "rat", "series_from_record", "series_to_record",
    "DeltaOperator", "RationalFunction", "eighth_operator",
    "fourth_order_normal_form", "frobenius_basis", "g_functions",
    "mirror_operator", "pfq_series",
    "second_order_normal_form", "symmetric_square_check",
    "MirrorData", "integrality_report", "mirror_data", "mirror_pipeline",
    "verify_hodge_identity",
    "InstantonTable", "eisenstein_analog", "evaluate_F0_at",
    "instanton_numbers", "integrality_suite", "lambert_expand",
    "prepotential", "t_functions",
    "verify_pandharipande", "verify_yukawa_identity", "yukawa_coupling",
    "DiffPolynomial", "IndeterminateWronskian", "r_operator", "r_substitute",
    "schwarzian", "wronskian",
    "ABQuantities", "RelationSearchResult", "ab_quantities", "rational_q",
    "rational_q_tilde", "relation_search", "verify_duality",
    "verify_eq_fourth", "verify_eq_schwarzian", "verify_eq_second",
    "GOLDEN_TABLES", "golden_report",
]
