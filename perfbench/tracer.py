"""In-memory span tracer for one ``mirrormap`` CLI request.

Run as ``python3 perfbench/tracer.py SUMMARY.json ARG...``: it imports
``mirrormap.cli``, wraps the library callables named in ``SPANS`` and
``METHODS`` from the outside (nothing under ``src/`` changes), runs the CLI
with ``ARG...`` exactly as the ``mirrormap`` console script would, and on
exit writes a per-request summary of the recorded spans to SUMMARY.json.

A span is ``[name, start, end, parent, outermost]``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``outermost`` is false when a span
of the same name is already open, so totals never count nested time twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

#: The library modules, one layer each.
LAYERS = ("series", "operators", "mirror", "yukawa", "wronskian",
          "relations", "linalg", "golden")

#: Module-level callables: (span name, module, attribute).  Several
#: functions may share one span name, which then stands for the group.
SPANS = (
    ("operators.frobenius_basis", "operators", "frobenius_basis"),
    ("operators.normal_form", "operators", "second_order_normal_form"),
    ("operators.normal_form", "operators", "fourth_order_normal_form"),
    ("mirror.mirror_data", "mirror", "mirror_data"),
    ("mirror.mirror_pipeline", "mirror", "mirror_pipeline"),
    ("yukawa.yukawa_coupling", "yukawa", "yukawa_coupling"),
    ("yukawa.yukawa_from_definition", "yukawa", "yukawa_from_definition"),
    ("yukawa.instanton_numbers", "yukawa", "instanton_numbers"),
    ("wronskian.schwarzian", "wronskian", "schwarzian"),
    ("wronskian.wronskian", "wronskian", "wronskian"),
    ("relations.relation_search", "relations", "relation_search"),
    ("relations.a_quantities", "relations", "a_quantities"),
    ("relations.b_quantities", "relations", "b_quantities"),
    ("relations.verify", "relations", "verify_duality"),
    ("relations.verify", "relations", "verify_eq_schwarzian"),
    ("relations.verify", "relations", "verify_eq_second"),
    ("relations.verify", "relations", "verify_eq_fourth"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("golden.golden_report", "golden", "golden_report"),
)

#: Methods: (span name, module, class, attributes sharing one function).
METHODS = (
    ("series.mul", "series", "PowerSeries", ("__mul__", "__rmul__")),
    ("series.add", "series", "PowerSeries", ("__add__", "__radd__")),
    ("series.inverse", "series", "PowerSeries", ("inverse",)),
    ("series.exp", "series", "PowerSeries", ("exp",)),
    ("series.compose", "series", "PowerSeries", ("compose",)),
    ("series.revert", "series", "PowerSeries", ("revert",)),
    ("wronskian.DiffPolynomial.evaluate", "wronskian", "DiffPolynomial",
     ("evaluate",)),
)


def _bits(series):
    """Largest numerator or denominator bit length in a series window."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in series.coeffs), default=0)


class Tracer:
    """Records spans and boundary counters in memory for one process."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []
        self._open = defaultdict(int)

    def wrap(self, name, fn, count=None):
        """Return ``fn`` recording a span per call; ``count(args, kwargs,
        result)`` then adds boundary counters."""
        spans, stack, open_, clock = (self.spans, self._stack, self._open,
                                      time.perf_counter)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    open_[name] == 0]
            stack.append(len(spans))
            spans.append(span)
            open_[name] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_[name] -= 1
                stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def count_mul(self, args, kwargs, result):
        """Coefficient pairs multiplied, from the operand windows, and the
        widest operand coefficient."""
        a, b = args
        ps = type(a)
        if not isinstance(result, ps):
            return
        c = self.counters
        if isinstance(b, ps):
            # The product window keeps exponents below result.order, so pair
            # (i, j) is formed only when i + j < length.
            length = max(min(result.order - a.val - b.val,
                             len(a.coeffs) + len(b.coeffs) - 1), 0)
            lb = len(b.coeffs)
            c["series.mul.coeff_products"] += sum(
                min(lb, length - i) for i in range(min(len(a.coeffs), length)))
            bits = max(_bits(a), _bits(b))
        else:
            c["series.mul.coeff_products"] += len(a.coeffs)
            bits = max(_bits(a), int(b).bit_length() if isinstance(b, int)
                       else max(b.numerator.bit_length(),
                                b.denominator.bit_length()))
        if bits > c["series.mul.max_bits"]:
            c["series.mul.max_bits"] = bits

    def count_nullspace(self, args, kwargs, result):
        rows = args[0]
        ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        self.counters["linalg.nullspace.cells"] += len(rows) * ncols
        self.counters["linalg.nullspace.useful"] += bool(result)


def _rebind(original, wrapper):
    """Point every ``mirrormap`` module attribute bound to ``original`` at
    ``wrapper``.

    ``from .x import y`` copies the binding into each importing module, so
    wrapping only the defining module would miss calls made elsewhere.
    """
    for name, module in list(sys.modules.items()):
        if name != "mirrormap" and not name.startswith("mirrormap."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer):
    """Wrap every callable in SPANS and METHODS."""
    # importlib, not attribute access: ``mirrormap.wronskian`` is the
    # re-exported function, not the submodule.
    modules = {m: importlib.import_module(f"mirrormap.{m}") for m in LAYERS}
    importlib.import_module("mirrormap.cli")
    counts = {"linalg.nullspace": tracer.count_nullspace}
    for span, module, attr in SPANS:
        original = getattr(modules[module], attr)
        wrapper = tracer.wrap(span, original, counts.get(span))
        _rebind(original, wrapper)
    for span, module, cls_name, attrs in METHODS:
        cls = getattr(modules[module], cls_name)
        original = getattr(cls, attrs[0])
        count = tracer.count_mul if span == "series.mul" else None
        wrapper = tracer.wrap(span, original, count)
        for attr in attrs:
            setattr(cls, attr, wrapper)


def summarize(spans, counters):
    """Additive per-request totals: ``<span>.calls``, ``<span>.total_s``
    (outermost spans only), ``<span>.self_s`` (minus child spans), the
    relation-search splits, ``library_s`` (root spans) and the counters."""
    child_s = [0.0] * len(spans)
    nonseries_child_s = [0.0] * len(spans)
    out = defaultdict(int)
    for name, start, end, parent, _ in spans:
        if parent < 0:
            continue
        child_s[parent] += end - start
        if spans[parent][0] == "relations.relation_search":
            if not name.startswith("series."):
                nonseries_child_s[parent] += end - start
            if name == "linalg.nullspace":
                out["relations.search.strata"] += 1
    for i, (name, start, end, parent, outermost) in enumerate(spans):
        dur = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += dur - child_s[i]
        if outermost:
            out[f"{name}.total_s"] += dur
        if parent < 0:
            out["library_s"] += dur
        if name == "relations.relation_search":
            out["relations.search.stack_s"] += dur - nonseries_child_s[i]
    out.update(counters)
    return dict(out)


def main(argv):
    summary_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    import mirrormap.cli
    install(tracer)
    try:
        mirrormap.cli.main(args=cli_args, prog_name="mirrormap")
    finally:
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump({"totals": summarize(tracer.spans, tracer.counters),
                       "spans": len(tracer.spans)}, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
