"""Command-line front end: series emission, verification driver, golden
suite, and the relation search.  Exit codes: 0 success, 1 verification
failure, 2 usage error."""

from __future__ import annotations

import math
import sys
from importlib import import_module

import click

# Each command imports the library modules it runs inside its body, so a
# fresh process compiles only those; ``import mirrormap.cli`` loads none.


def _lib(module, name):
    """Library callable ``mirrormap.<module>.<name>``, looked up at call
    time, so a wrapper rebound on its defining module is the one called."""
    return getattr(import_module(f".{module}", __package__), name)


def _render_text(data, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(data, dict):
        for k in data:
            v = data[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, (dict, list)):
                lines.extend(_render_text(v, indent + 1))
                lines.append(pad + "-")
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{data}")
    return lines


def _emit(data, fmt, out):
    if fmt == "json":
        import json
        text = json.dumps(data, indent=2, sort_keys=True)
    else:
        text = "\n".join(_render_text(data))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _common(fn):
    fn = click.option("--format", "fmt", type=click.Choice(["json", "text"]),
                      default="text", show_default=True)(fn)
    fn = click.option("--out", type=click.Path(dir_okay=False),
                      default=None, help="Write the report to a file.")(fn)
    return fn


def _order(default, minimum=8):
    return click.option("--order", type=click.IntRange(min=minimum),
                        default=default, show_default=True)


@click.group()
def main():
    """Exact mirror-map and Yukawa-coupling computations."""


@main.command()
@click.option("--s", "s", type=click.IntRange(min=3), default=5,
              show_default=True)
@_order(64)
@click.option("--emit", type=click.Choice(["z_of_q", "q_of_z", "f0_tilde"]),
              default="z_of_q", show_default=True)
@_common
def mirror(s, order, emit, fmt, out):
    """Emit one series of the mirror-map bundle for the given s."""
    from .mirror import mirror_data
    from .series import series_to_record
    md = mirror_data(s, order)
    _emit({"s": s, "series": emit,
           **series_to_record(getattr(md, emit).truncate(order))}, fmt, out)


@main.command()
@_order(24)
@_common
def yukawa(order, fmt, out):
    """Emit the Yukawa coupling K(q)."""
    from .series import series_to_record
    from .yukawa import yukawa_coupling
    _emit(series_to_record(yukawa_coupling(order)), fmt, out)


@main.command()
@click.option("--count", type=click.IntRange(min=1), default=10,
              show_default=True)
@_common
def instantons(count, fmt, out):
    """Emit the instanton numbers n_1..n_count."""
    from .yukawa import instanton_numbers, yukawa_coupling
    table = instanton_numbers(yukawa_coupling(count + 1), count)
    _emit({"n": [str(x) for x in table.n],
           "N": [str(x) for x in table.N]}, fmt, out)


@main.command("prepotential")
@_order(16)
@_common
def prepotential_cmd(order, fmt, out):
    """Emit the prepotential as a polynomial in t with q-series parts."""
    from .series import series_to_record
    from .yukawa import prepotential
    F = prepotential(order)
    _emit({"t_powers": [series_to_record(F.part(k) / math.factorial(k))
                        for k in range(F.log_degree + 1)]}, fmt, out)


@main.command("eval-f0")
@click.option("--t", "t_value", type=float, required=True)
@_order(12)
@_common
def eval_f0(t_value, order, fmt, out):
    """Evaluate the cubic Eisenstein-style potential at a real t < 0."""
    if not math.isfinite(t_value):
        raise click.UsageError("--t must be a finite number")
    from .yukawa import evaluate_F0_at
    try:
        value = evaluate_F0_at(t_value, order)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _emit({"t": format(t_value, ".17g"),
           "value": format(value, ".17g")}, fmt, out)


@main.command("wronskian")
@click.option("--input", "path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="File with one series record or a list of them.")
@_common
def wronskian_cmd(path, fmt, out):
    """Wronskian determinant of the series in the input file."""
    import json

    from .series import series_from_record, series_to_record
    from .wronskian import IndeterminateWronskian, wronskian
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        records = payload
        if isinstance(payload, dict):
            # a "series" list is the wrapper; any other object is one
            # record, such as the one ``mirror --format json`` prints
            wrapped = payload.get("series")
            records = wrapped if isinstance(wrapped, list) else [payload]
        if not isinstance(records, list) or not records:
            raise ValueError("input contains no series")
        fs = [series_from_record(rec) for rec in records]
    except ValueError as exc:
        raise click.UsageError(f"{path}: {exc}")
    if len({f.var for f in fs}) > 1:
        raise click.UsageError(f"{path}: series in different variables")
    try:
        w = wronskian(fs)
    except IndeterminateWronskian as exc:
        _emit({"status": "indeterminate", "detail": str(exc)}, fmt, out)
        sys.exit(1)
    # wire records carry no logs, so w is a log-free LogSeries
    _emit(series_to_record(w.power_part()), fmt, out)


@main.command("search-relation")
@click.option("--mode", type=click.Choice(["p1", "p2"]), default="p2",
              show_default=True)
@click.option("--weight-bound", type=click.IntRange(min=2), default=12,
              show_default=True)
@_order(40, 16)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Echoed in the output; neither mode uses it.")
@_common
def search_relation(mode, weight_bound, order, seed, fmt, out):
    """Scan quasi-weight strata for an identically-vanishing relation.

    Both modes are decided exactly: p2 in Q[u', u'', ...], p1 in the
    z-jet ring over Q(z) at rational points z. --order sets only the order
    of the dual certificate, max(16, order // 2)."""
    from .relations import relation_search
    from .series import TruncationError
    try:
        result = relation_search(mode=mode, weight_bound=weight_bound,
                                 order=order, seed=seed)
    except TruncationError as exc:
        raise click.UsageError(str(exc))
    _emit(result.summary(), fmt, out)
    if not (result.found and result.verified_fresh and result.verified_dual):
        sys.exit(1)


@main.command()
@_order(24, 24)
@_common
def golden(order, fmt, out):
    """Compare computed series against the embedded golden tables."""
    from .golden import golden_report
    report = golden_report(order)
    _emit({"items": report}, fmt, out)
    if any(item["status"] == "fail" for item in report):
        sys.exit(1)


@main.group()
def verify():
    """Verification drivers; exit 1 on any nonzero residual."""


#: The residual checks, in the order ``verify all`` runs them: (name, help,
#: default --order, --s choices, residual call).  The calls import their
#: module and look the function up at call time.
RESIDUAL_CHECKS = (
    ("hodge", "Square-of-f0 identity for the modular cases.", 32, (3, 4),
     lambda order, s: [_lib("mirror", "verify_hodge_identity")(s, order)]),
    ("eq9", "Schwarzian equation for the modular cases.", 24, (3, 4),
     lambda order, s: [_lib("relations", "verify_eq_schwarzian")(s, order)]),
    ("eq19", "Defining identity of the Yukawa coupling.", 32, (),
     lambda order, s: [_lib("yukawa", "verify_yukawa_identity")(order)]),
    ("eq16", "Second-order coupled equation for z(q) and K(q).", 24, (),
     lambda order, s: [_lib("relations", "verify_eq_second")(order)]),
    ("eq25", "Fourth-order coupled equation for z(q) and K(q).", 24, (),
     lambda order, s: [_lib("relations", "verify_eq_fourth")(order)]),
    ("pandharipande", "d^2/dt^2 (1/K) d^2/dt^2 t_j = 0 for j = 0..3.", 20,
     (), lambda order, s: _lib("yukawa", "verify_pandharipande")(order)),
    ("duality", "A2 = B2 and A4 = B4 on the actual mirror-map data.", 20,
     (), lambda order, s: _lib("relations", "verify_duality")(order)),
)


def _vanish(residuals):
    return all(r.is_zero() for r in residuals)


def _residual_command(name, help_text, default_order, s_choices, residuals):
    def command(order, fmt, out, s=None):
        s = s and int(s)
        ok = _vanish(residuals(order, s))
        data = {"check": name, "order": order, "pass": ok}
        if s:
            data["s"] = s
        _emit(data, fmt, out)
        if not ok:
            sys.exit(1)

    command = _order(default_order)(_common(command))
    if s_choices:
        command = click.option("--s", "s", required=True, type=click.Choice(
            [str(v) for v in s_choices]))(command)
    verify.command(name, help=help_text)(command)


for _check in RESIDUAL_CHECKS:
    _residual_command(*_check)


@verify.command()
@_order(100)
@_common
def integrality(order, fmt, out):
    """Integer coefficients of the mirror maps and K/5."""
    from .yukawa import integrality_suite
    items = integrality_suite(order)
    ok = all(item["pass"] for item in items)
    _emit({"check": "integrality", "order": order, "pass": ok,
           "items": items}, fmt, out)
    if not ok:
        sys.exit(1)


@verify.command("all")
@_order(24)
@_common
def verify_all(order, fmt, out):
    """Run every verification plus the golden suite."""
    from .golden import golden_report
    from .yukawa import integrality_suite
    checks = []
    for name, _, _, s_choices, residuals in RESIDUAL_CHECKS:
        for s in s_choices or (None,):
            checks.append({"check": f"{name} s={s}" if s else name,
                           "pass": _vanish(residuals(order, s))})
    g_items = golden_report(order)
    checks.append({"check": "golden",
                   "pass": all(i["status"] != "fail" for i in g_items)})
    checks.append({"check": "integrality",
                   "pass": all(i["pass"] for i in integrality_suite(order))})
    ok = all(c["pass"] for c in checks)
    _emit({"check": "all", "order": order, "pass": ok, "checks": checks},
          fmt, out)
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
