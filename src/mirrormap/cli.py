"""Command-line front end: series emission, verification driver, golden
suite, and the relation search.  Exit codes: 0 success, 1 verification
failure, 2 usage error."""

import math
import re
import sys
from argparse import ArgumentParser, ArgumentTypeError
from functools import partial
from importlib import import_module

# Each command imports the library modules it runs inside its body, so a
# fresh process compiles only those; ``import mirrormap.cli`` loads none.


class _Parser(ArgumentParser):
    """Usage errors print the usage line and ``Error: <message>`` to stderr
    and exit 2; no option is read from a prefix of its name."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        # -1e-3 is a value, as -1 and -0.5 are, and not an option name
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"Error: {message}\n")


def _lib(module, name):
    """Library callable ``mirrormap.<module>.<name>``, looked up at call
    time, so a wrapper rebound on its defining module is the one called."""
    return getattr(import_module(f".{module}", __package__), name)


def _render_text(data, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(data, dict):
        for k, v in data.items():
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
        try:
            fh = open(out, "w", encoding="utf-8")
        except OSError as exc:
            raise ArgumentTypeError(f"--out: {exc}")
        with fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def mirror(s, order, emit, fmt, out):
    """Emit one series of the mirror-map bundle for the given s."""
    from .mirror import mirror_data
    from .series import series_to_record
    md = mirror_data(s, order)
    _emit({"s": s, "series": emit,
           **series_to_record(getattr(md, emit).truncate(order))}, fmt, out)


def yukawa(order, fmt, out):
    """Emit the Yukawa coupling K(q)."""
    from .series import series_to_record
    from .yukawa import yukawa_coupling
    _emit(series_to_record(yukawa_coupling(order)), fmt, out)


def instantons(count, fmt, out):
    """Emit the instanton numbers n_1..n_count."""
    from .yukawa import instanton_numbers, yukawa_coupling
    table = instanton_numbers(yukawa_coupling(count + 1), count)
    _emit({"n": [str(x) for x in table.n],
           "N": [str(x) for x in table.N]}, fmt, out)


def prepotential_cmd(order, fmt, out):
    """Emit the prepotential as a polynomial in t with q-series parts."""
    from .series import series_to_record
    from .yukawa import prepotential
    F = prepotential(order)
    _emit({"t_powers": [series_to_record(F.part(k) / math.factorial(k))
                        for k in range(F.log_degree + 1)]}, fmt, out)


def eval_f0(t_value, order, fmt, out):
    """Evaluate the cubic Eisenstein-style potential at a real t < 0."""
    if not math.isfinite(t_value):
        raise ArgumentTypeError("--t must be a finite number")
    from .yukawa import evaluate_F0_at
    try:
        value = evaluate_F0_at(t_value, order)
    except ValueError as exc:
        raise ArgumentTypeError(str(exc))
    _emit({"t": format(t_value, ".17g"),
           "value": format(value, ".17g")}, fmt, out)


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
    except (OSError, ValueError) as exc:
        raise ArgumentTypeError(f"{path}: {exc}")
    if len({f.var for f in fs}) > 1:
        raise ArgumentTypeError(f"{path}: series in different variables")
    try:
        w = wronskian(fs)
    except IndeterminateWronskian as exc:
        _emit({"status": "indeterminate", "detail": str(exc)}, fmt, out)
        return 1
    # wire records carry no logs, so w is a log-free LogSeries
    _emit(series_to_record(w.power_part()), fmt, out)


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
        raise ArgumentTypeError(str(exc))
    _emit(result.summary(), fmt, out)
    return 0 if result.found and result.verified_fresh \
        and result.verified_dual else 1


def golden(order, fmt, out):
    """Compare computed series against the embedded golden tables."""
    from .golden import golden_report
    report = golden_report(order)
    _emit({"items": report}, fmt, out)
    return 1 if any(item["status"] == "fail" for item in report) else 0


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


def _residual(name, residuals, order, fmt, out, s=None):
    s = s and int(s)
    ok = all(r.is_zero() for r in residuals(order, s))
    data = {"check": name, "order": order, "pass": ok}
    if s:
        data["s"] = s
    _emit(data, fmt, out)
    return 0 if ok else 1


def integrality(order, fmt, out):
    """Integer coefficients of the mirror maps and K/5."""
    from .yukawa import integrality_suite
    items = integrality_suite(order)
    ok = all(item["pass"] for item in items)
    _emit({"check": "integrality", "order": order, "pass": ok,
           "items": items}, fmt, out)
    return 0 if ok else 1


def verify_all(order, fmt, out):
    """Run every verification plus the golden suite."""
    from .golden import golden_report
    from .yukawa import integrality_suite
    checks = []
    for name, _, _, s_choices, residuals in RESIDUAL_CHECKS:
        for s in s_choices or (None,):
            checks.append({"check": f"{name} s={s}" if s else name,
                           "pass": all(r.is_zero()
                                       for r in residuals(order, s))})
    g_items = golden_report(order)
    checks.append({"check": "golden",
                   "pass": all(i["status"] != "fail" for i in g_items)})
    checks.append({"check": "integrality",
                   "pass": all(i["pass"] for i in integrality_suite(order))})
    ok = all(c["pass"] for c in checks)
    _emit({"check": "all", "order": order, "pass": ok, "checks": checks},
          fmt, out)
    return 0 if ok else 1


def _at_least(minimum):
    """Option type: an int >= minimum; argparse names it "integer"."""
    def integer(text):
        if int(text) < minimum:
            raise ArgumentTypeError(f"{text} is not in the range x>={minimum}")
        return int(text)
    return integer


def _parser(prog):
    """The command tree; each command's parser names it and its function."""
    root = _Parser(prog=prog, description=main.__doc__)
    commands = root.add_subparsers(metavar="COMMAND", required=True)

    def command(group, run, name, order=None, minimum=8, doc=None):
        doc = doc or run.__doc__
        p = group.add_parser(name, help=doc.partition("\n\n")[0],
                             description=doc)
        p.set_defaults(run=run, parser=p)
        if order:
            p.add_argument("--order", type=_at_least(minimum), default=order)
        p.add_argument("--format", dest="fmt", choices=("json", "text"),
                       default="text")
        p.add_argument("--out", help="Write the report to a file.")
        return p

    p = command(commands, mirror, "mirror", 64)
    p.add_argument("--s", type=_at_least(3), default=5)
    p.add_argument("--emit", choices=("z_of_q", "q_of_z", "f0_tilde"),
                   default="z_of_q")
    command(commands, yukawa, "yukawa", 24)
    command(commands, instantons, "instantons").add_argument(
        "--count", type=_at_least(1), default=10)
    command(commands, prepotential_cmd, "prepotential", 16)
    command(commands, eval_f0, "eval-f0", 12).add_argument(
        "--t", dest="t_value", type=float, required=True)
    command(commands, wronskian_cmd, "wronskian").add_argument(
        "--input", dest="path", required=True,
        help="File with one series record or a list of them.")
    p = command(commands, search_relation, "search-relation", 40, 16)
    p.add_argument("--mode", choices=("p1", "p2"), default="p2")
    p.add_argument("--weight-bound", type=_at_least(2), default=12)
    p.add_argument("--seed", type=int, default=0,
                   help="Echoed in the output; neither mode uses it.")
    command(commands, golden, "golden", 24, 24)
    doc = "Verification drivers; exit 1 on any nonzero residual."
    verify = commands.add_parser("verify", help=doc, description=doc)
    checks = verify.add_subparsers(metavar="CHECK", required=True)
    for name, doc, order, s_choices, residuals in RESIDUAL_CHECKS:
        p = command(checks, partial(_residual, name, residuals), name, order,
                    doc=doc)
        if s_choices:
            p.add_argument("--s", required=True,
                           choices=[str(v) for v in s_choices])
    command(checks, integrality, "integrality", 100)
    command(checks, verify_all, "all", 24)
    return root


def main(args=None, prog_name="mirrormap"):
    """Exact mirror-map and Yukawa-coupling computations."""
    ns = vars(_parser(prog_name).parse_args(args))
    run, parser = ns.pop("run"), ns.pop("parser")
    try:
        sys.exit(run(**ns) or 0)
    except ArgumentTypeError as exc:  # a command's own input error
        parser.error(str(exc))


if __name__ == "__main__":
    main()
