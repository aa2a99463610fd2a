"""Command-line interface: output shape, exit codes, determinism."""

import ast
import copy
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import import_module
from io import StringIO
from pathlib import Path
from types import SimpleNamespace

import pytest

from mirrormap import golden, mirror, operators, relations, yukawa
from mirrormap.cli import main
from mirrormap.golden import GOLDEN_TABLES, golden_report
from mirrormap.mirror import mirror_data
from mirrormap.series import PowerSeries, series_to_record
from mirrormap.yukawa import yukawa_coupling


class Runner:
    """Runs the CLI in this process: ``exit_code`` is the code ``main``
    exits with, and ``output`` its stdout followed by its stderr."""

    @staticmethod
    def invoke(cli, args):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err), \
                pytest.raises(SystemExit) as stop:
            cli(args)
        return SimpleNamespace(exit_code=stop.value.code,
                               output=out.getvalue() + err.getvalue())


@pytest.fixture
def runner():
    return Runner()


class TestMirrorCommand:
    def test_emits_requested_series(self, runner):
        res = runner.invoke(main, ["mirror", "--s", "5", "--order", "8",
                                   "--emit", "z_of_q", "--format", "json"])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["s"] == 5 and data["series"] == "z_of_q"
        assert data["variable"] == "q" and data["valuation"] == 1
        assert data["coeffs"][:3] == ["1", "-770", "171525"]
        assert len(data["coeffs"]) == 7  # valuation 1 through q^7

    def test_small_s_is_usage_error(self, runner):
        res = runner.invoke(main, ["mirror", "--s", "2"])
        assert res.exit_code == 2

    def test_small_order_is_usage_error(self, runner):
        res = runner.invoke(main, ["mirror", "--order", "3"])
        assert res.exit_code == 2

    def test_out_writes_file(self, runner, tmp_path):
        target = tmp_path / "series.json"
        res = runner.invoke(main, ["mirror", "--s", "3", "--order", "8",
                                   "--format", "json", "--out", str(target)])
        assert res.exit_code == 0
        data = json.loads(target.read_text())
        assert data["coeffs"][0] == "1"

    @pytest.mark.parametrize("target", ["", "missing/x.json"],
                             ids=["directory", "missing-directory"])
    def test_unwritable_out_is_usage_error(self, runner, tmp_path, target):
        res = runner.invoke(main, ["yukawa", "--order", "8",
                                   "--out", str(tmp_path / target)])
        assert res.exit_code == 2
        assert "Error" in res.output and "Traceback" not in res.output


class TestYukawaCommands:
    def test_yukawa_series(self, runner):
        res = runner.invoke(main, ["yukawa", "--order", "8",
                                   "--format", "json"])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["coeffs"][0] == "5" and data["coeffs"][1] == "2875"

    def test_instantons(self, runner):
        res = runner.invoke(main, ["instantons", "--count", "3",
                                   "--format", "json"])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["n"] == ["2875", "609250", "317206375"]

    def test_instantons_ask_one_order_past_the_count(self, runner,
                                                     monkeypatch):
        # n_count reads K through q^count, so count + 1 terms suffice
        asked = []

        def recording(order):
            asked.append(order)
            return yukawa_coupling(order)

        monkeypatch.setattr(yukawa, "yukawa_coupling", recording)
        res = runner.invoke(main, ["instantons", "--count", "10"])
        assert res.exit_code == 0, res.output
        assert asked == [11]

    def test_eval_f0_17_digits(self, runner):
        res = runner.invoke(main, ["eval-f0", "--t", "-6.283185307179586",
                                   "--format", "json"])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert len(data["value"].replace("-", "").replace(".", "")) >= 16

    def test_prepotential_json(self, runner):
        res = runner.invoke(main, ["prepotential", "--order", "8",
                                   "--format", "json"])
        assert res.exit_code == 0
        t_powers = json.loads(res.output)["t_powers"]
        assert len(t_powers) == 4
        q_part = t_powers[0]
        assert q_part["valuation"] == 1 and q_part["order"] == 8
        assert q_part["coeffs"][:2] == ["2875", "4876875/8"]
        for k in (1, 2):
            assert t_powers[k]["coeffs"] == [] and t_powers[k]["order"] is None
        assert t_powers[3]["coeffs"] == ["5/6"]

    def test_eval_f0_rejects_positive_t(self, runner):
        for t in ("1.0", "-inf", "1e308", "-1e300"):
            res = runner.invoke(main, ["eval-f0", f"--t={t}"])
            assert res.exit_code == 2, t

    @pytest.mark.parametrize("t", ["-inf", "-nan", "-Infinity", "-INF"])
    def test_eval_f0_names_a_non_finite_t(self, runner, t):
        # a negative non-finite value is the option's value, as -1 is
        res = runner.invoke(main, ["eval-f0", "--t", t])
        assert res.exit_code == 2
        assert "--t must be a finite number" in res.output


class TestVerify:
    def test_verify_all_passes(self, runner):
        res = runner.invoke(main, ["verify", "all", "--order", "24",
                                   "--format", "json"])
        assert res.exit_code == 0, res.output
        data = json.loads(res.output)
        assert data["pass"] is True
        assert all(c["pass"] for c in data["checks"])
        assert [c["check"] for c in data["checks"]] == [
            "hodge s=3", "hodge s=4", "eq9 s=3", "eq9 s=4", "eq19", "eq16",
            "eq25", "pandharipande", "duality", "golden", "integrality"]

    @pytest.mark.parametrize("n", [8, 24, 40])
    def test_verify_all_builds_each_bundle_once(self, runner, monkeypatch, n):
        # every check through order N reads the s-bundle and K at N + 1,
        # as golden and integrality do
        built, coupled = [], []
        real = mirror.mirror_pipeline
        monkeypatch.setattr(mirror, "mirror_pipeline",
                            lambda s, order: built.append((s, order))
                            or real(s, order))
        real_k = yukawa.yukawa_from_definition
        monkeypatch.setattr(yukawa, "yukawa_from_definition",
                            lambda order: coupled.append(order)
                            or real_k(order))
        mirror_data.cache_clear()
        yukawa_coupling.cache_clear()
        res = runner.invoke(main, ["verify", "all", "--order", str(n)])
        assert res.exit_code == 0, res.output
        assert sorted(built) == [(3, n + 1), (4, n + 1), (5, n + 1)]
        assert coupled == [n + 1]

    def test_verify_all_runs_each_check_at_its_order(self, runner,
                                                     monkeypatch):
        received = []

        def recording(name, real):
            def check(*args):
                received.append((name, args[-1]))
                return real(*args)
            return check

        for module, name in ((mirror, "verify_hodge_identity"),
                             (relations, "verify_eq_schwarzian"),
                             (yukawa, "verify_yukawa_identity"),
                             (relations, "verify_eq_second"),
                             (relations, "verify_eq_fourth"),
                             (yukawa, "verify_pandharipande"),
                             (relations, "verify_duality")):
            monkeypatch.setattr(module, name,
                                recording(name, getattr(module, name)))
        res = runner.invoke(main, ["verify", "all", "--order", "40",
                                   "--format", "json"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["order"] == 40
        assert len({name for name, _ in received}) == 7
        assert all(order == 40 for _, order in received), received

    @pytest.mark.parametrize("args", [
        ["verify", "eq16", "--order", "16"],
        ["verify", "eq25", "--order", "16"],
        ["verify", "eq9", "--s", "3", "--order", "16"],
        ["verify", "eq19", "--order", "16"],
        ["verify", "hodge", "--s", "4", "--order", "16"],
        ["verify", "duality", "--order", "12"],
        ["verify", "pandharipande", "--order", "12"],
    ])
    def test_individual_checks_pass(self, runner, args):
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output

    def test_nonzero_residual_exits_1(self, runner, monkeypatch):
        # a residual check, and verify all through it, fail on a q^3 term
        monkeypatch.setattr(yukawa, "verify_yukawa_identity",
                            lambda order: PowerSeries.monomial("q", 3,
                                                               order=order))
        res = runner.invoke(main, ["verify", "eq19", "--format", "json"])
        assert res.exit_code == 1
        assert json.loads(res.output)["pass"] is False
        res = runner.invoke(main, ["verify", "all", "--order", "8",
                                   "--format", "json"])
        assert res.exit_code == 1
        data = json.loads(res.output)
        assert data["pass"] is False
        assert [c["check"] for c in data["checks"] if not c["pass"]] == \
            ["eq19"]

    def test_non_integral_coefficient_exits_1(self, runner, monkeypatch):
        real = yukawa.integrality_suite

        def failing(order):
            first, *rest = real(order)
            return [{**first, "pass": False, "first_failure": 1}, *rest]

        monkeypatch.setattr(yukawa, "integrality_suite", failing)
        res = runner.invoke(main, ["verify", "integrality", "--order", "8",
                                   "--format", "json"])
        assert res.exit_code == 1
        data = json.loads(res.output)
        assert data["pass"] is False
        assert [it["pass"] for it in data["items"]].count(False) == 1

    def test_integrality(self, runner):
        res = runner.invoke(main, ["verify", "integrality", "--order", "30",
                                   "--format", "json"])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["pass"] and len(data["items"]) == 10


class TestGolden:
    def test_passes(self, runner):
        res = runner.invoke(main, ["golden", "--format", "json"])
        assert res.exit_code == 0
        items = json.loads(res.output)["items"]
        assert all(it["status"] == "pass" for it in items)

    def test_reads_frobenius_components_from_the_bundle(self, monkeypatch):
        # one Frobenius basis per s, made by the mirror pipeline
        calls = []
        real = operators.frobenius_basis
        monkeypatch.setattr(operators, "frobenius_basis",
                            lambda s, order: calls.append(s) or real(s, order))
        mirror_data.cache_clear()
        yukawa_coupling.cache_clear()
        golden_report(24)
        assert calls == [3, 4, 5]

    def test_corrupted_table_fails(self, monkeypatch):
        tables = copy.deepcopy(GOLDEN_TABLES)
        tables["yukawa"]["K"]["coeffs"][2] += 1
        monkeypatch.setattr(golden, "GOLDEN_TABLES", tables)
        report = golden_report(24)
        bad = [it for it in report if it["status"] == "fail"]
        assert len(bad) == 1
        assert bad[0]["item"] == "yukawa.K"
        assert bad[0]["first_mismatch"] == 2

    def test_series_in_another_variable_fails(self, runner, monkeypatch):
        # z(q) relabelled to z keeps every coefficient, not its variable
        real = golden.mirror_data

        def relabelled(s, order):
            md = real(s, order)
            return md._replace(z_of_q=md.z_of_q.relabel("z")) if s == 5 \
                else md

        monkeypatch.setattr(golden, "mirror_data", relabelled)
        bad = [it for it in golden_report(24) if it["status"] == "fail"]
        assert bad == [{"item": "s5.z_of_q", "status": "fail",
                        "expected": "q", "computed": "z"}]
        res = runner.invoke(main, ["golden"])
        assert res.exit_code == 1


class TestWronskianCommand:
    def test_determinant_of_input(self, runner, tmp_path):
        path = tmp_path / "input.json"
        payload = {"series": [
            {"variable": "z", "valuation": 0, "order": 8,
             "coeffs": ["1", "0", "3", "1", "0", "0", "0", "0"]},
            {"variable": "z", "valuation": 1, "order": 8,
             "coeffs": ["1", "2", "0", "0", "0", "0", "0"]},
        ]}
        path.write_text(json.dumps(payload))
        res = runner.invoke(main, ["wronskian", "--input", str(path),
                                   "--format", "json"])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["coeffs"][0] == "1"  # W starts at f0 g' - f0' g = 1+...

    @pytest.mark.parametrize("second, coeffs", [
        (["2", "4"], []),                 # dependent: certified zero
        (["0", "1", "1"], ["1", "2", "2"]),
        ([2, 4], []),                     # JSON integers are exact too
    ])
    def test_exact_records(self, runner, tmp_path, second, coeffs):
        path = tmp_path / "exact.json"
        path.write_text(json.dumps([
            {"variable": "z", "valuation": 0, "order": None,
             "coeffs": ["1", "2"]},
            {"variable": "z", "valuation": 0, "order": None,
             "coeffs": second},
        ]))
        res = runner.invoke(main, ["wronskian", "--input", str(path),
                                   "--format", "json"])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["coeffs"] == coeffs and data["order"] is None

    @pytest.mark.parametrize("record", [
        pytest.param({"variable": "z", "order": 4, "coeffs": ["1"]},
                     id="no-valuation"),
        pytest.param({"variable": "z", "valuation": 0, "coeffs": ["1/0"]},
                     id="zero-denominator"),
        pytest.param({"variable": "z", "valuation": 0, "coeffs": ["1.5"]},
                     id="decimal-string"),
        pytest.param({"variable": "z", "valuation": 0, "coeffs": [1.5]},
                     id="float"),
        pytest.param({"variable": "z", "valuation": 0, "coeffs": [True]},
                     id="boolean"),
        pytest.param({"variable": "z", "valuation": "0", "coeffs": ["1"]},
                     id="string-valuation"),
        pytest.param({"variable": "z", "valuation": 0, "order": 4.0,
                      "coeffs": ["1"]}, id="float-order"),
        pytest.param({"variable": "z", "valuation": 3, "order": 2,
                      "coeffs": ["1"]}, id="order-below-valuation"),
        pytest.param({"variable": 1, "valuation": 0, "coeffs": ["1"]},
                     id="numeric-variable"),
        pytest.param({"variable": "z", "valuation": 0, "coeffs": "1"},
                     id="coeffs-not-a-list"),
        pytest.param({"variable": "q", "valuation": 0, "coeffs": ["1"]},
                     id="mixed-variables"),
        pytest.param({"variable": "z", "valuation": 0, "order": 2,
                      "coeffs": ["1", "2", "3"]}, id="coeffs-past-order"),
        pytest.param({"variable": "z", "valuation": 1 << 40, "order": None,
                      "coeffs": ["1"]}, id="valuation-past-exact-order"),
    ])
    def test_malformed_record_is_usage_error(self, runner, tmp_path, record):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([
            {"variable": "z", "valuation": 0, "order": None,
             "coeffs": ["1", "2"]},
            record,
        ]))
        res = runner.invoke(main, ["wronskian", "--input", str(path)])
        assert res.exit_code == 2
        assert "Error" in res.output and "Traceback" not in res.output

    def test_reads_one_mirror_record(self, runner, tmp_path):
        # W of one series is the series itself
        res = runner.invoke(main, ["mirror", "--s", "3", "--order", "24",
                                   "--format", "json"])
        assert res.exit_code == 0
        path = tmp_path / "mirror.json"
        path.write_text(res.output)
        res = runner.invoke(main, ["wronskian", "--input", str(path),
                                   "--format", "json"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["coeffs"] == \
            json.loads(path.read_text())["coeffs"]

    def test_deeply_nested_input_is_usage_error(self, runner, tmp_path):
        # the JSON decoder gives up with a RecursionError
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000 + "]" * 100000)
        res = runner.invoke(main, ["wronskian", "--input", str(path)])
        assert res.exit_code == 2
        assert f"Error: {path}: " in res.output

    def test_empty_input_is_usage_error(self, runner, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        res = runner.invoke(main, ["wronskian", "--input", str(path)])
        assert res.exit_code == 2

    def test_zero_without_dependence_is_indeterminate(self, runner, tmp_path,
                                                       monkeypatch):
        # 1 + 2z and 2 + 4z have a zero Wronskian; with no dependence
        # found, that zero is not certified
        path = tmp_path / "dependent.json"
        path.write_text(json.dumps([
            {"variable": "z", "valuation": 0, "order": None,
             "coeffs": [1, 2]},
            {"variable": "z", "valuation": 0, "order": None,
             "coeffs": [2, 4]},
        ]))
        # the package exports the function under the module's name
        monkeypatch.setattr(import_module("mirrormap.wronskian"),
                            "coefficient_dependence", lambda fs: [])
        res = runner.invoke(main, ["wronskian", "--input", str(path),
                                   "--format", "json"])
        assert res.exit_code == 1
        assert json.loads(res.output)["status"] == "indeterminate"


class TestSearchRelation:
    def test_p2_succeeds(self, runner):
        res = runner.invoke(main, ["search-relation", "--mode", "p2",
                                   "--weight-bound", "12", "--order", "40",
                                   "--format", "json"])
        assert res.exit_code == 0, res.output
        data = json.loads(res.output)
        assert data["found"] and data["quasi_weight"] == 12
        assert data["verified_fresh"] and data["verified_dual"]

    def test_p2_does_not_depend_on_the_seed(self, runner):
        # p2 is decided in the jet ring; the seed is only echoed
        assert self.outputs_without_seed(runner, "p2", 0) == 1

    def test_p1_does_not_depend_on_the_seed(self, runner):
        # p1 is decided at fixed rational points of the z-jet ring
        assert self.outputs_without_seed(runner, "p1", 1) == 1

    @staticmethod
    def outputs_without_seed(runner, mode, exit_code):
        """How many outputs seeds 0-4 give once the seed line is dropped."""
        outputs = set()
        for seed in range(5):
            res = runner.invoke(main, ["search-relation", "--mode", mode,
                                       "--seed", str(seed)])
            assert res.exit_code == exit_code, res.output
            lines = res.output.splitlines(keepends=True)
            assert f"seed: {seed}\n" in lines
            outputs.add("".join(line for line in lines
                                if not line.startswith("seed: ")))
        return len(outputs)

    def test_p1_low_bound_exits_nonzero(self, runner):
        res = runner.invoke(main, ["search-relation", "--mode", "p1",
                                   "--weight-bound", "5", "--order", "20",
                                   "--format", "json"])
        assert res.exit_code == 1
        assert json.loads(res.output)["found"] is False

    def test_short_dual_side_is_usage_error(self, runner, monkeypatch):
        # a mirror bundle known to fewer terms than the dual certificate's
        # order raises TruncationError, which the command reports
        real = relations.mirror_data
        monkeypatch.setattr(relations, "mirror_data",
                            lambda s, order: real(s, order // 2))
        res = runner.invoke(main, ["search-relation", "--mode", "p2"])
        assert res.exit_code == 2
        assert "only known to order" in res.output

    @pytest.mark.parametrize("bound", ["1", "0", "-3"])
    def test_weight_bound_below_two_is_usage_error(self, runner, bound):
        res = runner.invoke(main, ["search-relation",
                                   f"--weight-bound={bound}"])
        assert res.exit_code == 2
        assert "--weight-bound" in res.output

    def test_abbreviated_option_is_usage_error(self, runner):
        res = runner.invoke(main, ["search-relation", "--weight", "12"])
        assert res.exit_code == 2 and "Error" in res.output


class TestHelp:
    @pytest.mark.parametrize("args, names", [
        ([], ["mirror", "yukawa", "instantons", "prepotential", "eval-f0",
              "wronskian", "search-relation", "golden", "verify"]),
        (["verify"], ["hodge", "eq9", "eq19", "eq16", "eq25",
                      "pandharipande", "duality", "integrality", "all"]),
    ], ids=["top", "verify"])
    def test_lists_every_command(self, runner, args, names):
        res = runner.invoke(main, [*args, "--help"])
        assert res.exit_code == 0
        listed = re.findall(r"^ +(\S+)(?: {2,}|$)", res.output, re.M)
        assert set(names) <= set(listed), res.output


class TestTextFormat:
    def test_dict_of_lists(self, runner):
        res = runner.invoke(main, ["instantons", "--count", "2"])
        assert res.exit_code == 0
        assert res.output == ("n:\n  - 2875\n  - 609250\n"
                              "N:\n  - 2875\n  - 4876875/8\n")

    def test_list_of_dicts(self, runner):
        res = runner.invoke(main, ["verify", "integrality", "--order", "8"])
        assert res.exit_code == 0
        names = [f"s{s}.{n}" for s in (3, 4, 5)
                 for n in ("z_of_q", "q_of_z/z", "f0_tilde")] + ["K/5"]
        assert res.output == (
            "check: integrality\norder: 8\npass: True\nitems:\n"
            + "".join(f"    item: {n}\n    pass: True\n  -\n" for n in names))


class TestDeterminism:
    def test_byte_identical_reruns(self, runner):
        args = ["mirror", "--s", "5", "--order", "12", "--format", "json"]
        first = runner.invoke(main, args).output
        second = runner.invoke(main, args).output
        assert first == second

    def test_search_byte_identical(self, runner):
        args = ["search-relation", "--weight-bound", "12", "--order", "40",
                "--format", "json"]
        first, second = (runner.invoke(main, args) for _ in range(2))
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output


def _fresh(code, *args):
    """Run ``code`` in a new interpreter that imports mirrormap from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_LOADED = """
import sys
import mirrormap.cli
if sys.argv[1:]:
    try:
        mirrormap.cli.main(sys.argv[1:])
    except SystemExit as exc:
        if exc.code:
            raise
print(sorted(m for m in sys.modules
             if m == "json" or m.partition(".")[0] == "mirrormap"))
"""

_BASE = {"mirrormap", "mirrormap.cli"}
_MIRROR = _BASE | {"mirrormap.series", "mirrormap.operators",
                   "mirrormap.mirror"}


class TestImportBoundary:
    @pytest.mark.parametrize("args, loaded", [
        ((), _BASE),
        (("mirror", "--s", "3", "--order", "8"), _MIRROR),
        (("wronskian", "--input", "{input}"),
         _BASE | {"json", "mirrormap.series", "mirrormap.linalg",
                  "mirrormap.wronskian"}),
        (("verify", "hodge", "--s", "3"), _MIRROR),
    ], ids=["import", "mirror", "wronskian", "verify-hodge"])
    def test_command_loads_only_its_modules(self, tmp_path, args, loaded):
        path = tmp_path / "series.json"
        path.write_text(json.dumps([series_to_record(
            PowerSeries("q", k, [1, 2], 8)) for k in (0, 1)]))
        argv = [a.format(input=path) for a in args]
        last = _fresh(_LOADED, *argv).splitlines()[-1]
        assert set(ast.literal_eval(last)) == loaded

    @pytest.mark.parametrize("args", [
        ("mirror", "--s", "3", "--order", "8"),
        ("yukawa", "--order", "8"),
        ("verify", "hodge", "--s", "3"),
        ("verify", "eq16"),
        ("search-relation", "--mode", "p2"),
    ], ids=["mirror", "yukawa", "verify-hodge", "verify-eq16", "search-p2"])
    def test_records_load_no_dataclasses(self, args):
        # the result records are named tuples; dataclasses would load
        # inspect, ast, dis and tokenize on every such request
        out = _fresh(_LOADED + "print(sorted({'dataclasses', 'inspect'}"
                     " & set(sys.modules)))\n", *args)
        assert out.splitlines()[-1] == "[]"

    def test_no_third_party_parser(self):
        # the package has no runtime dependency: argparse parses the CLI
        out = _fresh(_LOADED + "print('click' in sys.modules)\n",
                     "yukawa", "--order", "8")
        assert out.splitlines()[-1] == "False"

    def test_wronskian_names_the_function(self):
        # mirrormap.relations imports the submodule mirrormap.wronskian
        # before anything asks the package for the name
        _fresh("""
import importlib
import types
import mirrormap.relations
import mirrormap
from mirrormap import PowerSeries, wronskian
assert mirrormap.wronskian is wronskian
assert isinstance(wronskian, types.FunctionType)
w = wronskian([PowerSeries("q", 0, [1, 2], 8), PowerSeries("q", 1, [1, 3], 8)])
assert w.power_part().coeffs == (1, 6, 6), w
module = importlib.import_module("mirrormap.wronskian")
assert isinstance(module, types.ModuleType) and module.wronskian is wronskian
try:
    mirrormap.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown name resolved")
assert set(mirrormap.__all__) <= set(dir(mirrormap))
""")
