"""Command-line surface: exit codes, formats, determinism, round trips."""

import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mmjones import cjones, cli, golden, knots, mmexpand, toruslines, verify
from mmjones.cli import (
    EXIT_GATE_FAILED,
    MAX_LINES_CEILING,
    MAX_ORDER_CEILING,
    TORUS_INDEX_CEILING,
    TORUS_WORK_CEILING,
    Z_TERMS_CEILING,
    build_parser,
    main,
)
from mmjones.mmexpand import OutOfRangeError
from mmjones.exactalg import LaurentPoly
from mmjones.reports import parse_frac, parse_linetable


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTorusCommand:
    def test_golden_first_line(self, capsys):
        code, out, _ = run_cli(capsys, "torus", "--p", "2", "--q", "7", "--lines", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["lines"][1]["numerator"] == ["0", "28", "126", "180", "110", "30", "3"]

    def test_symmetry(self, capsys):
        _, out_a, _ = run_cli(capsys, "torus", "--p", "3", "--q", "2", "--lines", "1")
        _, out_b, _ = run_cli(capsys, "torus", "--p", "2", "--q", "3", "--lines", "1")
        a, b = json.loads(out_a), json.loads(out_b)
        assert [l["numerator"] for l in a["lines"]] == [l["numerator"] for l in b["lines"]]

    def test_rejects_non_coprime(self, capsys):
        code, _, err = run_cli(capsys, "torus", "--p", "2", "--q", "4", "--lines", "1")
        assert code != 0
        assert "gcd" in err or "error" in err

    @pytest.mark.parametrize("flag", ["--lines", "--z-terms", "--max-lines"])
    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_rejects_bad_counts(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["torus", "--p", "2", "--q", "3", "--lines", "1", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag, low, high", [
        ("--p", -TORUS_INDEX_CEILING, TORUS_INDEX_CEILING),
        ("--q", -TORUS_INDEX_CEILING, TORUS_INDEX_CEILING),
        ("--z-terms", 0, Z_TERMS_CEILING),
        ("--max-lines", 0, MAX_LINES_CEILING),
    ])
    def test_ceilings_in_parser(self, capsys, flag, low, high):
        # parsed only: no value at or beyond a ceiling is ever run here
        def argv(value):
            args = {"--p": "2", "--q": "3", "--lines": "1", flag: str(value)}
            return ["torus", *(x for item in args.items() for x in item)]

        for value in (low, high):
            parsed = build_parser().parse_args(argv(value))
            assert getattr(parsed, flag[2:].replace("-", "_")) == value
        for value in (low - 1, high + 1):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv(value))
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert flag in err and str(value) in err

    def test_joint_ceiling(self, capsys, monkeypatch):
        # checked before the job runs, and no job runs here
        spec = importlib.util.spec_from_file_location(
            "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        ran = []
        monkeypatch.setattr(cli, "cmd_torus",
                            lambda args: ran.append((args.p, args.q, args.lines)))

        def argv(p, q, lines):
            return ["torus", "--p", str(p), "--q", str(q), "--lines", str(lines),
                    "--max-lines", str(MAX_LINES_CEILING)]

        assert 10 ** 2 * (11 - 1) * (13 - 1) == TORUS_WORK_CEILING
        accepted = [(11, 13, 10), (-13, 11, 10),
                    (3, 5, MAX_LINES_CEILING), (2, 3, MAX_LINES_CEILING)]
        accepted += [(p, q, max(rows)) for (p, q), rows in golden.TORUS_NUMERATORS.items()]
        accepted += [(p, q, lines) for (p, q), lines in inputs.TORUS]
        accepted += [(q, p, lines) for (p, q), lines in inputs.TORUS]
        for request in accepted:
            main(argv(*request))
        assert ran == accepted
        for request in [(11, 13, 11), (-11, -13, 11), (9, 10, 32), (15, 16, 32), (16, 15, 8)]:
            with pytest.raises(SystemExit) as exc:
                main(argv(*request))
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "--p" in err and "--q" in err and "--lines" in err and "joint ceiling" in err
        assert len(ran) == len(accepted)

    def test_gate_failure_exit_status(self, capsys, monkeypatch):
        # one ladder step gains an even power, which fails the parity gate
        original = toruslines.apply_D

        def corrupted(num, k, nabla):
            rung = original(num, k, nabla)
            return rung + LaurentPoly.one("z") if k == 3 else rung

        monkeypatch.setattr(toruslines, "apply_D", corrupted)
        code, out, err = run_cli(capsys, "torus", "--p", "2", "--q", "5", "--lines", "3")
        assert code == EXIT_GATE_FAILED == 3 and out == ""
        assert err.startswith("error: gate LineConsistencyError failed:")
        assert "parity" in err and "Traceback" not in err
        assert len(err.splitlines()) == 1


class TestExpandCommand:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--knot", "5_2", "--order", "3")
        assert code == 0
        doc = json.loads(out)
        lines = {row["n"]: row["values"] for row in doc["lines"]["lines"]}
        assert lines[1] == ["0", "-6", "31"]
        assert doc["bottom_line"]["passed"] is True
        parsed = parse_linetable(doc["lines"])
        assert parsed.entry(2, 2) == 226

    def test_out_of_range_is_an_input_error(self, capsys, monkeypatch):
        def beyond(d):
            raise OutOfRangeError(f"line {2 * d.N + 1} outside budget 2N = {2 * d.N}")

        monkeypatch.setattr(mmexpand, "to_z_lines", beyond)
        code, out, err = run_cli(capsys, "expand", "--knot", "3_1", "--order", "2")
        assert code == 1 and out == ""
        assert err == "error: line 5 outside budget 2N = 4\n"

    def test_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "expand", "--knot", "4_1", "--order", "2")
        _, out2, _ = run_cli(capsys, "expand", "--knot", "4_1", "--order", "2")
        assert out1 == out2

    def test_tsv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--knot", "4_1", "--order", "2",
            "--parameter", "ht", "--format", "tsv",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "n\tm\tvalue"
        values = {(int(n), int(m)): parse_frac(v) for n, m, v in (r.split("\t") for r in rows[1:])}
        assert values[(2, 1)] == -5

    def test_order_ceiling(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "expand", "--knot", "5_2", "--order", "7")
        code, out, _ = run_cli(
            capsys, "expand", "--knot", "unknot", "--order", "7", "--max-order", "8"
        )
        assert code == 0

    def test_max_order_ceiling_in_parser(self, capsys):
        # parsed only: no order at or beyond the ceiling is ever run here
        def argv(value):
            return ["expand", "--knot", "3_1", "--order", "2", "--max-order", str(value)]

        for value in (1, MAX_ORDER_CEILING):
            assert build_parser().parse_args(argv(value)).max_order == value
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv(MAX_ORDER_CEILING + 1))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--max-order" in err and str(MAX_ORDER_CEILING + 1) in err

    def test_unknown_knot(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--knot", "9_99", "--order", "2")
        assert code == 1
        assert "9_99" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "expand", "--knot", "unknot", "--order", "2", "--out", str(target)
        )
        assert code == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["knot"] == "unknot"

    def test_external_catalog(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "cat.json"
        path.write_text(
            json.dumps(
                [{"name": "trefoil", "strands": 2, "braid": [1, 1, 1], "conway": [1, 1]}]
            )
        )
        code, out, _ = run_cli(
            capsys, "expand", "--knot", "trefoil", "--order", "2", "--catalog", str(path)
        )
        assert code == 0
        monkeypatch.setenv("MMJONES_CATALOG", str(path))
        code, out, _ = run_cli(capsys, "expand", "--knot", "trefoil", "--order", "2")
        assert code == 0


    def test_missing_catalog_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, _, err = run_cli(
            capsys, "expand", "--knot", "3_1", "--order", "2", "--catalog", str(missing)
        )
        assert code == 1
        assert err.startswith("error:") and "missing.json" in err

    def test_out_dir_missing(self, capsys, tmp_path):
        target = tmp_path / "nodir" / "x.json"
        code, out, err = run_cli(
            capsys, "expand", "--knot", "unknot", "--order", "2", "--out", str(target)
        )
        assert code == 1 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", [
        ["expand", "--knot", "3_1", "--order", "2"],
        ["verify", "--suite", "torus"],
    ])
    @pytest.mark.parametrize("jobs", ["0", "-2", "x"])
    def test_rejects_bad_jobs(self, capsys, command, jobs):
        # there is no process pool: every --jobs is a usage error
        with pytest.raises(SystemExit) as exc:
            main(command + ["--jobs", jobs])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--order", "--max-order"])
    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_rejects_bad_order(self, capsys, flag, value):
        argv = ["expand", "--knot", "3_1", "--order", "2", flag, value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("lines", ["-1", "x"])
    def test_rejects_bad_lines(self, capsys, lines):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--knot", "3_1", "--order", "2", "--lines", lines])
        assert exc.value.code == 2
        assert "--lines" in capsys.readouterr().err

    def test_lines_zero_keeps_line_zero(self, capsys):
        assert main(["expand", "--knot", "3_1", "--order", "2", "--lines", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [a["n"] for a in doc["approx"]] == [0]

    TWO_N_PLUS_ONE = [(0, 1), (1, 3), (2, 5), (3, 7), (4, 9)]
    THREE_HALF_N_PLUS_ONE = [(0, 1), (2, 4), (4, 7)]

    @pytest.mark.parametrize("parameter, mode, pairs", [
        ("h", "auto", TWO_N_PLUS_ONE),
        ("ht", "auto", THREE_HALF_N_PLUS_ONE),
        ("h", "2n+1", TWO_N_PLUS_ONE),
        ("ht", "2n+1", TWO_N_PLUS_ONE),
        ("h", "3n+1", THREE_HALF_N_PLUS_ONE),
        ("ht", "3n+1", THREE_HALF_N_PLUS_ONE),
    ])
    def test_exponent_mode(self, capsys, parameter, mode, pairs):
        assert main(["expand", "--knot", "4_1", "--order", "2", "--parameter", parameter,
                     "--exponent-mode", mode]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [(a["n"], a["exponent"]) for a in doc["approx"]] == pairs

    def test_gate_failure_exit_status(self, capsys, monkeypatch):
        # one corrupted factored entry of the minus table, its weight raised
        # by 2 or its sign flipped, fails the inverse gate
        original = cjones._braiding_table
        for how in ("weight", "sign"):
            def corrupted(alpha, sign, how=how):
                table = original(alpha, sign)
                if sign < 0:
                    (k, l, w, s, b, sgn), = table[(0, 0)]
                    table[(0, 0)] = [(k, l, w + 2, s, b, sgn) if how == "weight"
                                     else (k, l, w, s, b, -sgn)]
                return table

            monkeypatch.setattr(cjones, "_braiding_table", corrupted)
            code, out, err = run_cli(capsys, "expand", "--knot", "3_1", "--order", "2")
            assert code == EXIT_GATE_FAILED == 3 and out == ""
            assert err.startswith("error: gate ConventionViolationError failed: 3_1: ")
            assert "not inverse" in err and "Traceback" not in err
            assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_post_solve_gate_names_the_knot(self, capsys, monkeypatch, fmt):
        # a z^2 term in s = 2 arcsinh(z/2) puts odd z-powers into the
        # bi-series, which fails the odd-z gate after the solve
        original = mmexpand.series_two_arcsinh_half

        def even_term(cap):
            s = original(cap)
            return (*s[:2], s[2] + 1, *s[3:])

        monkeypatch.setattr(mmexpand, "series_two_arcsinh_half", even_term)
        code, out, err = run_cli(capsys, "expand", "--knot", "3_1", "--order", "2",
                                 "--format", fmt)
        assert code == EXIT_GATE_FAILED and out == ""
        assert err.startswith("error: gate ModelViolationError failed: 3_1: odd z-powers")
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_bottom_line_gate_fails_closed(self, capsys, monkeypatch, tmp_path, fmt):
        # a Conway polynomial with an extra z^4 is not the bottom line's inverse;
        # the catalog record states no Conway polynomial, so it loads
        original = knots.conway_poly

        def with_z4(b):
            return original(b) + LaurentPoly.monomial("z", 4)

        monkeypatch.setattr(knots, "conway_poly", with_z4)
        path = tmp_path / "cat.json"
        path.write_text(json.dumps([{"name": "3_1", "strands": 2, "braid": [1, 1, 1]}]))
        code, out, err = run_cli(capsys, "expand", "--knot", "3_1", "--order", "2",
                                 "--catalog", str(path), "--format", fmt)
        assert code == EXIT_GATE_FAILED and out == ""
        assert err.startswith("error: gate ModelViolationError failed: 3_1: the bottom line ")
        assert "[4] (line route)" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_amphicheiral_ht_gate_fails_closed(self, capsys, tmp_path, fmt):
        # 5_2 is chiral, so its odd ht lines do not vanish; a record that calls
        # it amphicheiral fails the ht gate and passes with --parameter h
        path = tmp_path / "cat.json"
        path.write_text(json.dumps([{"name": "5_2", "strands": 3, "braid": [-1, -1, -1, -2, 1, -2],
                                     "amphicheiral": True, "conway": [1, 2]}]))
        argv = ("expand", "--knot", "5_2", "--order", "3", "--catalog", str(path), "--format", fmt)
        code, out, err = run_cli(capsys, *argv, "--parameter", "ht")
        assert code == EXIT_GATE_FAILED and out == ""
        assert err.startswith("error: gate ModelViolationError failed: 5_2: ")
        assert "ht line 1 is not zero" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        code, out, err = run_cli(capsys, *argv, "--parameter", "h")
        assert code == 0 and out and err == ""


class TestVerifyCommand:
    def test_torus_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "torus")
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_cross_suite_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "cross", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert all(c["passed"] for c in doc["checks"])

    def test_failure_exit_status(self, capsys, tmp_path):
        # a catalog whose 5_2 is the mirror image fails the golden tables
        bad = [
            {"name": "unknot", "strands": 1, "braid": [], "amphicheiral": True},
            {"name": "3_1", "strands": 2, "braid": [1, 1, 1]},
            {"name": "4_1", "strands": 3, "braid": [1, -2, 1, -2], "amphicheiral": True},
            {"name": "5_2", "strands": 3, "braid": [1, 1, 1, 2, -1, 2]},
            {"name": "6_1", "strands": 4, "braid": [-1, -1, -2, 1, 3, -2, 3]},
            {"name": "8_3", "strands": 5, "braid": [1, 1, 2, -1, -3, 2, -3, -4, 3, -4], "amphicheiral": True},
        ]
        path = tmp_path / "mirror.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "tables", "--catalog", str(path)
        )
        assert code == 1
        assert "FAIL" in out

    def test_detail_is_built_only_for_a_failure(self, monkeypatch):
        def no_repr(poly):
            raise AssertionError("detail formatted for a passing check")

        monkeypatch.setattr(LaurentPoly, "__repr__", no_repr)
        assert all(c.passed and not c.detail for c in verify.run_suite("torus"))
        assert verify._check("x", False, lambda: "why") == verify.CheckResult("x", False, "why")

    def test_head_comparison_is_exact(self):
        # -11/2 truncates to the golden -5, and must still fail
        assert not verify._head_matches([0, -6, Fraction(-11, 2)], [0, -6, -5])
        assert verify._head_matches([0, -6, Fraction(-5)], [0, -6, -5])
        # a head runs to the degree bound: trailing zeros pass, a nonzero tail fails
        assert verify._head_matches([-1, -1, 0, 0], [-1, -1])
        assert not verify._head_matches([-1, -1, 0, 1], [-1, -1])
        assert not verify._head_matches([-1], [-1, -1])


class TestCatalogCommand:
    def test_default_catalog(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        doc = json.loads(out)
        names = [e["name"] for e in doc["entries"]]
        assert "8_3" in names and "unknot" in names

    def test_invalid_catalog(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"name": "hopf", "strands": 2, "braid": [1, 1]}]))
        code, _, err = run_cli(capsys, "catalog", "--path", str(path))
        assert code == 1
        assert "components" in err

    @pytest.mark.parametrize("record, message", [
        ({"name": "wide", "strands": knots.STRANDS_CEILING + 1,
          "braid": list(range(1, knots.STRANDS_CEILING + 1))},
         f"wide: {knots.STRANDS_CEILING + 1} strands exceed the ceiling of {knots.STRANDS_CEILING} strands"),
        ({"name": "long", "strands": 2, "braid": [1] * (knots.LETTERS_CEILING + 1)},
         f"long: {knots.LETTERS_CEILING + 1} letters exceed the ceiling of {knots.LETTERS_CEILING} letters"),
    ], ids=["strands", "letters"])
    def test_record_over_a_ceiling(self, capsys, tmp_path, record, message):
        path = tmp_path / "big.json"
        path.write_text(json.dumps([record]))
        code, out, err = run_cli(capsys, "catalog", "--path", str(path))
        assert (code, out, err) == (1, "", f"catalog invalid: {message}\n")

    @pytest.mark.parametrize("argv, prefix", [
        (["catalog", "--path"], "catalog invalid"),
        (["expand", "--knot", "u0", "--order", "1", "--catalog"], "error"),
    ], ids=["catalog", "expand"])
    def test_catalog_over_the_records_ceiling(self, capsys, tmp_path, argv, prefix):
        path = tmp_path / "many.json"
        path.write_text(json.dumps([{"name": f"u{i}", "strands": 1, "braid": []}
                                    for i in range(knots.RECORDS_CEILING + 1)]))
        code, out, err = run_cli(capsys, *argv, str(path))
        message = (f"{knots.RECORDS_CEILING + 1} records exceed the ceiling of "
                   f"{knots.RECORDS_CEILING} records")
        assert (code, out, err) == (1, "", f"{prefix}: {message}\n")

    def test_bracketed_path(self, capsys, tmp_path):
        folder = tmp_path / "a[1]"
        folder.mkdir()
        path = folder / "c.json"
        path.write_text(json.dumps([{"name": "3_1", "strands": 2, "braid": [1, 1, 1]}]))
        code, out, _ = run_cli(capsys, "catalog", "--path", str(path))
        assert code == 0
        assert [e["name"] for e in json.loads(out)["entries"]] == ["3_1"]


ROOT = Path(__file__).resolve().parents[1]
PIPELINE = {"mmjones.cjones", "mmjones.mmexpand", "mmjones.verify"}


@pytest.mark.parametrize("argv, loaded", [
    (["torus", "--p", "2", "--q", "3", "--lines", "2"], set()),
    (["catalog"], set()),
    (["expand", "--knot", "3_1", "--order", "2"], {"mmjones.cjones", "mmjones.mmexpand"}),
    (["verify", "--suite", "torus"], PIPELINE),
], ids=["torus", "catalog", "expand", "verify"])
def test_subcommands_import_what_they_run(argv, loaded):
    # a fresh interpreter, so that no other test's imports count
    script = (
        "import contextlib, io, sys\n"
        "from mmjones import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('mmjones.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, check=True)
    code, *modules = done.stdout.split()
    assert code == "0"
    assert PIPELINE & set(modules) == loaded


def test_no_module_imports_dataclasses_or_inspect():
    # both weigh on every job's start-up and peak memory
    script = (
        "import sys\n"
        "from mmjones import cli, mmexpand, toruslines, verify\n"
        "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


def test_gate_errors_share_one_base():
    from mmjones.cjones import ConventionViolationError
    from mmjones.exactalg import ExactAlgError, GateError
    from mmjones.mmexpand import ModelViolationError
    from mmjones.toruslines import LineConsistencyError

    for error in (ConventionViolationError, ExactAlgError, ModelViolationError,
                  LineConsistencyError):
        assert issubclass(error, GateError)
    assert issubclass(OutOfRangeError, ValueError) and not issubclass(OutOfRangeError, GateError)
