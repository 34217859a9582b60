"""Command-line behaviour: schemas, determinism, exit codes."""

import argparse
import contextlib
import errno
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import random
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import frackin
from frackin import cli

CLI = [sys.executable, "-m", "frackin.cli"]


def _python_names():
    """A pattern that finds, in a message, a function or method defined in
    frackin: a name with an underscore as a whole word, or any name, such
    as `gamma` or `residual`, that reads as a word otherwise, when it is
    called."""
    names = set()
    for info in pkgutil.iter_modules(frackin.__path__):
        module = importlib.import_module(f"frackin.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                names.add(name)
            elif inspect.isclass(obj):
                names.update(n for n, m in vars(obj).items()
                             if not n.startswith("__") and (inspect.isfunction(m)
                             or isinstance(m, (classmethod, staticmethod, property))))
    snake = sorted(n for n in names if "_" in n)
    words = sorted(n for n in names if "_" not in n)
    return re.compile(rf"\b(?:{'|'.join(snake)})\b|\b(?:{'|'.join(words)})\(")


PYTHON_NAME = _python_names()


def run_cli(*args, **kwargs):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          **kwargs)


def run_in_process(*args):
    """`frackin.cli.main` in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestEvalCommands:
    def test_mlf_exponential_row(self):
        out = run_cli("eval-mlf", "--alpha", "1", "--beta", "1",
                      "--z", "1.5")
        assert out.returncode == 0
        header, row = out.stdout.strip().splitlines()
        assert header == "z,value"
        z, value = row.split(",")
        assert z == "1.5"
        assert float(value) == pytest.approx(math.exp(1.5), rel=1e-14)
        # shortest round-trip float text
        assert value == repr(float(value))

    def test_mlf_multiple_points(self):
        out = run_cli("eval-mlf", "--alpha", "2", "--beta", "1",
                      "--z", "0.0", "1.0", "4.0")
        rows = out.stdout.strip().splitlines()[1:]
        assert len(rows) == 3
        assert float(rows[0].split(",")[1]) == pytest.approx(1.0)

    def test_struve_classical(self):
        out = run_cli("eval-struve", "--l", "0.5", "--z", "1.0")
        assert out.returncode == 0
        value = float(out.stdout.strip().splitlines()[1].split(",")[1])
        assert value == pytest.approx(0.36678569278448927, rel=1e-13)

    def test_struve_order_past_gamma_overflow(self):
        # every 1/Gamma of the series underflows from its first term on
        code, out, _ = run_in_process("eval-struve", "--l", "172", "--z", "30",
                                      "--format", "json")
        assert code == 0
        value = json.loads(out)["rows"][0][1]
        assert value == pytest.approx(5.3285399965075212e-110, rel=1e-10, abs=0.0)

    def test_struve_json_structure(self):
        out = run_cli("eval-struve", "--l", "1", "--z", "0.5", "2.5",
                      "--format", "json")
        doc = json.loads(out.stdout)
        assert set(doc) == {"meta", "rows", "summary"}
        assert doc["meta"]["columns"] == ["z", "value"]
        assert len(doc["rows"]) == 2
        assert doc["summary"]["n"] == 2


class TestSolveCommand:
    def test_table_matches_library(self):
        out = run_cli("solve", "--theorem", "1", "--lambda", "1",
                      "--alpha-p", "1", "--mu", "1.5", "--l", "1",
                      "--d", "1", "--v", "0.75", "--n0", "1",
                      "--mode", "corrected", "--tmin", "0.01", "--tmax", "2",
                      "--n", "200")
        assert out.returncode == 0
        lines = out.stdout.strip().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 201

        import numpy as np
        from frackin import (Grid, KineticProblem, SeriesSpec, SolutionMode,
                             build_solution, eval_solution_grid)
        grid = Grid.uniform(0.01, 2.0, 200)
        p = KineticProblem.plain_time(SeriesSpec(1, 1, 1.5, 1), v=0.75,
                                      d=1.0)
        sol = build_solution(p, SolutionMode.CORRECTED, t_max=2.0)
        want = eval_solution_grid(sol, grid.array)
        got = np.array([float(r.split(",")[1]) for r in lines[1:]])
        # bit-exact agreement with direct library calls
        assert np.array_equal(got, want)

    def test_homogeneous_table(self):
        out = run_cli("solve", "--theorem", "1", "--l", "1", "--v", "0.75",
                      "--n0", "0", "--n", "5", "--format", "json")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert [row[1] for row in doc["rows"]] == [0.0] * 5
        assert doc["summary"]["truncation_k"] == 1

    def test_family3_requires_relax(self):
        out = run_cli("solve", "--theorem", "3", "--l", "1", "--v", "0.75")
        assert out.returncode == 3
        assert "relax" in out.stderr

    def test_log_spacing(self):
        out = run_cli("solve", "--theorem", "2", "--l", "1", "--v", "0.5",
                      "--spacing", "log", "--tmin", "0.001", "--n", "20")
        ts = [float(r.split(",")[0])
              for r in out.stdout.strip().splitlines()[1:]]
        assert ts[0] == pytest.approx(0.001)
        ratios = [b / a for a, b in zip(ts, ts[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)


class TestTailRule:
    """Commands whose built truncation used to fail evaluation's tail rule."""

    def test_powered_solve_at_large_argument(self):
        # the tail is certified now; what stops the table is the float64
        # sum, whose terms reach 5e11 against values below 1 by t = 5
        out = run_cli("solve", "--theorem", "2", "--l", "1", "--d", "2",
                      "--v", "1.5", "--tmax", "5", "--n", "200")
        assert out.returncode == 3
        assert "cancel" in out.stderr
        assert "tail" not in out.stderr

    def test_powered_verify_default_grid(self):
        out = run_cli("verify", "--theorem", "2", "--l", "1", "--v", "1.3",
                      "--n", "2048", "--format", "json")
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["summary"]["adjudication"] == \
            "corrected_passes"


class TestVerifyCommand:
    def test_csv_schema_and_exit(self):
        out = run_cli("verify", "--theorem", "1", "--l", "1", "--v", "0.75",
                      "--n", "128")
        assert out.returncode == 0
        lines = out.stdout.strip().splitlines()
        assert lines[0] == "t,residual_stated,residual_corrected"
        assert len(lines) == 129

    def test_json_carries_verdict(self):
        out = run_cli("verify", "--corollary", "1", "--d", "1", "--v",
                      "0.75", "--n", "128", "--format", "json")
        doc = json.loads(out.stdout)
        assert doc["summary"]["adjudication"] in (
            "stated_passes", "corrected_passes", "both_pass", "neither_pass")
        assert doc["summary"]["passing"]
        assert doc["meta"]["params"]["corollary"] == 1

    def test_expect_agreement_and_disagreement(self):
        base = ["verify", "--theorem", "2", "--l", "1", "--v", "0.75",
                "--n", "128", "--output", "/dev/null"]
        doc = run_cli(*base[:-2], "--format", "json")
        verdict = json.loads(doc.stdout)["summary"]["passing"]
        winner = verdict[0]
        loser = "stated" if winner == "corrected" else "corrected"
        assert run_cli(*base, "--expect", winner).returncode == 0
        out = run_cli(*base, "--expect", loser)
        assert out.returncode == 4
        assert "did not pass" in out.stderr

    def test_requires_problem_selector(self):
        out = run_cli("verify", "--v", "0.75")
        assert out.returncode == 2

    def test_homogeneous_problem_both_pass(self):
        # n0 = 0: every residual is 0.0, at the noise floor of both modes
        out = run_cli("verify", "--theorem", "1", "--l", "1", "--v", "0.75",
                      "--n0", "0", "--n", "256", "--format", "json")
        assert out.returncode == 0
        summary = json.loads(out.stdout)["summary"]
        assert summary["adjudication"] == "both_pass"
        assert summary["scale"] == 0.0

    def test_tight_tolerance_passes_neither(self):
        base = ["verify", "--theorem", "1", "--l", "1", "--v", "0.75",
                "--n0", "1", "--tol", "1e-9", "--n", "256"]
        out = run_cli(*base, "--format", "json")
        assert out.returncode == 0
        assert json.loads(out.stdout)["summary"]["adjudication"] == "neither_pass"
        out = run_cli(*base, "--expect", "corrected", "--output", "/dev/null")
        assert out.returncode == 4
        assert "neither_pass" in out.stderr


class TestForcedVerdicts:
    """`verify`'s passing list and --expect exit code for the verdicts
    that no benchmark instance reaches, with the mode test forced."""

    ARGV = ["verify", "--theorem", "1", "--l", "1", "--v", "0.75", "--n", "64"]

    @pytest.mark.parametrize("passing,verdict,exits", [
        (("stated", "corrected"), "both_pass", {"stated": 0, "corrected": 0}),
        (("stated",), "stated_passes", {"stated": 0, "corrected": 4}),
    ], ids=["both", "stated"])
    def test_passing_list_and_expect(self, monkeypatch, passing, verdict, exits):
        monkeypatch.setattr(frackin.verify, "_mode_passes",
                            lambda base, refined, tol_rel: base.mode.value in passing)
        code, out, _ = run_in_process(*self.ARGV, "--format", "json")
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["adjudication"] == verdict
        assert summary["passing"] == list(passing)
        for mode, want in exits.items():
            code, _, err = run_in_process(*self.ARGV, "--expect", mode,
                                          "--output", os.devnull)
            assert code == want
            assert ("did not pass" in err) == (want == 4)


class TestOtherCommands:
    def test_corollary_table(self):
        out = run_cli("corollary", "--id", "4", "--lambda", "1.5", "--l",
                      "0.5", "--v", "0.6", "--n", "10")
        assert out.returncode == 0
        assert len(out.stdout.strip().splitlines()) == 11

    def test_corollary_id_range(self):
        out = run_cli("corollary", "--id", "13", "--v", "0.5")
        assert out.returncode == 2

    def test_haubold_initial_decay(self):
        out = run_cli("haubold", "--c", "1", "--v", "1.0", "--tmin", "0.5",
                      "--tmax", "1.0", "--n", "2")
        rows = out.stdout.strip().splitlines()[1:]
        t, val = map(float, rows[0].split(","))
        assert val == pytest.approx(math.exp(-t), rel=1e-12)

    def test_output_file(self, tmp_path):
        target = tmp_path / "table.csv"
        out = run_cli("eval-mlf", "--alpha", "1", "--beta", "1", "--z", "1",
                      "--output", str(target))
        assert out.returncode == 0
        assert out.stdout == ""
        assert target.read_text().startswith("z,value")

    def test_unwritable_output_is_3(self, tmp_path):
        target = tmp_path / "missing" / "table.csv"
        out = run_cli("eval-mlf", "--alpha", "1", "--beta", "1", "--z", "1",
                      "--output", str(target))
        assert out.returncode == 3
        assert out.stdout == ""
        assert out.stderr == (f"frackin: error: cannot write {target}: "
                              f"{os.strerror(errno.ENOENT)}\n")
        # a directory is no file either
        out = run_cli("haubold", "--c", "1", "--v", "0.5", "--n", "4",
                      "--output", str(tmp_path))
        assert out.returncode == 3
        assert out.stderr.startswith(f"frackin: error: cannot write "
                                     f"{tmp_path}: ")
        assert "Traceback" not in out.stderr


class TestProblemFlags:
    """What solve, corollary, verify and haubold record of their problem."""

    @staticmethod
    def json_doc(*args):
        out = run_cli(*args, "--format", "json")
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout)

    def test_corollary_scaled_offset_meta(self):
        doc = self.json_doc("corollary", "--id", "12", "--lambda", "1.5",
                            "--mu", "2", "--l", "0.5", "--v", "0.6",
                            "--n", "3")
        assert doc["meta"]["params"] == {
            "id": 12, "lambda": 1.5, "alpha_p": 1.0, "mu": 1.5, "l": 0.5,
            "sigma": 1.75, "d": 1.0, "relax": 0.6, "v": 0.6, "n0": 1.0}
        assert doc["summary"] == {"mode": "corrected", "truncation_k": 8,
                                  "n": 3}

    def test_solve_distinct_relax_meta(self):
        doc = self.json_doc("solve", "--theorem", "3", "--l", "1", "--v",
                            "0.75", "--relax", "0.3", "--n", "3")
        assert doc["meta"]["params"] == {
            "theorem": 3, "lambda": 1.0, "alpha_p": 1.0, "mu": 1.5, "l": 1.0,
            "sigma": 2.5, "d": 1.0, "relax": 0.3, "v": 0.75, "n0": 1.0}
        assert doc["summary"] == {"mode": "corrected", "truncation_k": 9,
                                  "n": 3}

    def test_haubold_meta(self):
        doc = self.json_doc("haubold", "--c", "2", "--v", "0.5", "--n", "3")
        assert doc["meta"]["params"] == {"c": 2.0, "v": 0.5, "n0": 1.0}
        assert doc["summary"] == {"n": 3}

    def test_corollary_ignores_flags_its_family_fixes(self):
        fixed = run_cli("corollary", "--id", "1", "--lambda", "-1", "--mu",
                        "0", "--alpha-p", "7", "--v", "0.6", "--n", "20")
        plain = run_cli("corollary", "--id", "1", "--v", "0.6", "--n", "20")
        assert fixed.returncode == plain.returncode == 0
        assert fixed.stdout == plain.stdout

    def test_corollary_tied_rate_refuses_relax(self):
        out = run_cli("corollary", "--id", "1", "--relax", "2", "--v", "0.6")
        assert out.returncode == 3
        assert out.stderr == ("frackin: error: family 1 ties the relaxation "
                              "rate to d; got a distinct relax\n")

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_theorem_tied_rate_refuses_relax(self, command):
        out = run_cli(command, "--theorem", "1", "--l", "1", "--v", "0.75",
                      "--relax", "2", "--n", "64")
        assert out.returncode == 3
        assert out.stderr == ("frackin: error: family 1 ties the relaxation "
                              "rate to d; got a distinct relax\n")

    def test_verify_corollary_default_relax(self):
        doc = self.json_doc("verify", "--corollary", "3", "--v", "0.75",
                            "--n", "64")
        assert doc["meta"]["params"]["relax"] == 0.6
        assert doc["meta"]["params"]["corollary"] == 3

    def test_verify_coarse_grid_is_silent(self):
        # nothing may be filtered: a 16-point grid warns of nothing
        out = run_cli("verify", "--theorem", "1", "--l", "1", "--v", "0.75",
                      "--n", "16",
                      env={**os.environ, "PYTHONWARNINGS": "default"})
        assert out.returncode == 0
        assert out.stderr == ""
        assert len(out.stdout.splitlines()) == 17


class TestExitCodes:
    def test_parse_error_is_2(self):
        assert run_cli("eval-mlf", "--alpha", "1").returncode == 2
        assert run_cli("no-such-command").returncode == 2

    def test_domain_error_is_3(self):
        out = run_cli("eval-mlf", "--alpha", "-1", "--beta", "1", "--z", "1")
        assert out.returncode == 3
        assert "error" in out.stderr

    def test_infinite_tmax_is_3(self):
        out = run_cli("solve", "--theorem", "1", "--l", "1", "--v", "0.75",
                      "--tmax", "inf")
        assert out.returncode == 3
        assert "grid points must be finite" in out.stderr

    def test_overflow_is_3(self):
        # E_{1/2,1}(30) = 1.5e391: an error, not an inf row
        out = run_cli("eval-mlf", "--alpha", "0.5", "--beta", "1", "--z", "30")
        assert out.returncode == 3
        assert out.stdout == ""
        assert "float64 range" in out.stderr

    # the non-finite flag comes last, where the test id reads it
    @pytest.mark.parametrize("argv", [
        ["eval-mlf", "--alpha", "1", "--z", "1", "--beta", "nan"],
        ["eval-mlf", "--alpha", "1", "--beta", "1", "--z", "nan"],
        ["eval-struve", "--l", "0.5", "--z", "1", "--mu", "nan"],
        ["eval-struve", "--l", "0.5", "--z", "1", "--sigma", "nan"],
        ["eval-struve", "--l", "0.5", "--z", "inf"],
        ["verify", "--theorem", "1", "--l", "1", "--v", "0.75", "--n", "64",
         "--tol", "nan"],
        ["verify", "--theorem", "1", "--l", "1", "--v", "0.75", "--n", "64",
         "--tol", "inf"],
        ["solve", "--theorem", "1", "--l", "1", "--v", "0.75", "--n0", "nan"],
        ["haubold", "--c", "1", "--v", "0.5", "--n0", "nan"],
    ], ids=lambda argv: f"{argv[0]}:{argv[-2][2:]}={argv[-1]}")
    def test_non_finite_argument_is_3(self, argv):
        out = run_cli(*argv)
        assert out.returncode == 3
        assert out.stdout == ""
        assert out.stderr.startswith("frackin: error:")
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("argv", [
        ["solve", "--theorem", "1", "--l", "1", "--v", "0.75", "--n", "-1"],
        ["haubold", "--c", "1", "--v", "0.5", "--n", "-5"],
        ["verify", "--theorem", "1", "--l", "1", "--v", "0.75", "--n", "-2"],
    ], ids=lambda argv: argv[0])
    def test_negative_sample_count_is_3(self, argv):
        code, out, err = run_in_process(*argv)
        assert code == 3
        assert out == ""
        assert err == f"frackin: error: grid needs at least 2 points, got {argv[-1]}\n"

    # rates whose (rate t)^v or (d t)^v leave the float64 range
    @pytest.mark.parametrize("argv", [
        ["solve", "--theorem", "2", "--l", "1", "--d", "1e200", "--v", "2",
         "--n", "5"],
        ["verify", "--theorem", "2", "--l", "1", "--d", "1e200", "--v", "2",
         "--n", "64"],
        ["solve", "--theorem", "1", "--l", "1", "--d", "1e200", "--v", "2",
         "--n", "5"],
        ["solve", "--theorem", "3", "--l", "1", "--relax", "1e200", "--v",
         "2", "--n", "5"],
        ["corollary", "--id", "2", "--d", "1e200", "--v", "2"],
        ["haubold", "--c", "1e200", "--v", "2", "--n", "5"],
    ], ids=["solve-2", "verify-2", "solve-1", "solve-3", "corollary-2",
            "haubold"])
    def test_overflowing_rate_is_3(self, argv):
        out = run_cli(*argv, env={**os.environ, "PYTHONWARNINGS": "default"})
        assert out.returncode == 3
        assert out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("frackin: error:")

    # a sum past the float64 range, and a tied pair of rates for the
    # distinct-rate family
    @pytest.mark.parametrize("argv,message", [
        (["solve", "--theorem", "2", "--l", "1.5", "--d", "2", "--v", "1.96",
          "--tmax", "4.35", "--n", "400"], "leave the float64 range"),
        (["solve", "--theorem", "3", "--l", "1", "--v", "0.75", "--relax", "1"],
         "requires relax != d"),
    ], ids=["overflowing-sum", "tied-rates"])
    def test_real_cause_is_named(self, argv, message):
        out = run_cli(*argv, env={**os.environ, "PYTHONWARNINGS": "default"})
        assert out.returncode == 3
        assert out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("frackin: error:")
        assert message in lines[0]
        # neither a Python name nor a longer series is offered as the mend
        assert "powered_time" not in lines[0] and "rebuild" not in lines[0]

    def test_term_past_float64_range_is_3(self):
        # t_max^power of a term overflows before its coefficient brings it
        # back: the build stops there and evaluation names the cause
        out = run_cli("solve", "--theorem", "1", "--l", "1", "--d", "0.01",
                      "--v", "0.75", "--tmax", "100", "--n", "10")
        assert out.returncode == 3
        assert out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("frackin: error:")
        assert "leave the float64 range at t=100.0" in lines[0]

    def test_range_error_is_3(self):
        out = run_cli("eval-mlf", "--alpha", "1", "--beta", "1",
                      "--z", "200")
        assert out.returncode == 3

    def test_grid_range_error_names_the_value(self):
        # -(c t)^v reaches -160.2 at t_max
        code, out, err = run_in_process("haubold", "--c", "2.553", "--v", "1.996",
                                        "--tmax", "4.983", "--n", "100")
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("frackin: error:")
        assert "supports |z| <= 100, got z=-160.2" in lines[0]

    @pytest.mark.parametrize("argv", [
        ["eval-mlf", "--alpha", "0", "--beta", "1", "--z", "1"],
        ["eval-struve", "--l", "0.5", "--z", "-1"],
        ["eval-mlf", "--alpha", "0.1", "--beta", "1", "--z", "50"],
        ["solve", "--theorem", "1", "--l", "1", "--v", "1.9", "--tmax", "12"],
        ["haubold", "--c", "2.553", "--v", "1.996", "--tmax", "4.983", "--n", "100"],
        ["haubold", "--c", "0", "--v", "1"],
        ["haubold", "--c", "1", "--v", "3"],
    ], ids=["alpha", "struve-z", "mlf-tail", "mlf-range", "grid-range",
            "haubold-c", "haubold-v"])
    def test_error_names_no_python_function(self, argv):
        code, out, err = run_in_process(*argv)
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("frackin: error:")
        assert not PYTHON_NAME.search(lines[0]), lines[0]

    @pytest.mark.parametrize("tol", ["0", "-1e-4"])
    def test_non_positive_tolerance_is_3(self, tol):
        code, out, err = run_in_process("verify", "--theorem", "1", "--l", "1",
                                        "--v", "0.75", "--n", "64", f"--tol={tol}")
        assert code == 3
        assert out == ""
        assert err.startswith("frackin: error: residual tolerance must be positive")


def _sweep_argvs(seed=20261020, per_command=60):
    """Seeded argvs of the four table commands over the 15 families: v in
    [0.1, 2], d and relax in [0.3, 3], l in [-0.5, 2], t_max in [1, 5]."""
    rng = random.Random(seed)

    def draw(lo, hi):
        return repr(round(rng.uniform(lo, hi), 3))

    # (command flag, family flag, id, whether the family takes --relax)
    families = ([("--theorem", k, k == 3) for k in (1, 2, 3)]
                + [("--corollary", k, k % 3 == 0) for k in range(1, 13)])
    argvs = []
    for _ in range(per_command):
        argvs.append(["haubold", "--c", draw(0.3, 3.0), "--v", draw(0.1, 2.0),
                      "--tmax", draw(1.0, 5.0), "--n", "100"])
        for command in ("solve", "corollary", "verify"):
            pool = families
            if command != "verify":
                pool = [f for f in families if (f[0] == "--theorem") == (command == "solve")]
            flag, ident, distinct = rng.choice(pool)
            if command == "corollary":
                flag = "--id"
            argv = [command, flag, str(ident), "--l", draw(-0.5, 2.0), "--d",
                    draw(0.3, 3.0), "--v", draw(0.1, 2.0), "--tmax",
                    draw(1.0, 5.0), "--n", "128"]
            if distinct:
                argv += ["--relax", draw(0.3, 3.0)]
            argvs.append(argv)
    return argvs


def test_seeded_sweep_prints_certified_numbers_or_names_its_failure():
    # each argv exits 0 with finite values, or exits 3 with one error line,
    # and none of them lets a numpy RuntimeWarning through
    exits = []
    for argv in _sweep_argvs():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            code, out, err = run_in_process(*argv)
            elapsed = time.perf_counter() - start
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
        assert elapsed < 2.0, (argv, elapsed)
        if code == 0:
            rows = out.splitlines()[1:]
            assert rows and err == "", argv
            assert all(math.isfinite(float(x)) for row in rows for x in row.split(",")), argv
        else:
            assert code == 3 and out == "", argv
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("frackin: error:"), argv
            assert not PYTHON_NAME.search(lines[0]), (argv, lines[0])
        exits.append(code)
    assert len(exits) == 240
    # most draws are in range: the sweep checks numbers, not only errors
    assert exits.count(0) >= 200


class TestDeterminism:
    COMMANDS = [
        ["eval-mlf", "--alpha", "0.75", "--beta", "1.5", "--z", "-3.2",
         "0.4"],
        ["eval-struve", "--l", "0.5", "--lambda", "1.3", "--z", "1.0",
         "3.0"],
        ["solve", "--theorem", "2", "--l", "1", "--v", "0.75", "--n", "50"],
        ["verify", "--theorem", "1", "--l", "1", "--v", "0.75", "--n",
         "64"],
        ["corollary", "--id", "7", "--alpha-p", "0.9", "--lambda", "1.2",
         "--v", "0.6", "--n", "20"],
        ["haubold", "--c", "2", "--v", "0.5", "--n", "25"],
    ]

    @pytest.mark.parametrize("command", COMMANDS,
                             ids=lambda c: c[0])
    def test_byte_identical_repeats(self, command):
        for fmt in ("csv", "json"):
            first = run_cli(*command, "--format", fmt)
            second = run_cli(*command, "--format", fmt)
            assert first.returncode == 0
            assert first.stdout == second.stdout
            assert first.stdout.strip()

    def test_blas_thread_count_leaves_output_unchanged(self):
        # the Mittag-Leffler grids are matrix products; BLAS splits them
        # over threads by rows and columns only, so each sum keeps its order
        argv = ["verify", "--theorem", "1", "--l", "1", "--v", "0.75",
                "--format", "json"]
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            out = run_cli(*argv, env=env)
            assert out.returncode == 0
            outputs.append(out.stdout)
        assert outputs[0] == outputs[1] and outputs[0].strip()


class TestParserReuse:
    """One process reuses one parser: no flag may carry over to a later call."""

    # each flag is given in one call and left out of the next
    SEQUENCE = [
        ["verify", "--theorem", "2", "--l", "1", "--v", "0.75", "--n", "64",
         "--expect", "stated"],
        ["verify", "--theorem", "2", "--l", "1", "--v", "0.75", "--n", "64"],
        ["solve", "--theorem", "1", "--l", "1", "--v", "0.75", "--n", "6",
         "--format", "json"],
        ["solve", "--theorem", "1", "--l", "1", "--v", "0.75", "--n", "6"],
        ["eval-mlf", "--alpha", "1", "--beta", "1", "--z", "1", "--output",
         "{out}"],
        ["eval-mlf", "--alpha", "1", "--beta", "1", "--z", "1"],
        ["solve", "--theorem", "2", "--l", "1", "--v", "0.5", "--tmin",
         "0.001", "--n", "6", "--spacing", "log"],
        ["solve", "--theorem", "2", "--l", "1", "--v", "0.5", "--tmin",
         "0.001", "--n", "6"],
        ["solve", "--theorem", "4", "--l", "1", "--v", "0.5"],
        ["solve", "--theorem", "3", "--l", "1", "--v", "0.75", "--n", "6",
         "--relax", "0.3"],
        ["solve", "--theorem", "3", "--l", "1", "--v", "0.75", "--n", "6"],
        ["verify", "--corollary", "3", "--v", "0.75", "--n", "32",
         "--format", "json"],
        ["verify", "--theorem", "1", "--l", "1", "--v", "0.75", "--n", "32",
         "--format", "json"],
        # corollary has no --theorem: a namespace kept from the call before
        # would still carry theorem = 1
        ["corollary", "--id", "4", "--lambda", "1.5", "--l", "0.5", "--v",
         "0.6", "--n", "6", "--format", "json"],
    ]

    def test_matches_fresh_processes(self, tmp_path):
        codes = set()
        for i, argv in enumerate(self.SEQUENCE):
            here = [a.format(out=tmp_path / f"here{i}") for a in argv]
            fresh = [a.format(out=tmp_path / f"fresh{i}") for a in argv]
            code, stdout, stderr = run_in_process(*here)
            want = run_cli(*fresh)
            assert (code, stdout, stderr) == \
                (want.returncode, want.stdout, want.stderr), argv
            if "--output" in argv:
                assert (tmp_path / f"here{i}").read_text() == \
                    (tmp_path / f"fresh{i}").read_text()
            codes.add(code)
        # the sequence reaches success, a parse error, a domain error and
        # a failed --expect
        assert codes == {0, 2, 3, 4}


class TestEmitBytes:
    """`_emit` writes the same bytes whatever sequence type holds a column."""

    VALUES = [-0.0, 5e-324, 1e-5, 1e16, 0.1 + 0.2, 1 / 3]
    KINDS = {
        "ndarray": np.array,
        "tuple": tuple,
        "list": list,
        "numpy-scalars": lambda v: [np.float64(x) for x in v],
    }

    @staticmethod
    def emit(fmt, columns):
        args = argparse.Namespace(format=fmt, output="-")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(args, {"command": "t"}, ["x", "y"], columns, {"n": 6})
        return out.getvalue()

    @pytest.mark.parametrize("kind", KINDS)
    def test_csv_is_shortest_repr(self, kind):
        make = self.KINDS[kind]
        text = self.emit("csv", (make(self.VALUES), make(self.VALUES[::-1])))
        rows = zip(self.VALUES, self.VALUES[::-1])
        assert text == "x,y\n" + "".join(
            f"{repr(float(a))},{repr(float(b))}\n" for a, b in rows)
        assert text.splitlines()[1] == "-0.0,0.3333333333333333"

    @pytest.mark.parametrize("kind", KINDS)
    def test_json_is_dumps_of_python_floats(self, kind):
        make = self.KINDS[kind]
        text = self.emit("json", (make(self.VALUES), make(self.VALUES[::-1])))
        payload = {"meta": {"command": "t", "columns": ["x", "y"]},
                   "rows": [[a, b] for a, b in
                            zip(self.VALUES, self.VALUES[::-1])],
                   "summary": {"n": 6}}
        assert text == json.dumps(payload, sort_keys=True,
                                  separators=(",", ": ")) + "\n"
