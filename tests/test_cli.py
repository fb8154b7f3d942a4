"""End-to-end command-line behavior: output formats, exit codes, suites."""
import ast
import concurrent.futures
import contextlib
import errno
import functools
import hashlib
import io
import json
import logging
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birat import cli, driver, verify
from birat.cli import main
from birat.errors import SingularStepMatrix
from birat.kahan import kahan_step_series
from birat.lvfamily import MICKENS_SCHEME, lv_step
from birat.models import MODELS, lv_vf
from birat.ratpoly import MAX_DECIMAL_EXPONENT

MICKENS = "2,0,0,0,1,0,0,-1,0,2"
KAHAN = "1/2,0,0,1/2,1/2,1/2,0,0,1/2,1/2"
CASE_VI = "1/2,0,3/2,-1/2,0,1/2,4/5,0,1/5,0"
QUARTERS = ",".join(["1/4"] * 10)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a worker sees a monkeypatched suite only when forked from this process")


# Fake suites for the pool path live at module level: a worker receives the
# suite function itself, pickled by reference.
def singular_suite(seed, tol):
    raise SingularStepMatrix("boom")


def pid_suite(name, pause, seed, tol):
    time.sleep(pause)
    return [{"name": name, "value": os.getpid(), "threshold": 0, "passed": True}]


def run_cli(argv, out=None):
    out, err = out or io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse-level rejections
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def on_cpus(monkeypatch, cpus):
    """Make cli._usable_cpus() return ``cpus``; the list returned collects the pid of
    every process os.fork starts from here on."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    forks, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParseRational:
    def test_exponent_bound(self):
        bound = MAX_DECIMAL_EXPONENT
        assert cli.parse_rational(f" 1e{bound} ") == 10 ** bound
        assert cli.parse_rational(f"-2.5E-{bound}") == Fraction(-25, 10 ** (bound + 1))
        assert cli.parse_rational("1e-400") == Fraction(1, 10 ** 400)
        for text in (f"1e{bound + 1}", f"1e-{bound + 1}", "0e+3000000", "1.5E3_000_000"):
            with pytest.raises(ValueError, match="exponent of"):
                cli.parse_rational(text)

    def test_other_texts_reach_fraction(self):
        assert cli.parse_rational("3/4") == Fraction(3, 4)
        for text in ("e", "1e", "1/2e5", "tight", "1e5/3"):
            with pytest.raises(ValueError, match="Invalid literal for Fraction"):
                cli.parse_rational(text)


class TestIntegrate:
    def test_csv_shape(self):
        code, out, err = run_cli(["integrate", "--model", "lv", "--method", "kahan",
                                  "--h", "0.1", "--steps", "5"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,x,y"
        assert len(lines) == 7
        for line in lines[1:]:
            assert len(line.split(",")) == 3
        assert lines[1].split(",")[0] == "0"

    def test_rational_tokens_accepted(self):
        code_rat, out_rat, _ = run_cli(["integrate", "--model", "lv", "--method",
                                        "kahan", "--h", "1/10", "--steps", "3",
                                        "--x0", "1/2,1/2"])
        code_dec, out_dec, _ = run_cli(["integrate", "--model", "lv", "--method",
                                        "kahan", "--h", "0.1", "--steps", "3",
                                        "--x0", "0.5,0.5"])
        assert code_rat == code_dec == 0
        assert out_rat == out_dec

    def test_byte_determinism(self):
        argv = ["integrate", "--model", "enzyme3", "--method", "kahan",
                "--h", "0.001", "--steps", "50"]
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second

    def test_json_tokens_match_csv(self):
        argv = ["integrate", "--model", "lv", "--method", "kahan",
                "--h", "0.05", "--steps", "20"]
        _, csv_out, _ = run_cli(argv)
        _, json_out, _ = run_cli(argv + ["--format", "json"])
        doc = json.loads(json_out)
        assert doc["state_names"] == ["x", "y"]
        csv_rows = [line.split(",") for line in csv_out.splitlines()[1:]]
        assert len(doc["rows"]) == len(csv_rows) == 21
        # Numeric tokens must agree byte for byte across the two formats.
        for tokens in csv_rows:
            assert "[" + ", ".join(tokens) + "]" in json_out
        for parsed, tokens in zip(doc["rows"], csv_rows):
            assert parsed == [float(t) for t in tokens]

    def test_output_file(self, tmp_path):
        target = tmp_path / "traj.csv"
        code, out, _ = run_cli(["integrate", "--model", "lv", "--method", "kahan",
                                "--h", "0.1", "--steps", "2", "-o", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[0] == "t,x,y"

    def test_euler_on_schnakenberg(self):
        code, out, _ = run_cli(["integrate", "--model", "schnakenberg", "--method",
                                "euler", "--h", "0.01", "--steps", "4"])
        assert code == 0
        assert out.splitlines()[0] == "t,x,y"

    def test_negative_h_times(self):
        # row 0 is t = 0 exactly; 0 * h would print -0 for a negative h
        argv = ["integrate", "--model", "lv", "--method", "kahan",
                "--h", "-0.01", "--steps", "2"]
        code, out, _ = run_cli(argv)
        assert code == 0
        rows = out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "-0.01", "-0.02"]
        code, out, _ = run_cli(argv + ["--format", "json"])
        assert code == 0
        assert '"rows": [[0, ' in out
        assert [row[0] for row in json.loads(out)["rows"]] == [k * -0.01 for k in range(3)]

    def test_series_method(self):
        # the CLI binds the series step itself; its rows are that step's bits
        code, out, _ = run_cli(["integrate", "--model", "enzyme4", "--method",
                                "kahan-series:3", "--h", "0.001", "--steps", "2"])
        assert code == 0
        assert out.splitlines()[0] == "t,s,e,c,p"
        spec = MODELS["enzyme4"]
        vf, x = spec.field(spec.defaults), spec.default_x0(spec.defaults)
        for k, row in enumerate(out.splitlines()[1:]):
            if k:
                x = kahan_step_series(vf, x, 0.001, 3)
            assert row == ",".join("%.17g" % v for v in [k * 0.001, *x])

    @pytest.mark.parametrize("model, h", [("enzyme3", 1e-3), ("enzyme4", 1e-2)])
    def test_euler_matches_series_order_zero(self, model, h):
        steps = 3000
        code, out, _ = run_cli(["integrate", "--model", model, "--method", "euler",
                                "--h", repr(h), "--steps", str(steps)])
        assert code == 0
        spec = MODELS[model]
        vf = spec.field(spec.defaults)
        x = np.asarray(spec.default_x0(spec.defaults), dtype=float)
        expected = []
        for k in range(steps + 1):
            if k:
                x = kahan_step_series(vf, x, h, 0)
            expected.append(",".join("%.17g" % v for v in [k * h, *x.tolist()]))
        assert out.splitlines()[1:] == expected


class TestLVFamilyPoleLine:
    def test_case_vi_near_its_pole_line_takes_the_linear_elimination(self):
        # CASE_VI_SCHEME's p2 vanishes on x = 52.5 at h = 0.1; the step must
        # be the exact one through the xt-elimination (test_lvfamily bounds
        # it), not the spurious root 823857423.75352192,-6.3333330217907404
        code, out, err = run_cli(["integrate", "--model", "lv", "--method", "lv-family",
                                  "--params", "1/2,0,3/2,-1/2,0,1/2,4/5,0,1/5,0",
                                  "--h", "0.1", "--x0", "52.500001,0.5", "--steps", "1"])
        assert (code, err) == (0, "")
        assert out.splitlines()[2] == "0.10000000000000001,17.49999833980571,-128750001.46138006"


class TestIntegrateConfigErrors:
    def test_steps_must_be_positive(self):
        code, _, err = run_cli(["integrate", "--model", "lv", "--method", "kahan",
                                "--h", "0.1", "--steps", "0"])
        assert code == 1
        assert "steps" in err

    @pytest.mark.parametrize("extra, message", [
        (["--model", "pendulum"], f"model: expected one of {sorted(MODELS)}, got 'pendulum'"),
        (["--model", "lv", "--format", "xml"], "format: expected csv or json, got 'xml'"),
        (["--model", "lv", "--steps", "2.5"], "steps: expected an integer, got '2.5'"),
    ], ids=["model", "format", "steps"])
    def test_flag_text_read_as_config(self, extra, message):
        # argparse takes these flags as text; the run configuration checks them
        code, out, err = run_cli(["integrate", "--method", "kahan", "--h", "0.1",
                                  "--steps", "1", *extra])
        assert (code, out, err) == (1, "", f"birat: error: {message}\n")

    W = ("WARNING birat.cli: h=0.1 exceeds eps=0.01;"
         " the fast transient will be underresolved")

    @pytest.mark.parametrize("argv, lines", [
        ("--model enzyme4 --method nope --h 0.01 --params k1=-1,km1=0.5,k2=0.1",
         ["params: k1 must be positive"]),
        ("--model lv --method nope --h 0.01 --x0 1,2,3",
         ["x0: expected dimension 2 for model lv, got 3"]),
        ("--model enzyme3 --method kahan-series:x --h 0.1",
         [W, "method: bad series order in 'kahan-series:x'"]),
        ("--model schnakenberg --method kahan --h 0.01 --x0 1",
         ["x0: expected dimension 2 for model schnakenberg, got 1"]),
        ("--model schnakenberg --method kahan --h 0.01 --output no-such-dir/t.csv",
         ["method: model schnakenberg is cubic; use method schnakenberg or euler"]),
        (f"--model lv --method lv-family --params {MICKENS} --h 0.01 --x0 1,2,3",
         ["x0: expected dimension 2 for model lv, got 3"]),
        ("--model enzyme3 --method schnakenberg --h 0.1 --x0 1,0",
         [W, "x0: expected dimension 3 for model enzyme3, got 2"]),
        ("--model enzyme3 --method kahan --h 0.1 --params mu=0.7,nu=0.6,eps=0.1 --x0 1,0",
         ["params: need nu > mu > 0, got mu=0.7, nu=0.6"]),
    ], ids=["values-before-method", "x0-before-method", "warning-then-series-order",
            "x0-before-cubic", "cubic-before-output", "lv-family-x0",
            "warning-then-x0", "values-before-warning"])
    def test_first_of_several_faults(self, argv, lines):
        # each run has two or more faults; the one reported is the first in README's order
        code, out, err = run_cli(["integrate", *argv.split(), "--steps", "2"])
        expected = [line if line == self.W else f"birat: error: {line}" for line in lines]
        assert (code, out, err) == (1, "", "".join(f"{line}\n" for line in expected))

    def test_x0_dimension_mismatch(self):
        code, _, err = run_cli(["integrate", "--model", "lv", "--method", "kahan",
                                "--h", "0.1", "--steps", "1", "--x0", "1,2,3"])
        assert code == 1
        assert "x0" in err

    def test_kahan_rejected_on_cubic_model(self):
        code, _, err = run_cli(["integrate", "--model", "schnakenberg", "--method",
                                "kahan", "--h", "0.1", "--steps", "1"])
        assert code == 1
        assert "cubic" in err

    def test_missing_method(self):
        code, _, err = run_cli(["integrate", "--model", "lv",
                                "--h", "0.1", "--steps", "1"])
        assert code == 1
        assert "method" in err

    def test_unknown_param_key(self):
        code, _, err = run_cli(["integrate", "--model", "enzyme3", "--method",
                                "kahan", "--h", "0.001", "--steps", "1",
                                "--params", "k1=2"])
        assert code == 1
        assert "unknown key" in err

    def test_scheme_constraint_violation(self):
        bad = ",".join(["1/2"] * 10)
        code, _, err = run_cli(["integrate", "--model", "lv", "--method",
                                "lv-family", "--params", bad,
                                "--h", "0.1", "--steps", "1"])
        assert code == 1
        assert "b + c + d + e" in err

    def test_missing_config_file(self):
        code, _, err = run_cli(["integrate", "--config", "/nonexistent.json"])
        assert code == 1
        assert "config" in err

    def test_zero_h(self):
        code, _, err = run_cli(["integrate", "--model", "lv", "--method", "kahan",
                                "--h", "0", "--steps", "1"])
        assert code == 1
        assert "h" in err

    @pytest.mark.parametrize("extra, message", [
        (["--model", "lv", "--h", "1e400"], "h: '1e400'"),
        (["--model", "lv", "--h", "0.1", "--x0", "1e400,1"], "x0: '1e400'"),
        (["--model", "enzyme3", "--h", "1e-3", "--params", "mu=0.5,nu=1e400,eps=0.1"],
         "params.nu: '1e400'"),
    ], ids=["h", "x0", "params"])
    def test_out_of_range_number_named(self, extra, message):
        code, out, err = run_cli(["integrate", "--method", "kahan", "--steps", "2", *extra])
        assert (code, out) == (1, "")
        assert err == f"birat: error: {message} is beyond the float range\n"

    def test_out_of_range_scheme_value_named(self):
        code, out, err = run_cli(["integrate", "--model", "lv", "--method", "lv-family",
                                  "--params", "1e400,0,0,0,1,0,0,-1,0,2",
                                  "--h", "0.1", "--steps", "2"])
        assert (code, out) == (1, "")
        assert err == "birat: error: params: '1e400' is beyond the float range\n"

    HUGE = "1e3000000"  # Fraction would build 10**3000000, which takes seconds

    @pytest.mark.parametrize("extra, field, token", [
        (["--model", "lv", "--h", HUGE], "h", HUGE),
        (["--model", "lv", "--h", "0.1", "--x0", "1,-1e-3000000"], "x0", "-1e-3000000"),
        (["--model", "lv", "--h", "0.1", "--tol", "1E+3000000"], "tol", "1E+3000000"),
        (["--model", "enzyme3", "--h", "1e-3", "--params", f"mu=0.5,nu={HUGE},eps=0.1"],
         "params.nu", HUGE),
    ], ids=["h", "x0", "tol", "params"])
    def test_huge_exponent_rejected_before_building_the_value(self, extra, field, token):
        code, out, err = run_cli(["integrate", "--method", "kahan", "--steps", "2", *extra])
        assert (code, out) == (1, "")
        assert err == f"birat: error: {field}: cannot parse {token!r} as a number\n"

    def test_huge_exponent_in_scheme_rejected(self):
        code, out, err = run_cli(["integrate", "--model", "lv", "--method", "lv-family",
                                  "--params", f"{self.HUGE},0,0,0,1,0,0,-1,0,2",
                                  "--h", "0.1", "--steps", "2"])
        assert (code, out) == (1, "")
        assert err == (f"birat: error: params: exponent of {self.HUGE!r} exceeds"
                       f" {MAX_DECIMAL_EXPONENT} in size\n")

    def test_tiny_decimal_still_parses_to_zero(self):
        code, out, _ = run_cli(["integrate", "--model", "lv", "--method", "kahan",
                                "--h", "0.1", "--x0", "1e-400,1", "--steps", "1"])
        assert code == 0
        assert out.splitlines()[1] == "0,0,1"
        code, _, err = run_cli(["integrate", "--model", "lv", "--method", "kahan",
                                "--h", "1e-400", "--steps", "1"])
        assert (code, err) == (1, "birat: error: h: must be nonzero\n")

    @pytest.mark.parametrize("model, params, missing, required", [
        ("enzyme3", "mu=0.5", "nu, eps", "mu, nu, eps"),
        ("enzyme4", "k1=2,s0=2", "km1, k2", "k1, km1, k2"),
    ], ids=["enzyme3", "enzyme4"])
    def test_partial_params_name_missing_keys(self, model, params, missing, required):
        code, out, err = run_cli(["integrate", "--model", model, "--method", "kahan",
                                  "--h", "1e-3", "--steps", "2", "--params", params])
        assert (code, out) == (1, "")
        assert err == (f"birat: error: params: missing {missing} for model {model}"
                       f" (required: {required})\n")

    def test_params_with_defaults_may_be_left_out(self):
        code, out, _ = run_cli(["integrate", "--model", "enzyme4", "--method", "kahan",
                                "--h", "1e-3", "--steps", "2",
                                "--params", "k1=2,km1=0.3,k2=0.4"])
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_left_out_params_come_from_the_model_table(self):
        # the table's enzyme4 row has s0 = 1, e0 = 0.01; EnzymeParams alone says e0 = 1
        code, out, err = run_cli(["integrate", "--model", "enzyme4", "--method", "kahan",
                                  "--h", "1e-2", "--steps", "2",
                                  "--params", "k1=2,km1=0.3,k2=0.4"])
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "0,1,0.01,0,0"

    def test_unopenable_output_is_config_error(self, tmp_path):
        target = tmp_path / "missing" / "traj.csv"
        code, out, err = run_cli(["integrate", "--model", "lv", "--method", "kahan",
                                  "--h", "0.1", "--steps", "2", "--output", str(target)])
        assert (code, out) == (1, "")
        assert err == f"birat: error: output: [Errno 2] No such file or directory: '{target}'\n"


    def test_set_without_linear_elimination_refused(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "lv", "method": "lv-family", "h": 0.1,
                                   "steps": 10, "params": ["1/4"] * 10}))
        flags = ["--model", "lv", "--method", "lv-family", "--params", QUARTERS,
                 "--h", "0.1", "--steps", "10"]
        for argv in (flags, ["--config", str(cfg)]):
            assert run_cli(["integrate", *argv]) == (
                1, "", "birat: error: params: no elimination is linear for this set,"
                       " so lv-family has no step for it\n")


class TestIntegrateRuntimeFailure:
    # Mickens from x = 1e300: both recovery denominators vanish at step 1
    FAILING = ["integrate", "--model", "lv", "--method", "lv-family", "--params", MICKENS,
               "--h", "0.1", "--x0", "1e300,1", "--steps", "10"]

    def test_partial_csv_and_exit_2(self):
        code, out, err = run_cli(self.FAILING)
        assert code == 2
        lines = out.splitlines()
        assert lines[0] == "t,x,y"
        assert len(lines) == 2  # the initial state was flushed before the failure
        assert "step 1" in err

    def test_json_error_trailer(self):
        code, out, _ = run_cli(self.FAILING + ["--format", "json"])
        assert code == 2
        doc = json.loads(out)
        assert len(doc["rows"]) == 1
        assert doc["error"]["step"] == 1
        assert doc["error"]["type"]
        assert doc["error"]["message"]


# what the run that overflows at step 11 logs in JSON mode, whose stdout carries the
# error trailer; CSV mode reports the failure once, in FAILURE_CSV_LINE
FAILURE_LOG_LINE = "ERROR birat.cli: map failure at step 11: non-finite value in x, y\n"
FAILURE_CSV_LINE = "integrate: NonFiniteState: non-finite value in x, y (step 11)\n"


class TestNonFiniteState:
    ARGV = ["integrate", "--model", "lv", "--method", "euler", "--h", "0.9",
            "--x0", "8,0.01", "--steps", "400"]

    @staticmethod
    def assert_finite_tokens(text):
        tokens = text.replace("[", ",").replace("]", ",").replace("\n", ",").split(",")
        assert not {"nan", "inf", "-inf"} & {tok.strip() for tok in tokens}

    def test_csv_stops_at_first_non_finite_state(self):
        code, out, err = run_cli(self.ARGV)
        assert code == 2
        self.assert_finite_tokens(out)
        assert len(out.splitlines()) == 1 + 11  # header, x0 and ten finite steps
        assert "integrate: NonFiniteState: " in err
        assert "(step 11)" in err

    def test_json_error_trailer(self):
        code, out, _ = run_cli(self.ARGV + ["--format", "json"])
        assert code == 2
        doc = json.loads(out)
        self.assert_finite_tokens(json.dumps(doc["rows"]))
        assert len(doc["rows"]) == 11
        assert doc["error"]["type"] == "NonFiniteState"
        assert doc["error"]["step"] == 11

    def test_overflow_raises_no_numpy_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(self.ARGV)
        assert code == 2
        assert len(out.splitlines()) == 1 + 11
        assert err == FAILURE_CSV_LINE


def _oracle_text(fmt, method, h, states, error=None):
    """The output of a run, one '{:.17g}' row at a time, as the CLI wrote it before streaming."""
    rows = [[k * h or 0.0, *state] for k, state in enumerate(states)]
    if fmt == "csv":
        return "t,x,y\n" + "".join(",".join("{:.17g}".format(v) for v in row) + "\n"
                                   for row in rows)
    head = ('{"model": "lv", "method": "%s", "h": %s, "state_names": ["x", "y"], "rows": ['
            % (method, "{:.17g}".format(h)))
    body = ",\n".join("[" + ", ".join("{:.17g}".format(v) for v in row) + "]" for row in rows)
    tail = "" if error is None else ', "error": ' + json.dumps(error, sort_keys=True)
    return head + body + "]" + tail + "}\n"


class TestStreamedOutput:
    """Rows are written in blocks of driver.BLOCK states; the bytes must not depend on where
    blocks end, nor on which process formats them.  run_cli's stdout is an io.StringIO,
    which is formatted in process on any number of CPUs; a file is formatted in a forked
    child on two."""

    H = -0.01  # a backward run, so row 0 also checks the 0-not--0 rule

    def _run(self, argv, fmt, dest, tmp_path):
        argv = [*argv, "--format", fmt]
        if dest == "stdout":
            return run_cli(argv)
        target = tmp_path / f"traj.{fmt}"
        code, out, err = run_cli(argv + ["--output", str(target)])
        assert out == ""
        return code, target.read_text(), err

    @pytest.mark.parametrize("dest", ["stdout", "file"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("steps", [driver.BLOCK - 1, driver.BLOCK, driver.BLOCK + 1,
                                       2 * driver.BLOCK + 1],
                             ids=["block-1", "block", "block+1", "2block+1"])
    def test_matches_per_row_oracle(self, steps, fmt, dest, tmp_path, monkeypatch):
        states = [(2.0, 0.5)]
        for _ in range(steps):
            states.append(lv_step(MICKENS_SCHEME, *states[-1], self.H))
        # one CPU formats in process; two fork a formatter for a file once a second block
        # exists
        for cpus in (1, 2):
            forks = on_cpus(monkeypatch, cpus)
            code, text, err = self._run(
                ["integrate", "--model", "lv", "--method", "lv-family", "--params", MICKENS,
                 "--h", str(self.H), "--steps", str(steps)], fmt, dest, tmp_path)
            assert len(forks) == (cpus > 1 and dest == "file" and steps >= driver.BLOCK)
            assert (code, err) == (0, "")
            assert text == _oracle_text(fmt, "lv-family", self.H, states)
            assert_no_child_left()

    # lv Euler at h = 0.9 from (8, 0.01): states 0-10 are finite, step 11 overflows
    FAILING = ["integrate", "--model", "lv", "--method", "euler", "--h", "0.9",
               "--x0", "8,0.01", "--steps", "400"]

    @staticmethod
    def _failing_states():
        vf = lv_vf()
        states = [[8.0, 0.01]]
        with np.errstate(over="ignore", invalid="ignore"):
            while all(map(math.isfinite, states[-1])):
                states.append(kahan_step_series(vf, states[-1], 0.9, 0).tolist())
        return states[:-1]

    @pytest.mark.parametrize("dest", ["stdout", "file"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("block", [4, 11, 1], ids=["mid-block", "at-boundary", "one-row"])
    def test_failure_writes_partial_output(self, block, fmt, dest, tmp_path, monkeypatch):
        # 11 rows: blocks of 4 and 4, then the 3 states before the bad one; or one full
        # block of 11, then a block that fails at its first state; or 11 blocks of one
        monkeypatch.setattr(driver, "BLOCK", block)
        states = self._failing_states()
        assert len(states) == 11
        error = {"step": 11, "type": "NonFiniteState", "message": "non-finite value in x, y"}
        for cpus in (1, 2):
            forks = on_cpus(monkeypatch, cpus)
            code, text, err = self._run(self.FAILING, fmt, dest, tmp_path)
            assert len(forks) == (cpus > 1 and dest == "file")
            assert code == 2
            if fmt == "csv":
                assert err == FAILURE_CSV_LINE
                assert text == _oracle_text(fmt, "euler", 0.9, states)
            else:
                assert err == FAILURE_LOG_LINE
                assert text == _oracle_text(fmt, "euler", 0.9, states, error)
            assert_no_child_left()

    @pytest.mark.parametrize("value", [
        -0.0, 0.0, 5e-324, 2.2250738585072009e-308, 1e16, 1e17, 1e-5,
        0.1, -1 / 3, 1.7976931348623157e308, 123456789012345678.0,
    ])
    def test_percent_format_matches_str_format(self, value):
        assert cli.FMT % value == "{:.17g}".format(value)


class TestFormatterChild:
    """A run of more than one block to a file on two CPUs formats in a forked child, which
    writes the rows; whatever ends the run, the child is reaped and the parent's error is
    the one reported.  Each test asserts the fork count first."""

    ARGV = ["integrate", "--model", "lv", "--method", "lv-family", "--params", MICKENS,
            "--h", "0.1", "--steps", "100", "--format", "json"]

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch, tmp_path):
        monkeypatch.setattr(driver, "BLOCK", 8)
        self.forks = on_cpus(monkeypatch, 2)
        self.target = tmp_path / "traj.json"
        self.argv = [*self.ARGV, "--output", str(self.target)]
        yield
        assert_no_child_left()

    def _failing_stepper(self, monkeypatch, exc, at):
        real = cli.lv_stepper

        def stepper(*args):
            step, calls = real(*args), []

            def failing(state):
                calls.append(None)
                if len(calls) == at:
                    raise exc
                return step(state)
            return failing
        monkeypatch.setattr(cli, "lv_stepper", stepper)

    @pytest.mark.parametrize("exc", [RuntimeError("boom"), KeyboardInterrupt()],
                             ids=["runtime-error", "interrupt"])
    def test_step_exception_propagates(self, exc, monkeypatch):
        self._failing_stepper(monkeypatch, exc, at=30)
        with pytest.raises(type(exc)):
            run_cli(self.argv)
        assert len(self.forks) == 1

    def test_map_failure_after_several_blocks(self, monkeypatch):
        self._failing_stepper(monkeypatch, SingularStepMatrix("boom"), at=30)
        code, out, err = run_cli(self.argv)
        assert len(self.forks) == 1
        assert (code, out) == (2, "")
        doc = json.loads(self.target.read_text())
        assert len(doc["rows"]) == 30
        assert doc["error"] == {"step": 30, "type": "SingularStepMatrix", "message": "boom"}

    class ClosingStream(io.StringIO):
        """A stdout whose reader goes away after ``writes`` writes."""

        def __init__(self, writes):
            super().__init__()
            self.writes = writes

        def write(self, text):
            if not self.writes:
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")
            self.writes -= 1
            return super().write(text)

    def test_failed_write_is_one_output_line(self):
        # a stream that is not the interpreter's stdout is written in process;
        # TestClosedOutput covers a closed reader of the forked child
        code, out, err = run_cli(self.ARGV, out=self.ClosingStream(3))
        assert self.forks == []
        assert (code, err) == (1, "birat: error: output: [Errno 32] Broken pipe\n")
        assert out.count("],\n[") == 2 * 8 - 1  # the header, then two blocks

    def test_formatter_that_dies_is_an_error(self, monkeypatch):
        real, parent = cli._format_block, os.getpid()

        def format_block(values, rows, *layout):  # runs in the child
            if rows and os.getpid() != parent:
                os._exit(9)
            return real(values, rows, *layout)

        monkeypatch.setattr(cli, "_format_block", format_block)
        code, out, err = run_cli(self.argv)
        assert len(self.forks) == 1
        assert (code, err) == (1, "birat: error: output: the row formatter process ended early\n")
        assert self.target.read_text().count("],\n[") == 8 - 1  # the header, then the first block


class TestClosedOutput:
    # stdout buffered as it is by default, so that a run can also end with text still
    # in the buffer, which the interpreter would flush at exit
    ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}

    @pytest.mark.parametrize("argv, lines", [
        (["--model", "lv", "--method", "lv-family", "--params", MICKENS, "--h", "0.1",
          "--steps", "20000", "--format", "json"], 1),
        (["--model", "enzyme3", "--method", "kahan", "--h", "1e-3", "--steps", "10000"], 1),
        (["--model", "lv", "--method", "kahan", "--h", "0.1", "--steps", "3"], 0),
    ], ids=["lv-family-json", "enzyme3-kahan-csv", "short-csv"])
    def test_reader_that_closes_early(self, argv, lines):
        proc = subprocess.Popen([sys.executable, "-m", "birat.cli", "integrate", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.ENV)
        for _ in range(lines):
            proc.stdout.readline()
        proc.stdout.close()
        # stderr ends only when every process holding it has exited, formatter included
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (1, b"birat: error: output: [Errno 32] Broken pipe\n")


class TestClosedStdout:
    """A process started with its descriptor 1 closed has sys.stdout None."""

    LV = ["integrate", "--model", "lv", "--method", "lv-family", "--params", MICKENS,
          "--h", "0.1", "--steps", "5000"]

    @staticmethod
    def _run(argv):
        return subprocess.run([sys.executable, "-m", "birat.cli", *argv],
                              stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))

    @pytest.mark.parametrize("argv", [
        LV, [*LV, "--output", "-"], ["classify", MICKENS], ["verify", "all"],
    ], ids=["integrate", "integrate-dash", "classify", "verify"])
    def test_output_to_stdout_is_one_error_line(self, argv):
        proc = self._run(argv)
        assert (proc.returncode, proc.stderr) == (1, b"birat: error: output: stdout is closed\n")

    def test_output_to_a_file_succeeds(self, tmp_path):
        target = tmp_path / "traj.csv"
        proc = self._run([*self.LV, "--output", str(target)])
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert target.read_text() == run_cli(self.LV)[1]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="the formatter child is forked only with two usable CPUs")
class TestFormatterChildProcess:
    """The forked formatter seen from outside, with nothing monkeypatched: a run of more
    than one block to the interpreter's stdout on two usable CPUs."""

    ARGV = [sys.executable, "-m", "birat.cli", "integrate", "--model", "lv", "--method",
            "lv-family", "--params", MICKENS, "--h", "0.1", "--format", "json"]

    def test_writes_through_the_parents_text_stream(self):
        # PYTHONIOENCODING sets the encoding of sys.stdout alone, so only a child that
        # writes through the parent's stream encodes its rows as UTF-16
        env = dict(os.environ, PYTHONIOENCODING="utf-16")
        argv = [*self.ARGV, "--steps", str(2 * driver.BLOCK)]
        cpu = min(os.sched_getaffinity(0))
        forked = subprocess.run(argv, capture_output=True, env=env)
        alone = subprocess.run(argv, capture_output=True, env=env,
                               preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        assert (forked.returncode, forked.stderr) == (alone.returncode, alone.stderr) == (0, b"")
        assert forked.stdout == alone.stdout
        assert forked.stdout.decode("utf-16").startswith('{"model": "lv"')

    @pytest.mark.parametrize("kill", [os.killpg, os.kill], ids=["group", "parent"])
    def test_interrupt_ends_both_processes(self, kill):
        # the reader stops after one line, so the child stalls on its write and the
        # parent on the pipe to the child; an interrupt from the terminal reaches both,
        # one sent to the parent alone ends the child through it
        proc = subprocess.Popen([*self.ARGV, "--steps", "200000"], stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            proc.stdout.readline()
            time.sleep(0.2)
            kill(proc.pid, signal.SIGINT)
            assert proc.wait(timeout=10) == -signal.SIGINT
            deadline = time.monotonic() + 5
            with pytest.raises(ProcessLookupError):  # no process is left in its group
                while time.monotonic() < deadline:
                    os.killpg(proc.pid, 0)
                    time.sleep(0.01)
        finally:  # if the test failed, nothing may outlive it
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            proc.stdout.close()


class TestClassify:
    def test_positive_classification(self):
        code, out, _ = run_cli(["classify", MICKENS])
        assert code == 0
        doc = json.loads(out)
        assert doc["birational_cases"] == ["iii", "vii"]
        assert doc["symplectic_cases"] == ["I"]
        assert doc["sympcon"] is True
        assert "certificate" not in doc

    def test_negative_classification_exit_3(self):
        code, out, _ = run_cli(["classify", QUARTERS])
        assert code == 3
        doc = json.loads(out)
        assert doc["birational_cases"] == []

    def test_certificate_attached(self):
        code, out, _ = run_cli(["classify", MICKENS, "--certify"])
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate"]["verdict"] == "BIRATIONAL"
        assert len(doc["certificate"]["forward_quadratic"]) == 3

    def test_malformed_rational(self):
        assert run_cli(["classify", "1/0,0,0,0,1,0,0,0,0,1"]) == (
            1, "", "birat: error: params: Fraction(1, 0)\n")

    def test_huge_exponent_rejected(self):
        params = "1e3000000,1,0,0,0,1/2,0,0,1/2,1/2"
        assert run_cli(["classify", params]) == (
            1, "", f"birat: error: params: exponent of '1e3000000' exceeds"
                   f" {MAX_DECIMAL_EXPONENT} in size\n")

    def test_wrong_count(self):
        assert run_cli(["classify", "1,2,3"]) == (
            1, "", "birat: error: params: expected 10 parameters, got 3\n")

    def test_constraint_violation_names_constraint(self):
        vals = ["1/2", "1", "0", "0", "1", "1/2", "0", "0", "1/2", "1/2"]
        assert run_cli(["classify", ",".join(vals)]) == (
            1, "", "birat: error: params: b + c + d + e = 2, expected 1\n")


class TestVerify:
    @pytest.mark.parametrize("suite", ["conservation", "symplectic", "roundtrip",
                                       "multipliers"])
    def test_suites_pass(self, suite):
        code, out, _ = run_cli(["verify", suite])
        assert code == 0
        doc = json.loads(out)
        assert doc["suite"] == suite
        assert doc["passed"] is True
        assert all(c["passed"] for c in doc["checks"])

    def test_convergence_suite(self):
        code, out, _ = run_cli(["verify", "convergence"])
        assert code == 0
        doc = json.loads(out)
        by_name = {c["name"]: c["value"] for c in doc["checks"]}
        assert 1.8 <= by_name["kahan-order"] <= 2.2
        assert 0.8 <= by_name["euler-order"] <= 1.2

    def test_parser_names_the_suites(self):
        assert cli.SUITE_NAMES == tuple(verify.SUITES)

    def test_unknown_suite(self):
        code, _, err = run_cli(["verify", "cohomology"])
        assert code == 1
        assert "unknown suite" in err

    def test_all_matches_in_process_run(self):
        code, out, _ = run_cli(["verify", "all", "--seed", "7"])
        checks = [c for name in verify.SUITES for c in verify.SUITES[name](7, 1e-9)]
        expected = json.dumps({"suite": "all", "seed": 7, "tol": 1e-9, "checks": checks,
                               "passed": all(c["passed"] for c in checks)}, indent=2)
        assert code == 0
        assert out == expected + "\n"
        assert '"tol": 1e-09,' in out

    @fork_only
    def test_worker_error_exits_2(self, monkeypatch):
        monkeypatch.setitem(verify.SUITES, "roundtrip", singular_suite)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)  # the pool path, even on one CPU
        code, out, err = run_cli(["verify", "all"])
        assert code == 2
        assert out == ""
        assert err == "birat: SingularStepMatrix: boom\n"
        assert multiprocessing.active_children() == []

    def test_roundtrip_step_failure_exits_2(self, monkeypatch):
        def singular(vf, x, h):
            raise SingularStepMatrix("boom")

        monkeypatch.setattr(verify, "kahan_step", singular)
        code, out, err = run_cli(["verify", "roundtrip"])
        assert code == 2
        assert out == ""
        assert err == "birat: SingularStepMatrix: boom\n"

    @staticmethod
    def _pid_suites(names, pause):
        return {name: functools.partial(pid_suite, name, pause) for name in names}

    @fork_only
    def test_suites_come_back_in_order_from_workers(self, monkeypatch):
        monkeypatch.setattr(verify, "SUITES", self._pid_suites(["c", "a", "b"], 0.2))
        code, out, _ = run_cli(["verify", "all"])
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [c["name"] for c in checks] == ["c", "a", "b"]
        assert multiprocessing.active_children() == []  # the pool is shut down
        if cli._usable_cpus() >= 2:
            pids = {c["value"] for c in checks}
            assert len(pids) >= 2
            assert os.getpid() not in pids

    @staticmethod
    def _forbid_pool(monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("expected an in-process run, not a worker pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)

    def test_single_suite_starts_no_worker(self, monkeypatch):
        self._forbid_pool(monkeypatch)
        code, out, _ = run_cli(["verify", "symplectic"])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_one_usable_cpu_runs_in_process(self, monkeypatch):
        self._forbid_pool(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(verify, "SUITES", self._pid_suites(["a", "b"], 0))
        code, out, _ = run_cli(["verify", "all"])
        assert code == 0
        assert [c["value"] for c in json.loads(out)["checks"]] == [os.getpid()] * 2

    def test_tol_takes_rationals(self):
        code, out, _ = run_cli(["verify", "roundtrip", "--tol", "1/2"])
        assert code == 0
        assert '"tol": 0.5,' in out

    def test_unparsable_tol_named(self):
        code, out, err = run_cli(["verify", "roundtrip", "--tol", "tight"])
        assert code == 1
        assert out == ""
        assert "error: tol: cannot parse 'tight' as a number" in err

    def test_tol_must_be_nonnegative(self):
        assert run_cli(["verify", "roundtrip", "--tol", "-1"]) == (
            1, "", "birat: error: tol: must be nonnegative\n")
        code, out, _ = run_cli(["verify", "symplectic", "--tol", "0"])
        assert code in (0, 2)  # a report, not a configuration error
        assert json.loads(out)["tol"] == 0.0

    @pytest.mark.parametrize("suite", ["roundtrip", "all"])
    def test_negative_seed_is_config_error(self, suite, monkeypatch):
        proc = subprocess.run([sys.executable, "-m", "birat.cli", "verify", suite,
                               "--seed", "-1"], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("birat: error: seed: ")
        # on the pool path too, the seed is refused before any worker starts,
        # and so is a seed that is no integer
        self._forbid_pool(monkeypatch)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        code, out, err = run_cli(["verify", suite, "--seed", "-1"])
        assert (code, out) == (1, "")
        assert err.startswith("birat: error: seed: ")
        assert run_cli(["verify", suite, "--seed", "x"]) == (
            1, "", "birat: error: seed: expected an integer, got 'x'\n")
        assert multiprocessing.active_children() == []


class TestConfigFile:
    def test_config_alone(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "lv", "method": "kahan",
                                   "h": 0.1, "steps": 3, "x0": [1.0, 1.0]}))
        code, out, _ = run_cli(["integrate", "--config", str(cfg)])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[1].split(",")[1] == "1"

    @pytest.mark.parametrize("field, text", [("x0", "[NaN, 1.0]"), ("h", "NaN")], ids=["x0", "h"])
    def test_non_finite_number_rejected(self, tmp_path, field, text):
        run = {"model": "lv", "method": "kahan", "h": 0.1, "steps": 3, field: None}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(run).replace("null", text))
        assert run_cli(["integrate", "--config", str(cfg)]) == (
            1, "", f"birat: error: {field}: must be finite\n")

    def test_rational_x0_string(self, tmp_path):
        outs = []
        for x0 in (["1/2", 1], [0.5, 1]):
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"model": "lv", "method": "kahan",
                                       "h": 0.1, "steps": 3, "x0": x0}))
            code, out, _ = run_cli(["integrate", "--config", str(cfg)])
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[1] == "0,0.5,1"

    def test_unparsable_tol_named(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "lv", "method": "kahan",
                                   "h": 0.1, "steps": 3, "tol": "tight"}))
        code, out, err = run_cli(["integrate", "--config", str(cfg)])
        assert code == 1
        assert out == ""
        assert "error: tol: cannot parse 'tight' as a number" in err

    @pytest.mark.parametrize("steps", [2.7, True, "ten"])
    def test_non_integral_steps_rejected(self, tmp_path, steps):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "lv", "method": "kahan",
                                   "h": 0.01, "steps": steps}))
        code, out, err = run_cli(["integrate", "--config", str(cfg)])
        assert code == 1
        assert out == ""
        assert f"error: steps: expected an integer, got {steps!r}" in err

    def test_integral_steps_accepted(self, tmp_path):
        outs = []
        for steps in (3, 3.0, "3"):
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"model": "lv", "method": "kahan",
                                       "h": 0.1, "steps": steps}))
            code, out, _ = run_cli(["integrate", "--config", str(cfg)])
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]
        assert len(outs[0].splitlines()) == 5

    def test_tol_flag_takes_rationals(self):
        argv = ["integrate", "--model", "lv", "--method", "lv-family", "--params",
                MICKENS, "--h", "0.1", "--steps", "5"]
        code_rat, out_rat, _ = run_cli(argv + ["--tol", "1/1000000000"])
        code_dec, out_dec, _ = run_cli(argv + ["--tol", "1e-9"])
        assert code_rat == code_dec == 0
        assert out_rat == out_dec

    def test_out_of_range_integer_named(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "lv", "method": "kahan", "h": 0.1, "steps": 2,
                                   "x0": [10 ** 400, 1]}))
        code, out, err = run_cli(["integrate", "--config", str(cfg)])
        assert (code, out) == (1, "")
        assert err == f"birat: error: x0: '{10 ** 400}' is beyond the float range\n"

    @pytest.mark.parametrize("field, value", [("h", "1e-3000000"), ("x0", ["1e3000000", 1]),
                                              ("tol", "1e20000")])
    def test_huge_exponent_string_rejected(self, tmp_path, field, value):
        run = {"model": "lv", "method": "kahan", "h": 0.1, "steps": 2, field: value}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(run))
        code, out, err = run_cli(["integrate", "--config", str(cfg)])
        token = value[0] if isinstance(value, list) else value
        assert (code, out) == (1, "")
        assert err == f"birat: error: {field}: cannot parse {token!r} as a number\n"

    def test_over_long_integer_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"model": "lv", "method": "kahan", "h": 0.1, "steps": 2,'
                       ' "x0": [' + "1" * 5000 + ', 1]}')
        code, out, err = run_cli(["integrate", "--config", str(cfg)])
        assert (code, out) == (1, "")
        # the limit on integer digits (4300 by default) is a ValueError inside json.load
        assert err.startswith("birat: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text, kind", [("[1, 2]", "list"), ('"lv"', "str")],
                             ids=["list", "string"])
    def test_config_not_an_object_rejected(self, tmp_path, text, kind):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        code, out, err = run_cli(["integrate", "--config", str(cfg)])
        assert (code, out) == (1, "")
        assert err == f"birat: error: config: expected a JSON object, got {kind}\n"

    @pytest.mark.parametrize("params", [[0.1, 0.2, 0.3], 0.5], ids=["list", "number"])
    def test_params_of_wrong_type_rejected(self, tmp_path, params):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "enzyme3", "method": "kahan",
                                   "h": 0.001, "steps": 2, "params": params}))
        code, out, err = run_cli(["integrate", "--config", str(cfg)])
        assert (code, out) == (1, "")
        assert err == ("birat: error: params: expected key=value text or an object,"
                       f" got {params!r}\n")

    @pytest.mark.parametrize("params", [1, True, 1e-300, {"a": 1}],
                             ids=["int", "bool", "float", "object"])
    def test_lv_family_params_of_wrong_type_rejected(self, tmp_path, params):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "lv", "method": "lv-family",
                                   "h": 0.1, "steps": 2, "params": params}))
        code, out, err = run_cli(["integrate", "--config", str(cfg)])
        assert (code, out) == (1, "")
        assert err == ("birat: error: params: expected 10 comma-separated rationals"
                       f" or a list, got {params!r}\n")

    @pytest.mark.parametrize("field, value", [
        ("model", ["lv"]), ("method", ["kahan"]), ("output", True), ("output", 1),
        ("h", True), ("params", {"mu": True, "nu": 0.6, "eps": 0.1})])
    def test_value_of_wrong_type_rejected(self, tmp_path, field, value):
        # a bool or int output would be taken as a file descriptor: run in a child
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "enzyme3", "method": "kahan", "h": 1e-3,
                                   "steps": 3, field: value}))
        proc = subprocess.run([sys.executable, "-m", "birat.cli", "integrate",
                               "--config", str(cfg)], capture_output=True, text=True)
        message = {"model": f"model: expected one of {sorted(MODELS)}, got ['lv']",
                   "method": "method: expected a string, got ['kahan']",
                   "output": f"output: expected a file name, got {value!r}",
                   "h": "h: expected a number, got True",
                   "params": "params.mu: expected a number, got True"}[field]
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", f"birat: error: {message}\n")

    def test_tol_must_be_nonnegative(self, tmp_path):
        argv = ["integrate", "--model", "lv", "--method", "lv-family", "--params", MICKENS,
                "--h", "0.1", "--steps", "5"]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tol": -1e-9}))
        for extra in (["--tol", "-1"], ["--tol=-1/3"], ["--config", str(cfg)]):
            assert run_cli(argv + extra) == (1, "", "birat: error: tol: must be nonnegative\n")
        # KAHAN_SCHEME is exact, so it runs at tol 0
        code, out, _ = run_cli(["integrate", "--model", "lv", "--method", "lv-family",
                                "--params", "1/2,0,0,1/2,1/2,1/2,0,0,1/2,1/2",
                                "--h", "0.1", "--steps", "5", "--tol", "0"])
        assert code == 0
        assert len(out.splitlines()) == 7

    def test_tol_must_be_finite(self, tmp_path):
        run = ('{"model": "lv", "method": "lv-family", "params": "%s", "h": 0.1,'
               ' "steps": 5, "tol": %s}')
        cfg = tmp_path / "run.json"
        for tol in ("Infinity", "-Infinity", "NaN"):
            cfg.write_text(run % (MICKENS, tol))
            assert run_cli(["integrate", "--config", str(cfg)]) == (
                1, "", "birat: error: tol: must be finite\n")
        assert run_cli(["integrate", "--model", "lv", "--method", "lv-family", "--params",
                        MICKENS, "--h", "0.1", "--steps", "5", "--tol", "inf"]) == (
            1, "", "birat: error: tol: cannot parse 'inf' as a number\n")

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "lv", "method": "kahan",
                                   "h": 0.1, "steps": 3}))
        code, out, _ = run_cli(["integrate", "--config", str(cfg), "--steps", "6"])
        assert code == 0
        assert len(out.splitlines()) == 8


class TestScipyNotLoaded:
    """scipy loads at the first step-matrix solve, not at ``import birat``, and
    the solve loads LAPACK without ``scipy.linalg``.  numpy loads only on the
    paths that work on arrays: not for ``import birat``, ``integrate --method
    lv-family`` or ``classify``."""

    @staticmethod
    def _loaded_modules(argv, package="scipy", cpus=None):
        """(exit code, modules loaded of ``package``, one or more space-separated package
        names) after ``main(argv)`` in a fresh interpreter, where ``cpus``, if given, is
        what cli._usable_cpus() returns."""
        code = ("import contextlib, io, sys\n"
                "import birat\n"
                "from birat import cli\n"
                "from birat.cli import main\n"
                + ("" if cpus is None else f"cli._usable_cpus = lambda: {cpus}\n") +
                f"argv = {argv!r}\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    rc = main(argv) if argv else 0\n"
                f"print(rc, sorted(m for m in sys.modules\n"
                f"                 if m.split('.')[0] in {package.split()!r}))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        rc, modules = proc.stdout.split(" ", 1)
        return int(rc), ast.literal_eval(modules)

    @pytest.mark.parametrize("argv", [
        [],
        ["classify", MICKENS, "--certify"],
        ["integrate", "--model", "lv", "--method", "lv-family", "--params", MICKENS,
         "--h", "0.1", "--steps", "5"],
    ], ids=["import", "classify-certify", "integrate-lv-family"])
    def test_scipy_absent(self, argv):
        assert self._loaded_modules(argv) == (0, [])

    @pytest.mark.parametrize("argv", [
        [],
        ["classify", MICKENS, "--certify"],
        ["integrate", "--model", "lv", "--method", "lv-family", "--params", MICKENS,
         "--h", "0.1", "--steps", "5"],
        ["integrate", "--model", "schnakenberg", "--method", "schnakenberg", "--h", "0.1",
         "--steps", "5"],
    ], ids=["import", "classify-certify", "integrate-lv-family", "integrate-schnakenberg"])
    def test_numpy_absent(self, argv):
        assert self._loaded_modules(argv, "numpy") == (0, [])

    @pytest.mark.parametrize("argv", [
        ["integrate", "--model", "lv", "--method", "euler", "--h", "0.1", "--steps", "5"],
        ["verify", "symplectic"],
    ], ids=["integrate-euler", "verify"])
    def test_numpy_loaded_where_floats_are_arrays(self, argv):
        rc, modules = self._loaded_modules(argv, "numpy")
        assert rc == 0
        assert "numpy" in modules

    def test_forked_formatter_loads_no_numpy_or_pool(self, tmp_path):
        # a run of two blocks to a file on two CPUs formats in a forked child
        steps = str(driver.BLOCK)
        assert self._loaded_modules(
            ["integrate", "--model", "lv", "--method", "lv-family", "--params", MICKENS,
             "--h", "0.1", "--steps", steps, "--output", str(tmp_path / "traj.csv")],
            "numpy multiprocessing concurrent", cpus=2) == (0, [])

    def test_kahan_integrate_leaves_scipy_linalg_out(self):
        rc, modules = self._loaded_modules(["integrate", "--model", "enzyme3", "--method",
                                           "kahan", "--h", "1e-3", "--steps", "5"])
        assert rc == 0
        assert "scipy" in modules
        assert not [m for m in modules if m.startswith("scipy.linalg")]


class TestSubprocessLogging:
    def _run(self, extra_env, h="0.1"):
        env = dict(os.environ, **extra_env)
        return subprocess.run(
            [sys.executable, "-m", "birat.cli", "integrate", "--model", "enzyme3",
             "--method", "kahan", "--h", h, "--steps", "2"],
            capture_output=True, text=True, env=env)

    def test_warns_when_h_exceeds_eps(self):
        proc = self._run({})
        assert proc.returncode == 0
        assert "underresolved" in proc.stderr

    def test_warns_when_backward_h_exceeds_eps(self):
        proc = self._run({}, h="-0.1")
        assert proc.returncode == 0
        assert proc.stderr == ("WARNING birat.cli: |h|=0.1 exceeds eps=0.01;"
                               " the fast transient will be underresolved\n")

    def test_forward_warning_text(self):
        proc = self._run({})
        assert proc.stderr == ("WARNING birat.cli: h=0.1 exceeds eps=0.01;"
                               " the fast transient will be underresolved\n")

    def test_backward_h_within_eps_is_quiet(self):
        proc = self._run({}, h="-0.001")
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_log_level_gates_warning(self):
        proc = self._run({"BIRAT_LOG": "ERROR"})
        assert proc.returncode == 0
        assert proc.stderr == ""


class TestInProcessLogging:
    ARGV = ["integrate", "--model", "enzyme3", "--method", "kahan", "--h", "0.1", "--steps", "2"]
    MESSAGE = "h=0.1 exceeds eps=0.01; the fast transient will be underresolved"
    WARNING = f"WARNING birat.cli: {MESSAGE}\n"

    def test_each_run_logs_to_the_stderr_current_at_that_run(self, caplog):
        root = logging.getLogger()
        installed = list(root.handlers)
        for _ in range(2):  # each run under its own redirect_stderr
            code, _, err = run_cli(self.ARGV)
            assert (code, err) == (0, self.WARNING)
        # the handlers others installed (pytest's among them) stay and see the records
        assert root.handlers == installed
        assert [r.getMessage() for r in caplog.records].count(self.MESSAGE) == 2
        assert len(logging.getLogger("birat").handlers) == 1

    def test_log_level_read_at_each_run(self, monkeypatch):
        monkeypatch.setenv("BIRAT_LOG", "ERROR")
        assert run_cli(self.ARGV)[::2] == (0, "")
        monkeypatch.setenv("BIRAT_LOG", "WARNING")
        assert run_cli(self.ARGV)[::2] == (0, self.WARNING)

    @pytest.mark.parametrize("value", ["basic_format", "chatty", ""])
    def test_unknown_level_name_means_warning(self, value, monkeypatch):
        # BASIC_FORMAT is a logging attribute but no level
        monkeypatch.setenv("BIRAT_LOG", value)
        assert run_cli(self.ARGV)[::2] == (0, self.WARNING)


class TestLVFamilyGoldenBytes:
    """sha256 of ``integrate --method lv-family`` output over 5,000 steps, more than
    one driver.BLOCK of states, from the default x0: a change to the bits of the lv step
    shows here."""

    SHA256 = {
        ("KAHAN", "csv", "0.1"): "8578e70b3b0429ab9cd941d8611b750a0a13d773748b036a80953bf1fd6f9d7c",
        ("KAHAN", "csv", "-0.1"): "b073d3d996cf81b8e7ddded65e0a0461e230590ec2f9f9798087b639c0f5e0c7",
        ("KAHAN", "json", "0.1"): "a15f26c3ca3a637bfb7b741e977812b6ebb8bfa7b80ad320aeaf1b1736945250",
        ("KAHAN", "json", "-0.1"): "db3fc58bae205d7543c5de0c9260babbddb9ebd26ebf6e147bd38e5eb47fc4e0",
        ("MICKENS", "csv", "0.1"): "721b2f8e4015a17d23c778c6aed969a5951ca84c1a0ab6d83e6aefeaf87d47f7",
        ("MICKENS", "csv", "-0.1"): "a3f3039cc916058ad35066e1535510a4cc3b46e79c07d3659f8df17fe00fedc9",
        ("MICKENS", "json", "0.1"): "ac9718678184f0bc4f5ecf8fe429fe1e20dc73132e2733cab02871b7629ac329",
        ("MICKENS", "json", "-0.1"): "4822502b292c63d7accd802f77c3b616db98a4a5c11e67002aabb3bc4bc67d1d",
        ("CASE_VI", "csv", "0.1"): "70e74a1df814157b363685c60dc9ee7fed5b5f492bb6644beaddf8a2f079ac55",
        ("CASE_VI", "csv", "-0.1"): "67c0d063bb0c201d0e9813c6df9229a14c594daa2f590aa8ef87ed17fe7c6977",
        ("CASE_VI", "json", "0.1"): "33fdcd9e0b8ed815095627e005b16740323ef0981abca44eef9347d5ed80f97c",
        ("CASE_VI", "json", "-0.1"): "0715ef0d8922f3f05cda7d1035bcaee6e1b6793ca927c4195504f7984daefe22",
    }
    PARAMS = {"KAHAN": KAHAN, "MICKENS": MICKENS, "CASE_VI": CASE_VI}

    @pytest.mark.parametrize("scheme, fmt, h", list(SHA256), ids="-".join)
    def test_output_bytes_pinned(self, scheme, fmt, h, monkeypatch, tmp_path):
        steps = 5000
        assert steps > driver.BLOCK
        target = tmp_path / "traj"
        # formatted in process to stdout, then in a forked child to a file
        for cpus, output in ((1, []), (2, ["--output", str(target)])):
            forks = on_cpus(monkeypatch, cpus)
            code, out, err = run_cli(["integrate", "--model", "lv", "--method", "lv-family",
                                      "--params", self.PARAMS[scheme], "--h", h,
                                      "--steps", str(steps), "--format", fmt, *output])
            assert len(forks) == cpus - 1
            assert (code, err) == (0, "")
            text = target.read_text() if output else out
            assert hashlib.sha256(text.encode()).hexdigest() == self.SHA256[scheme, fmt, h]
            assert_no_child_left()


# -- the CLI contract as one property ------------------------------------------------

FORWARD_ONLY = "1/2,1/2,0,0,1/2,1/2,1/2,0,1/2,0"  # a forward order, none for its inverse

# Flag texts a run can succeed with (GOOD) and near misses (BAD).  x0 and params
# depend on the model, and params on the method too.
_GOOD = {
    "pair": [("enzyme3", "kahan"), ("enzyme4", "kahan"), ("lv", "kahan"),
             ("lv", "kahan-series:2"), ("lv", "euler"), ("lv", "lv-family"),
             ("schnakenberg", "schnakenberg"), ("schnakenberg", "euler")],
    "h": ["0.1", "-0.01", "1e-3", "1/8", "3", "1e300"],
    "steps": ["1", "7", "50"],
    "output": ["-", "a"],
    "format": ["csv", "json"],
    "tol": ["1e-9", "0", "1/2", "1e300"],
    "lv-family": [MICKENS, KAHAN, CASE_VI, FORWARD_ONLY],
    "enzyme3": ["mu=0.5", "mu=0.7,nu=0.6,eps=0.1"],
    "enzyme4": ["k1=2,km1=0.3,k2=0.4"],
    "schnakenberg": ["a=0.2,b=0.6"],
    "lv": [""],
}
_BAD = {
    "pair": [("schnakenberg", "kahan"), ("lotka", "kahan"), ("lv", "rk4"),
             ("enzyme3", "kahan-series:-1")],
    "h": ["0", "1e400", "1e3000000", "x"],
    "steps": ["0", "-1", "2.5"],
    "output": [".", ""],
    "format": ["xml"],
    "tol": ["-1", "inf", "nan", "tight"],
    "x0": ["1e400,1", "nan,1", "1,2,3,4,5"],
    "lv-family": [QUARTERS, "1/4", "1,0,0,0,0,0,0,0,0,0"],
    "enzyme3": ["nu=1e400", "foo=1"],
    "enzyme4": ["k1=-1,km1=0.5,k2=0.1"],
    "schnakenberg": ["a=0.2"],
    "lv": ["a=1"],
}
CLASSIFY_HUGE = "1e3000000,1,0,0,0,1/2,0,0,1/2,1/2"
_X0 = {"enzyme3": "1,0.2,0", "enzyme4": "1,0.01,0,0", "lv": "2,0.5", "schnakenberg": "0.6,1.4"}
# One JSON value of each type.  Integers stay below 51 and texts are two characters
# of an alphabet with no "/", so no draw runs more than 50 steps and an output name
# stays inside the run's directory.
_SCALAR = (st.none() | st.booleans() | st.integers(-3, 50) | st.floats(max_value=50)
           | st.just(math.inf) | st.text(alphabet="ab.-1e, ", max_size=2))
_ANY_JSON = (_SCALAR | st.lists(_SCALAR, max_size=3)
             | st.dictionaries(st.text(alphabet="ab", max_size=2), _SCALAR, max_size=2))


def _as_number(text):
    """text as a JSON number where float() reads it ("inf" and "nan" included), else text."""
    try:
        value = float(text)
    except ValueError:
        return text
    return int(value) if value.is_integer() else value


@st.composite
def _integrate_runs(draw):
    """argv and config-file object of one integrate run.

    At least half the draws spoil nothing, the others up to two of: the (model, method)
    pair, a key's text, a config value (any JSON value) and the whole config file
    (any JSON value).  Each key goes to a flag, to the config file or to both; a
    config value is the flag text, its number or, for x0 and params, a list.
    """
    keys = ["pair", "h", "steps", "params", "x0", "output", "format", "tol", "config"]
    spoiled = draw(st.sets(st.sampled_from(keys), min_size=0, max_size=2)
                   if draw(st.booleans()) else st.just(set()))

    def pick(key, group=None):
        return draw(st.sampled_from((_BAD if key in spoiled else _GOOD)[group or key]))

    model, method = pick("pair")
    run = {"model": model, "method": method, "h": pick("h"), "steps": pick("steps")}
    if method == "lv-family" or "params" in spoiled or draw(st.booleans()):
        run["params"] = pick("params", "lv-family" if method == "lv-family"
                             else model if model in _GOOD else "lv")
    if "x0" in spoiled or draw(st.booleans()):
        run["x0"] = _X0.get(model, "2,0.5") if "x0" not in spoiled else pick("x0")
    for key in ("output", "format", "tol"):
        if key in spoiled or draw(st.booleans()):
            run[key] = pick(key)
    argv, config = ["integrate"], {}
    for key, text in run.items():
        where = draw(st.sampled_from(["flag", "config", "both"]))
        if where != "config":
            argv.append(f"--{key}={text}")
        if where != "flag":
            forms = [text, _as_number(text)]
            if key in ("params", "x0"):
                forms.append([_as_number(t) for t in text.split(",")])
            config[key] = draw(st.sampled_from(forms))
    if config and "config" in spoiled:
        if draw(st.booleans()):
            config = draw(_ANY_JSON)
        else:
            key = draw(st.sampled_from(sorted(config)))
            config[key] = draw(_ANY_JSON.filter(lambda v: key != "output" or not isinstance(v, str)))
    if config == {}:
        return argv, None
    return [*argv, "--config=cfg.json"], config


def _run_in_fresh_dir(argv, config_text):
    """main(argv) in a new working directory, with cfg.json written there first;
    also returns every other file the run left there."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            if config_text is not None:
                Path("cfg.json").write_text(config_text)
            code, out, err = run_cli(argv)
            files = {p.name: p.read_text() for p in Path().iterdir() if p.name != "cfg.json"}
        finally:
            os.chdir(home)
    return code, out, err, files


def _assert_contract(argv, config_text=None):
    first = _run_in_fresh_dir(argv, config_text)
    assert _run_in_fresh_dir(argv, config_text) == first
    code, out, err, files = first
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert (out, files) == ("", {})
        lines = [line for line in err.splitlines() if not line.startswith("WARNING ")]
        assert len(lines) == 1
        assert re.fullmatch(r"birat: error: [\w.]+: .+", lines[0])
    elif argv[0] == "integrate":
        text = out or "".join(files.values())
        if text.startswith("{"):
            rows = json.loads(text)["rows"]
        else:
            rows = [line.split(",") for line in text.splitlines()[1:]]
        assert all(math.isfinite(float(v)) for row in rows for v in row)
    else:
        assert not re.search(r"\b(NaN|Infinity)\b", out)


class TestCliContract:
    """Every run ends in a known exit code, each exit 1 in one config-error line,
    no successful or partial run prints a non-finite row, and a run repeats byte
    for byte.  Guards the config holes mended one at a time by hand."""

    @settings(max_examples=80, deadline=None)
    @given(_integrate_runs())
    def test_integrate(self, run):
        argv, config = run
        _assert_contract(argv, None if config is None else json.dumps(config))

    @settings(max_examples=5, deadline=None)
    @given(suite=st.sampled_from([*cli.SUITE_NAMES, "all", "cohomology"]),
           seed=st.none() | st.integers(-2, 40).map(str) | st.just("x"),
           tol=st.none() | st.sampled_from(_GOOD["tol"] + _BAD["tol"]))
    def test_verify(self, suite, seed, tol):
        argv = ["verify", suite, *([] if seed is None else [f"--seed={seed}"]),
                *([] if tol is None else [f"--tol={tol}"])]
        _assert_contract(argv)

    @settings(max_examples=30, deadline=None)
    @given(params=st.sampled_from(_GOOD["lv-family"] + _BAD["lv-family"]
                                  + [CLASSIFY_HUGE, "1/0,0,0,0,1,0,0,0,0,1", "x", ""]),
           certify=st.booleans())
    def test_classify(self, params, certify):
        _assert_contract(["classify", params, *(["--certify"] if certify else [])])
