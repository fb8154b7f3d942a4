"""End-to-end command-line behavior: output formats, exit codes, suites."""
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from birat.cli import main

MICKENS = "2,0,0,0,1,0,0,-1,0,2"
QUARTERS = ",".join(["1/4"] * 10)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse-level rejections
            code = exc.code
    return code, out.getvalue(), err.getvalue()


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

    def test_series_method(self):
        code, out, _ = run_cli(["integrate", "--model", "enzyme4", "--method",
                                "kahan-series:3", "--h", "0.001", "--steps", "2"])
        assert code == 0
        assert out.splitlines()[0] == "t,s,e,c,p"


class TestIntegrateConfigErrors:
    def test_steps_must_be_positive(self):
        code, _, err = run_cli(["integrate", "--model", "lv", "--method", "kahan",
                                "--h", "0.1", "--steps", "0"])
        assert code == 1
        assert "steps" in err

    def test_unknown_model_rejected_by_parser(self):
        code, _, err = run_cli(["integrate", "--model", "pendulum", "--method",
                                "kahan", "--h", "0.1", "--steps", "1"])
        assert code == 1
        assert "invalid choice" in err

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


class TestIntegrateRuntimeFailure:
    def test_partial_csv_and_exit_2(self):
        code, out, err = run_cli(["integrate", "--model", "lv", "--method",
                                  "lv-family", "--params", QUARTERS,
                                  "--h", "0.1", "--steps", "10"])
        assert code == 2
        lines = out.splitlines()
        assert lines[0] == "t,x,y"
        assert len(lines) == 2  # the initial state was flushed before the failure
        assert "step 1" in err

    def test_json_error_trailer(self):
        code, out, _ = run_cli(["integrate", "--model", "lv", "--method",
                                "lv-family", "--params", QUARTERS,
                                "--h", "0.1", "--steps", "10", "--format", "json"])
        assert code == 2
        doc = json.loads(out)
        assert len(doc["rows"]) == 1
        assert doc["error"]["step"] == 1
        assert doc["error"]["type"]
        assert doc["error"]["message"]


class TestNonFiniteState:
    ARGV = ["integrate", "--model", "lv", "--method", "euler", "--h", "0.9",
            "--x0", "8,0.01", "--steps", "400"]

    @staticmethod
    def assert_finite_tokens(text):
        tokens = text.replace("[", ",").replace("]", ",").replace("\n", ",").split(",")
        assert not {"nan", "inf", "-inf"} & {tok.strip() for tok in tokens}

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_csv_stops_at_first_non_finite_state(self):
        code, out, err = run_cli(self.ARGV)
        assert code == 2
        self.assert_finite_tokens(out)
        assert len(out.splitlines()) == 1 + 11  # header, x0 and ten finite steps
        assert "integrate: NonFiniteState: " in err
        assert "(step 11)" in err

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_json_error_trailer(self):
        code, out, _ = run_cli(self.ARGV + ["--format", "json"])
        assert code == 2
        doc = json.loads(out)
        self.assert_finite_tokens(json.dumps(doc["rows"]))
        assert len(doc["rows"]) == 11
        assert doc["error"]["type"] == "NonFiniteState"
        assert doc["error"]["step"] == 11


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
        code, _, err = run_cli(["classify", "1/0,0,0,0,1,0,0,0,0,1"])
        assert code == 1
        assert "malformed rational" in err

    def test_wrong_count(self):
        code, _, err = run_cli(["classify", "1,2,3"])
        assert code == 1

    def test_constraint_violation_names_constraint(self):
        vals = ["1/2", "1", "0", "0", "1", "1/2", "0", "0", "1/2", "1/2"]
        code, _, err = run_cli(["classify", ",".join(vals)])
        assert code == 1
        assert "b + c + d + e" in err


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

    def test_unknown_suite(self):
        code, _, err = run_cli(["verify", "cohomology"])
        assert code == 1
        assert "unknown suite" in err


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

    def test_non_finite_x0_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"model": "lv", "method": "kahan", "h": 0.1, "steps": 3,'
                       ' "x0": [NaN, 1.0]}')
        code, out, err = run_cli(["integrate", "--config", str(cfg)])
        assert code == 1
        assert out == ""
        assert "x0" in err

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "lv", "method": "kahan",
                                   "h": 0.1, "steps": 3}))
        code, out, _ = run_cli(["integrate", "--config", str(cfg), "--steps", "6"])
        assert code == 0
        assert len(out.splitlines()) == 8


class TestSubprocessLogging:
    def _run(self, extra_env):
        env = dict(os.environ, **extra_env)
        return subprocess.run(
            [sys.executable, "-m", "birat.cli", "integrate", "--model", "enzyme3",
             "--method", "kahan", "--h", "0.1", "--steps", "2"],
            capture_output=True, text=True, env=env)

    def test_warns_when_h_exceeds_eps(self):
        proc = self._run({})
        assert proc.returncode == 0
        assert "underresolved" in proc.stderr

    def test_log_level_gates_warning(self):
        proc = self._run({"BIRAT_LOG": "ERROR"})
        assert proc.returncode == 0
        assert proc.stderr == ""
