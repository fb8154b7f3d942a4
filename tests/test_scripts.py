"""Smoke runs of the example scripts at small sizes."""
import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def data_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[1:]


@pytest.fixture(autouse=True)
def in_tmp_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def test_enzyme_transient(capsys):
    assert load("enzyme_transient").main(["--t-end", "40"]) == 0
    assert len(data_rows("enzyme_transient.csv")) == 40_000 + 1
    assert "relative drift of x + eps*y + z" in capsys.readouterr().out


def test_lv_scheme_comparison(capsys):
    module = load("lv_scheme_comparison")
    assert module.main(["--steps", "2000"]) == 0
    for name in module.SCHEMES:
        assert len(data_rows(f"lv_{name}.csv")) == 2000 + 1
    assert "verdict" in capsys.readouterr().out


def test_schnakenberg_limit_cycle(capsys):
    assert load("schnakenberg_limit_cycle").main(["--steps", "20000"]) == 0
    assert len(data_rows("schnakenberg_cycle.csv")) == 20_000 + 1
    assert "returns through x = x*" in capsys.readouterr().out
