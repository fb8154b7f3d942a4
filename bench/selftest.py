"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload at tiny size with and without tracing, and checks that
each run is correct and emits exactly the metrics named in BENCHMARK.json.
Checks that corrupted outputs trip every gate, and that the benchmark exits
non-zero without printing a result when the sources are missing.  Exits 0
when every check holds, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys

import run_bench
from run_bench import ROOT, WORK
from workloads import CLI_GATES, WORKLOADS, build_inputs, gate_certificate


def check_runs(failures: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            result = run_bench.run(workload, seed=1, seconds=0.5, trace=bool(trace),
                                   tiny=True)["result"]
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                failures.append(f"{tag}: not correct: {result['attempted']} attempted,"
                                f" {result['failed']} failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                failures.append(f"{tag}: metrics differ from BENCHMARK.json:"
                                f" missing {sorted(set(expected[trace]) - set(got))},"
                                f" extra {sorted(set(got) - set(expected[trace]))},"
                                f" or units differ")
            for name, m in result["metrics"].items():
                value = m["value"]
                if not (isinstance(value, (int, float)) and math.isfinite(value)):
                    failures.append(f"{tag}: {name} = {value!r} is not a finite number")
                elif trace == 0 and value <= 0:
                    failures.append(f"{tag}: end-to-end metric {name} = {value!r} is not positive")
            print(f"ok  {tag}", flush=True)


def _shift_last(row: str, delta: float) -> str:
    """A CSV or JSON row with its last number moved by ``delta``."""
    head, _, last = row.rpartition(",")
    return f"{head},{float(last) + delta!r}"


def _replace_line(text: str, index: int, edit) -> str:
    lines = text.split("\n")
    lines[index] = edit(lines[index])
    return "\n".join(lines)


def check_gates(failures: list[str]) -> None:
    cli = run_bench.import_birat()
    out = WORK / "selftest.out"

    def must_trip(what: str, problems: list[str]) -> None:
        if not problems:
            failures.append(f"gate did not trip: {what}")

    good = {}
    for workload in CLI_GATES:
        inputs = build_inputs(workload, 1, tiny=True)
        problems, _ = run_bench.cli_inprocess(cli, workload, inputs, out)
        if problems:
            failures.append(f"{workload}: clean output tripped the gate: {problems}")
        good[workload] = (inputs, out.read_text())

    inputs, text = good["integrate-kahan"]
    gate = CLI_GATES["integrate-kahan"]
    must_trip("kahan CSV with a non-finite row",
              gate(inputs, _replace_line(text, 6, lambda r: r.rsplit(",", 1)[0] + ",nan")))
    must_trip("kahan CSV with a wrong time stamp",
              gate(inputs, _replace_line(text, 6, lambda r: "0.5" + r[r.index(","):])))
    must_trip("kahan CSV with a drifted linear integral",
              gate(inputs, _replace_line(text, 6, lambda r: _shift_last(r, 1e-6))))
    must_trip("kahan CSV missing its last row", gate(inputs, text.rstrip("\n").rsplit("\n", 1)[0]))

    inputs, text = good["integrate-lvfamily"]
    gate = CLI_GATES["integrate-lvfamily"]
    must_trip("lv JSON with a non-finite value",
              gate(inputs, _replace_line(text, 6, lambda r: r.rstrip("],").rpartition(",")[0]
                                         + ", nan],")))
    must_trip("lv JSON with a state off its step relation",
              gate(inputs, _replace_line(text, 6, lambda r: _shift_last(r.rstrip("],"), 1e-9)
                                         + "],")))

    inputs, text = good["verify"]
    must_trip("verify report that did not pass",
              CLI_GATES["verify"](inputs, text.replace('"passed": true\n}', '"passed": false\n}')))

    broken = dict(good["integrate-kahan"][0])
    broken["argv"] = [a if a != "kahan" else "no-such-method" for a in broken["argv"]]
    with contextlib.redirect_stderr(io.StringIO()):  # the CLI's own usage error
        problems, _ = run_bench.cli_inprocess(cli, "integrate-kahan", broken, out)
    must_trip("CLI invocation with a non-zero exit", problems)

    from birat.lvfamily import classify_params

    members = build_inputs("certify", 1, tiny=True)["members"]
    case_label, case_params = members[0]
    noncase = next(p for label, p in members if label is None)
    must_trip("non-case set expected as a case member",
              gate_certificate(case_label, classify_params(noncase, certify=True)))
    must_trip("case member expected as a non-case set",
              gate_certificate(None, classify_params(case_params, certify=True)))
    print("ok  corrupted outputs trip the gates", flush=True)


def check_bare_directory(failures: list[str]) -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run_bench.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append(f"without sources the benchmark exited {proc.returncode}"
                        f" and printed {proc.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without the sources", flush=True)


def main() -> int:
    WORK.mkdir(exist_ok=True)
    failures: list[str] = []
    check_runs(failures)
    check_gates(failures)
    check_bare_directory(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
