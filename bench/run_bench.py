"""birat benchmark: one workload per run, end-to-end metrics or a traced run.

    python3 bench/run_bench.py --workload integrate-kahan --seed 1 --seconds 20 --trace 0

The seed generates the workload's inputs; the program sees only those
inputs.  Every operation's output passes a correctness gate.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced in-process run with ``--trace 1``.  The line
before it is the full report (machine, versions, revision, samples, output
hashes, gate problems), which is also written to ``.bench_work/``.

Load comes from this one process and at most one child process at a time.
Metric definitions and the layer-to-end-to-end mapping are in README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

from workloads import CLI_GATES, WORKLOADS, build_inputs, gate_certificate  # noqa: E402

BLAS_THREADS = 1  # per child; one child runs at a time, so load stays within nproc
SETUP_REPS = 5
IMPORTTIME_REPS = 3
CHILD_TIMEOUT_S = 120.0
# ROADMAP baseline per call in microseconds (scratch-copy measurements) and
# the factor the traced figure may differ by once tracing overhead is removed
BASELINE_US = {
    "quadvf.evaluate": (8.0, 8.8),
    "kahan.kahan_step": (43.0, 56.0),
    "lvfamily.lv_step": (2.3, 2.4),
    "lvfamily.symbolic_certificate": (5000.0, 5100.0),
}
BASELINE_FACTOR = 3.0
PROBLEMS_KEPT = 10
SAMPLES_KEPT = 50


def child_env(*extra_path: Path) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (SRC, *extra_path))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["BIRAT_LOG"] = "WARNING"
    return env


def run_child(cmd: list[str], env: dict, stdout_path: Path, stderr_path: Path):
    """Run one child to completion; (exit code, wall s, peak RSS in KiB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    return proc.returncode, wall, usage.ru_maxrss


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(seed: int) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            rev = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    src = hashlib.sha256()
    for path in sorted((SRC / "birat").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": BLAS_THREADS,
        "git_revision": rev,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


# -- set-up ------------------------------------------------------------------------


def measure_setup(workload: str, seed: int, tiny: bool, reps: int) -> list[float]:
    """Wall times of fresh interpreters that import birat and build the inputs."""
    env = child_env(BENCH)
    out, err = WORK / "setup.out", WORK / "setup.err"
    code = f"import birat, workloads; workloads.build_inputs({workload!r}, {seed!r}, {tiny!r})"
    walls = []
    for _ in range(reps):
        rc, wall, _ = run_child([sys.executable, "-c", code], env, out, err)
        if rc != 0:
            raise RuntimeError(f"set-up probe failed: {err.read_text()[-2000:]}")
        walls.append(wall)
    return walls


def import_times(reps: int) -> dict:
    """Median cumulative import time of birat and scipy.sparse (-X importtime).

    A module that ``import birat`` no longer pulls in counts as 0 s.
    """
    found = {"birat": [], "scipy.sparse": []}
    out, err = WORK / "importtime.out", WORK / "importtime.err"
    for _ in range(reps):
        run_child([sys.executable, "-X", "importtime", "-c", "import birat"],
                  child_env(), out, err)
        for line in err.read_text().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {name: statistics.median(vals) if vals else 0.0 for name, vals in found.items()}


# -- end-to-end runs -------------------------------------------------------------------


def measure_cli(workload: str, inputs: dict, seconds: float) -> dict:
    """Repeat the CLI invocation as a child process for about ``seconds``."""
    env = child_env()
    stdout, stderr, outfile = (WORK / f"{workload}.{ext}" for ext in ("stdout", "stderr", "out"))
    argv = list(inputs["argv"])
    if argv[0] == "integrate":
        argv += ["--output", str(outfile)]
    else:
        outfile = stdout
    cmd = [sys.executable, "-m", "birat.cli", *argv]
    walls, rss, hashes, problems = [], [], [], []
    failed = items = 0
    while sum(walls) < seconds:
        rc, wall, maxrss = run_child(cmd, env, stdout, stderr)
        walls.append(wall)
        rss.append(maxrss)
        errs = [] if rc == 0 else [f"exit code {rc}: {stderr.read_text()[-500:]}"]
        text = outfile.read_text() if outfile.exists() else ""
        errs += CLI_GATES[workload](inputs, text)
        hashes.append(hashlib.sha256(text.encode()).hexdigest())
        # work items: map steps for integrate, checks for verify
        if workload != "verify":
            items += inputs["steps"]
        elif not errs:
            items += len(json.loads(text)["checks"])
        if errs:
            failed += 1
            problems += errs
        outfile.unlink(missing_ok=True)
        if rc != 0 and wall >= CHILD_TIMEOUT_S:
            break
    return {"op_s": walls, "items": items, "peak_rss_kib": max(rss), "failed": failed,
            "problems": problems, "output_sha256": sorted(set(hashes))}


def certify_pass(members, classify_params, times: list, problems: list,
                 digest=None) -> int:
    """Certify every member once; returns the number of failed operations."""
    failed = 0
    for label, params in members:
        t0 = time.perf_counter()
        try:
            report = classify_params(params, certify=True)
        except Exception as exc:  # a failed operation, recorded and counted
            times.append(time.perf_counter() - t0)
            problems.append(f"{label or 'non-case'} set raised {exc!r}")
            failed += 1
            continue
        times.append(time.perf_counter() - t0)
        errs = gate_certificate(label, report)
        if errs:
            failed += 1
            problems += errs
        if digest is not None:
            digest.update(json.dumps(report.to_json_dict(), sort_keys=True).encode())
    return failed


def measure_certify(inputs: dict, seconds: float) -> dict:
    """Whole passes over the certification set for about ``seconds``."""
    from birat.lvfamily import classify_params

    members = inputs["members"]
    times, problems = [], []
    digest = hashlib.sha256()
    failed = certify_pass(members, classify_params, times, problems, digest)
    while sum(times) < seconds:
        failed += certify_pass(members, classify_params, times, problems)
    return {"op_s": times, "items": len(times),
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "failed": failed, "problems": problems, "output_sha256": [digest.hexdigest()]}


def run_end_to_end(workload: str, inputs: dict, seed: int, seconds: float,
                   tiny: bool) -> tuple[dict, dict]:
    setup = measure_setup(workload, seed, tiny, 1 if tiny else SETUP_REPS)
    if workload == "certify":
        res = measure_certify(inputs, seconds)
    else:
        res = measure_cli(workload, inputs, seconds)
    ops = res["op_s"]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "rate_per_s": (res["items"] / sum(ops), "1/s"),
        "op_ms_p95": (1e3 * percentile(ops, 95), "ms"),
        "peak_rss_mb": (res["peak_rss_kib"] / 1024, "MiB"),
    }
    named = {"integrate-kahan": "steps_per_s", "integrate-lvfamily": "steps_per_s",
             "verify": "checks_per_s", "certify": "certs_per_s"}[workload]
    report = {
        "samples": {"setup_s": setup, "n_ops": len(ops),
                    "op_s": ops if len(ops) <= SAMPLES_KEPT else
                    {"min": min(ops), "p50": statistics.median(ops),
                     "p95": percentile(ops, 95), "max": max(ops)}},
        "op_ms_p50": 1e3 * statistics.median(ops),
        named: metrics["rate_per_s"][0],
        "output_sha256": res["output_sha256"],
    }
    if workload == "verify":
        report["verify_s"] = statistics.median(ops)
    if workload == "certify":
        report["cert_ms_p95"] = metrics["op_ms_p95"][0]
    return metrics, {**res, "report": report}


# -- traced run ------------------------------------------------------------------------


def import_birat():
    """Import the checkout's birat (all layers) into this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["BIRAT_LOG"] = "WARNING"
    import birat
    import birat.cli

    if Path(birat.__file__).resolve().parent != SRC / "birat":
        raise RuntimeError(f"imported birat from {birat.__file__}, not from {SRC}")
    return birat.cli


def cli_inprocess(cli, workload: str, inputs: dict, out: Path) -> tuple[list[str], float]:
    """Run ``birat.cli.main`` with the workload's arguments; (problems, wall s)."""
    argv = list(inputs["argv"])
    out.unlink(missing_ok=True)
    with contextlib.ExitStack() as stack:
        if argv[0] == "integrate":
            argv += ["--output", str(out)]
        else:
            stack.enter_context(contextlib.redirect_stdout(
                stack.enter_context(open(out, "w"))))
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        wall = time.perf_counter() - t0
    problems = [] if rc == 0 else [f"exit code {rc}"]
    text = out.read_text() if out.exists() else ""
    return problems + CLI_GATES[workload](inputs, text), wall


def run_traced(workload: str, inputs: dict, seed: int, tiny: bool) -> tuple[dict, dict]:
    from tracer import SPAN_NAMES, Tracer

    imports = import_times(1 if tiny else IMPORTTIME_REPS)
    cli = import_birat()
    tracer = Tracer()
    out = WORK / f"{workload}.traced.out"
    if workload == "certify":
        from birat.lvfamily import classify_params

        members = inputs["members"]
        warm_times, plain_times, traced_times, problems = [], [], [], []
        # the first pass warms caches, so the untraced figure is a steady one
        failed = certify_pass(members, classify_params, warm_times, problems)
        failed += certify_pass(members, classify_params, plain_times, problems)
        with tracer.installed():
            failed += certify_pass(members, classify_params, traced_times, problems)
        plain, traced = sum(plain_times), sum(traced_times)
        attempted, output_bytes = 3 * len(members), 0
    else:
        problems, plain = cli_inprocess(cli, workload, inputs, out)
        with tracer.installed():
            traced_problems, traced = cli_inprocess(cli, workload, inputs, out)
        failed = bool(problems) + bool(traced_problems)
        problems += traced_problems
        attempted, output_bytes = 2, out.stat().st_size if out.exists() else 0
    summary = tracer.summary()
    overhead = traced / plain
    self_sum = sum(s["self_s"] for s in summary.values())
    trace_problems = []
    if self_sum > traced:
        trace_problems.append(f"layer self times sum to {self_sum} s, above the"
                              f" traced wall time {traced} s")
    if workload == "integrate-kahan" and summary["kahan.kahan_step"]["calls"] != inputs["steps"]:
        trace_problems.append(f"kahan.kahan_step.calls = {summary['kahan.kahan_step']['calls']},"
                              f" expected {inputs['steps']}")
    if trace_problems:
        failed += 1
        problems += trace_problems

    metrics = {}
    for span in SPAN_NAMES:
        metrics[f"{span}.calls"] = (summary[span]["calls"], "count")
        metrics[f"{span}.self_s"] = (summary[span]["self_s"], "s")
        metrics[f"{span}.errors"] = (summary[span]["errors"], "count")
    metrics["kahan.errors"] = (sum(s["errors"] for name, s in summary.items()
                                   if name.startswith("kahan.")), "count")
    metrics["cli.output_bytes"] = (output_bytes, "bytes")
    metrics["import.birat_s"] = (imports["birat"], "s")
    metrics["import.scipy_sparse_s"] = (imports["scipy.sparse"], "s")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.spans"] = (len(tracer.name), "count")

    baseline = {}
    for span, (low, high) in BASELINE_US.items():
        calls = summary[span]["calls"]
        if calls:
            per_call = 1e6 * summary[span]["total_s"] / calls
            corrected = per_call / overhead
            baseline[span] = {
                "traced_us_per_call": per_call, "corrected_us_per_call": corrected,
                "baseline_us": [low, high],
                "within_factor": low / BASELINE_FACTOR <= corrected <= high * BASELINE_FACTOR,
            }
    spans_file = WORK / f"spans-{workload}-seed{seed}.npz"
    tracer.save(spans_file)
    report = {"untraced_wall_s": plain, "traced_wall_s": traced, "self_sum_s": self_sum,
              "baseline_check": baseline, "untraced_layers": tracer.missing,
              "spans_file": spans_file.name,
              "layers": summary}
    return metrics, {"failed": failed, "attempted": attempted, "problems": problems,
                     "report": report}


# -- entry point ---------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result line and the full report."""
    WORK.mkdir(exist_ok=True)
    os.environ.update({var: str(BLAS_THREADS) for var in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    env = environment(seed)
    import_birat()
    inputs = build_inputs(workload, seed, tiny)
    if trace:
        metrics, res = run_traced(workload, inputs, seed, tiny)
        attempted = res["attempted"]
    else:
        metrics, res = run_end_to_end(workload, inputs, seed, seconds, tiny)
        attempted = len(res["op_s"])
    failed = res["failed"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    described = {k: v for k, v in inputs.items() if k != "members"}
    if "members" in inputs:
        described["members"] = [label or "non-case" for label, _ in inputs["members"]]
    report = {"workload": workload, "trace": int(trace), "seconds": seconds, "env": env,
              "inputs": described,
              "fail_ratio": failed / attempted, "problems": res["problems"][:PROBLEMS_KEPT],
              **res["report"]}
    return {"result": result, "report": report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "birat" / "__init__.py").is_file():
        print(f"run_bench: no birat sources at {SRC / 'birat'}; run from a checkout"
              " of the repository", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    text = json.dumps(out["report"])
    (WORK / f"report-{args.workload}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
