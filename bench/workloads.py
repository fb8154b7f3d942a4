"""Benchmark workloads: seeded inputs and the correctness gate of each operation.

``build_inputs`` is also what the set-up probe runs in a fresh interpreter,
so it imports nothing beyond the standard library and ``birat`` itself.  The
gates return a list of problems; an empty list means the output is correct.
"""
from __future__ import annotations

import random

WORKLOADS = ("integrate-kahan", "integrate-lvfamily", "verify", "certify")

STEPS = 100_000
TINY_STEPS = 200
KAHAN_H = "1e-3"
ENZYME3_EPS = 1e-2  # the CLI's default enzyme3 parameters (mu, nu, eps) = (0.5, 0.6, 1e-2)
DRIFT_BOUND = 1e-10  # acceptance 01: x + eps*y + z over 1e5 polarized steps
LV_H = "0.1"
LV_SCHEMES = ("KAHAN_SCHEME", "MICKENS_SCHEME", "CASE_VI_SCHEME")
LV_RESIDUAL_SAMPLES = 256
# Step relations hold to rounding: |residual| <= LV_RESIDUAL_TOL * (1 + |x| + |y| + |xt| + |yt|)^2.
# Observed values stay near 3e-17 on that scale.
LV_RESIDUAL_TOL = 1e-13
CERT_PER_TEMPLATE = 16
CERT_NONCASE = 32


def _h_value(text: str) -> float:
    from fractions import Fraction

    return float(Fraction(text))


def build_inputs(workload: str, seed: int, tiny: bool = False) -> dict:
    """Inputs of one run, drawn from ``seed`` only.

    CLI workloads get the ``birat`` arguments (without ``--output``); certify
    gets ``(template label or None, LVParams)`` pairs.
    """
    rng = random.Random(seed)
    steps = TINY_STEPS if tiny else STEPS
    if workload == "integrate-kahan":
        s = rng.uniform(0.5, 1.5)
        return {"steps": steps, "h": KAHAN_H, "x0": [s, 0.0, 0.0],
                "argv": ["integrate", "--model", "enzyme3", "--method", "kahan",
                         "--h", KAHAN_H, "--steps", str(steps), "--x0", f"{s!r},0,0"]}
    if workload == "integrate-lvfamily":
        import birat.lvfamily as lvf

        scheme = rng.choice(LV_SCHEMES)
        x0 = [rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)]
        params = ",".join(str(v) for v in getattr(lvf, scheme).to_list())
        return {"steps": steps, "h": LV_H, "x0": x0, "scheme": scheme, "params": params,
                "seed": seed,
                "argv": ["integrate", "--model", "lv", "--method", "lv-family",
                         "--params", params, "--h", LV_H, "--steps", str(steps),
                         "--format", "json", "--x0", f"{x0[0]!r},{x0[1]!r}"]}
    if workload == "verify":
        # the tiny variant keeps one short suite; the full run is `verify all`
        return {"argv": ["verify", "roundtrip" if tiny else "all", "--seed", str(seed)]}
    if workload == "certify":
        from birat.lvfamily import CASE_LABELS, random_case_params, random_noncase_params

        per_template, noncase = (1, 2) if tiny else (CERT_PER_TEMPLATE, CERT_NONCASE)
        members = [(label, random_case_params(label, rng))
                   for _ in range(per_template) for label in CASE_LABELS]
        members += [(None, random_noncase_params(rng)) for _ in range(noncase)]
        return {"members": members}
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def gate_integrate_kahan(inputs: dict, text: str) -> list[str]:
    """steps + 1 finite rows, t = k*h exactly, linear-integral drift within bound."""
    import numpy as np

    lines = text.splitlines()
    if not lines or lines[0] != "t,x,y,z":
        return [f"unexpected CSV header {lines[:1]!r}"]
    try:
        data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    except ValueError as exc:
        return [f"unparseable CSV row: {exc}"]
    steps = inputs["steps"]
    if data.shape != (steps + 1, 4):
        return [f"expected {steps + 1} rows of 4 values, got shape {data.shape}"]
    problems = []
    bad = int((~np.isfinite(data)).any(axis=1).sum())
    if bad:
        problems.append(f"{bad} rows hold non-finite values")
    t_expected = np.arange(steps + 1) * _h_value(inputs["h"])
    if not np.array_equal(data[:, 0], t_expected):
        k = int(np.argmax(data[:, 0] != t_expected))
        problems.append(f"row {k}: t = {float(data[k, 0])!r}, expected {float(t_expected[k])!r}")
    integral = data[:, 1:] @ np.array([1.0, ENZYME3_EPS, 1.0])
    drift = float(np.abs(integral - integral[0]).max() / (1.0 + abs(integral[0])))
    if not drift <= DRIFT_BOUND:
        problems.append(f"x + eps*y + z drift {drift:.3e} exceeds {DRIFT_BOUND:g}")
    return problems


def gate_integrate_lvfamily(inputs: dict, text: str) -> list[str]:
    """steps + 1 finite rows, t = k*h exactly, sampled step relations at rounding level."""
    import json
    import math

    import birat.lvfamily as lvf

    try:
        rows = json.loads(text)["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable JSON trajectory: {exc!r}"]
    steps = inputs["steps"]
    if len(rows) != steps + 1 or any(not isinstance(row, list) or len(row) != 3 for row in rows):
        return [f"expected {steps + 1} rows of 3 values, got {len(rows)} rows"]
    problems = []
    bad = sum(1 for row in rows if not all(math.isfinite(v) for v in row))
    if bad:
        problems.append(f"{bad} rows hold non-finite values")
    h = _h_value(inputs["h"])
    wrong_t = [k for k, row in enumerate(rows) if row[0] != k * h]
    if wrong_t:
        problems.append(f"{len(wrong_t)} rows have t != k*h, first at row {wrong_t[0]}")
    if problems:
        return problems
    scheme = getattr(lvf, inputs["scheme"])
    ks = random.Random(inputs["seed"]).sample(range(steps), min(steps, LV_RESIDUAL_SAMPLES))
    for k in sorted(ks):
        (_, x, y), (_, xt, yt) = rows[k], rows[k + 1]
        scale = (1.0 + abs(x) + abs(y) + abs(xt) + abs(yt)) ** 2
        r1, r2 = lvf.step_residuals(scheme, x, y, xt, yt, h)
        if not max(abs(r1), abs(r2)) <= LV_RESIDUAL_TOL * scale:
            problems.append(f"step {k} -> {k + 1}: residuals ({r1:.3e}, {r2:.3e})"
                            f" above rounding level")
            break
    return problems


def gate_verify(inputs: dict, text: str) -> list[str]:
    """The report parses, holds checks, and says passed."""
    import json

    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"unparseable verify report: {exc}"]
    if not doc.get("checks"):
        return ["verify report holds no checks"]
    if doc.get("passed") is not True:
        failed = [c.get("name") for c in doc["checks"] if not c.get("passed")]
        return [f"verify did not pass; failed checks: {failed}"]
    return []


def gate_certificate(label: str | None, report) -> list[str]:
    """Case members certify BIRATIONAL under their label; non-case sets refuse."""
    from birat.lvfamily import BIRATIONAL, NOT_CERTIFIED

    verdict = report.certificate.verdict if report.certificate is not None else None
    if label is not None:
        if verdict != BIRATIONAL or label not in report.birational_cases:
            return [f"case {label} member: verdict {verdict}, cases {report.birational_cases}"]
    elif verdict != NOT_CERTIFIED or report.birational_cases:
        return [f"non-case set: verdict {verdict}, cases {report.birational_cases}"]
    return []


CLI_GATES = {
    "integrate-kahan": gate_integrate_kahan,
    "integrate-lvfamily": gate_integrate_lvfamily,
    "verify": gate_verify,
}
