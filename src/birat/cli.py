"""Command-line front end: integrate models, classify parameter sets, verify.

Exit codes: 0 success, 1 configuration error, 2 runtime map failure,
3 classification negative.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import BiratError, ConstraintViolation, NonFiniteState
from .geomcheck import (
    Trajectory,
    conservation_drift,
    convergence_order,
    multiplier_agreement,
    roundtrip_error,
)
from .kahan import KahanStepConfig, kahan_inverse_step, kahan_step, kahan_step_series
from .lvfamily import (
    CASE_LABELS,
    CASE_VI_SCHEME,
    KAHAN_SCHEME,
    LVParams,
    MICKENS_SCHEME,
    case_iv_blend,
    classify_params,
    lv_inverse_step,
    lv_step,
    random_case_params,
    symplectic_residual,
)
from .models import (
    MODEL_STATE_NAMES,
    DimensionlessEnzymeParams,
    EnzymeParams,
    SchnakenbergParams,
    enzyme_diml_vf,
    enzyme_reduced_vf,
    enzyme_vf,
    lv_vf,
    model_default_x0,
    model_vector_field,
    schnakenberg_inverse_step,
    schnakenberg_step,
    schnakenberg_vf,
)

log = logging.getLogger("birat.cli")

FMT = "{:.17g}"

MODEL_PARAM_KEYS = {
    "enzyme4": ("k1", "km1", "k2", "s0", "e0"),
    "enzyme3": ("mu", "nu", "eps"),
    "lv": (),
    "schnakenberg": ("a", "b"),
}

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_NEGATIVE = 3


class ConfigError(Exception):
    """Invalid run configuration; message names the offending field."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # runtime map failures, so remap argument errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", integer, or decimal text into an exact Fraction."""
    return Fraction(text.strip())


def _parse_float(text: str, what: str) -> float:
    try:
        return float(parse_rational(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{what}: cannot parse {text!r} as a number") from exc


def _parse_state(text: str, what: str) -> list[float]:
    return [_parse_float(tok, what) for tok in text.split(",")]


def _parse_param_map(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in text.split(","):
        if "=" not in item:
            raise ConfigError(f"params: expected key=value, got {item!r}")
        key, _, val = item.partition("=")
        out[key.strip()] = val.strip()
    return out


@dataclass
class RunConfig:
    model: str
    method: str
    h: float
    steps: int
    x0: list[float] | None = None
    params: dict | None = None
    scheme: list[Fraction] | None = None
    output: str | None = None
    format: str = "csv"
    seed: int = 0
    tol: float = 1e-9


def _build_run_config(args) -> RunConfig:
    merged: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                merged.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config: {exc}") from exc
    for key in ("model", "method", "h", "steps", "x0", "params",
                "output", "format", "seed", "tol"):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val

    model = merged.get("model")
    if model not in MODEL_STATE_NAMES:
        raise ConfigError(f"model: expected one of {sorted(MODEL_STATE_NAMES)}, got {model!r}")
    method = merged.get("method")
    if method is None:
        raise ConfigError("method: required")

    h_raw = merged.get("h")
    if h_raw is None:
        raise ConfigError("h: required")
    h = _parse_float(str(h_raw), "h")
    if h == 0.0:
        raise ConfigError("h: must be nonzero")

    steps_raw = merged.get("steps")
    if steps_raw is None:
        raise ConfigError("steps: required")
    try:
        steps = int(steps_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"steps: not an integer: {steps_raw!r}") from exc
    if steps < 1:
        raise ConfigError("steps: must be >= 1")

    fmt = merged.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format: expected csv or json, got {fmt!r}")

    cfg = RunConfig(
        model=model,
        method=method,
        h=h,
        steps=steps,
        output=merged.get("output"),
        format=fmt,
        seed=int(merged.get("seed", 0)),
        tol=float(merged.get("tol", 1e-9)),
    )

    params_raw = merged.get("params")
    wants_scheme = method == "lv-family"
    if wants_scheme:
        if model != "lv":
            raise ConfigError("method: lv-family applies to model lv only")
        if params_raw is None:
            raise ConfigError("params: lv-family needs 10 comma-separated rationals")
        if isinstance(params_raw, str):
            toks = params_raw.split(",")
        else:
            toks = [str(t) for t in params_raw]
        try:
            vals = [parse_rational(t) for t in toks]
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"params: {exc}") from exc
        try:
            cfg.scheme = LVParams.from_list(vals).to_list()
        except (ConstraintViolation, ValueError) as exc:
            raise ConfigError(f"params: {exc}") from exc
    else:
        pmap: dict[str, str] = {}
        if isinstance(params_raw, str) and params_raw:
            pmap = _parse_param_map(params_raw)
        elif isinstance(params_raw, dict):
            pmap = {k: str(v) for k, v in params_raw.items()}
        allowed = MODEL_PARAM_KEYS[model]
        for key in pmap:
            if key not in allowed:
                raise ConfigError(f"params: unknown key {key!r} for model {model}"
                                  f" (allowed: {', '.join(allowed) or 'none'})")
        cfg.params = {k: _parse_float(v, f"params.{k}") for k, v in pmap.items()}

    x0_raw = merged.get("x0")
    if x0_raw is not None:
        if isinstance(x0_raw, str):
            cfg.x0 = _parse_state(x0_raw, "x0")
        else:
            cfg.x0 = [float(v) for v in x0_raw]
        if not all(map(math.isfinite, cfg.x0)):
            raise ConfigError("x0: components must be finite")
    return cfg


def _model_params(cfg: RunConfig):
    given = cfg.params or {}
    try:
        if cfg.model == "enzyme4":
            return EnzymeParams(**given) if given else EnzymeParams(1.0, 0.5, 0.1, 1.0, 0.01)
        if cfg.model == "enzyme3":
            return DimensionlessEnzymeParams(**given) if given \
                else DimensionlessEnzymeParams(0.5, 0.6, 1e-2)
        if cfg.model == "schnakenberg":
            return SchnakenbergParams(**given) if given else SchnakenbergParams(0.1, 0.5)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"params: {exc}") from exc
    return None


def _make_stepper(cfg: RunConfig, params) -> Callable[[np.ndarray], np.ndarray]:
    """Bind (model, method) to a one-step map; raises ConfigError on mismatch."""
    method = cfg.method
    series_order = None
    if method.startswith("kahan-series:"):
        try:
            series_order = int(method.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"method: bad series order in {method!r}") from exc
        if series_order < 0:
            raise ConfigError("method: series order must be >= 0")
        method = "kahan-series"

    if method in ("kahan", "kahan-series") or (method == "euler" and cfg.model != "schnakenberg"):
        if cfg.model == "schnakenberg":
            raise ConfigError("method: model schnakenberg is cubic; use method"
                              " schnakenberg or euler")
        vf = model_vector_field(cfg.model, params)
        if method == "euler":
            series_order = 0
        if method == "kahan":
            step_cfg = KahanStepConfig(h=cfg.h)
        else:
            step_cfg = KahanStepConfig(h=cfg.h, series_order=series_order)
        return lambda state: kahan_step(vf, state, step_cfg)

    if method == "euler":
        vf = schnakenberg_vf(params)
        return lambda state: np.asarray(state, dtype=float) + cfg.h * vf(state)

    if method == "lv-family":
        scheme = LVParams.from_list(cfg.scheme)

        def step(state):
            xt, yt = lv_step(scheme, state[0], state[1], cfg.h, tol=cfg.tol)
            return np.array([xt, yt])

        return step

    if method == "schnakenberg":
        if cfg.model != "schnakenberg":
            raise ConfigError("method: schnakenberg step applies to model schnakenberg only")

        def step(state):
            xt, yt = schnakenberg_step(params, state[0], state[1], cfg.h)
            return np.array([xt, yt])

        return step

    raise ConfigError(f"method: unknown method {cfg.method!r}")


def _row_template(fmt: str, dim: int) -> str:
    """One output row as a format string for (t, *state): CSV or a JSON array."""
    if fmt == "csv":
        return ",".join([FMT] * (dim + 1))
    return "[" + ", ".join([FMT] * (dim + 1)) + "]"


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit_trajectory(cfg: RunConfig, names, rows, error: dict | None) -> None:
    if cfg.format == "csv":
        lines = ["t," + ",".join(names)]
        lines.extend(rows)
        _write_text(cfg.output, "\n".join(lines) + "\n")
        if error is not None:
            print(f"integrate: {error['type']}: {error['message']}"
                  f" (step {error['step']})", file=sys.stderr)
        return
    # JSON is assembled by hand so numeric tokens match the CSV byte for byte.
    parts = ['{"model": %s, "method": %s, "h": %s, "state_names": [%s], "rows": [' % (
        json.dumps(cfg.model), json.dumps(cfg.method), FMT.format(cfg.h),
        ", ".join(json.dumps(n) for n in names))]
    parts.append(",\n".join(rows))
    parts.append("]")
    if error is not None:
        parts.append(", \"error\": " + json.dumps(error, sort_keys=True))
    parts.append("}\n")
    _write_text(cfg.output, "".join(parts))


def cmd_integrate(args) -> int:
    cfg = _build_run_config(args)
    params = _model_params(cfg)
    if cfg.model in ("enzyme3", "enzyme4"):
        eps = params.eps if cfg.model == "enzyme3" else params.e0 / params.s0
        if cfg.h > eps:
            log.warning("h=%g exceeds eps=%g; the fast transient will be"
                        " underresolved", cfg.h, eps)

    names = MODEL_STATE_NAMES[cfg.model]
    x0 = cfg.x0 if cfg.x0 is not None else list(model_default_x0(cfg.model, params))
    if len(x0) != len(names):
        raise ConfigError(f"x0: expected dimension {len(names)} for model"
                          f" {cfg.model}, got {len(x0)}")

    stepper = _make_stepper(cfg, params)
    state = np.asarray(x0, dtype=float)
    row = _row_template(cfg.format, len(names)).format
    rows = [row(0.0, *state.tolist())]
    error = None
    for k in range(cfg.steps):
        try:
            state = stepper(state)
            values = state.tolist()
            if not all(map(math.isfinite, values)):
                bad = [n for n, v in zip(names, values) if not math.isfinite(v)]
                raise NonFiniteState(f"non-finite value in {', '.join(bad)}")
        except BiratError as exc:
            error = {"step": k + 1, "type": type(exc).__name__, "message": str(exc)}
            log.error("map failure at step %d: %s", k + 1, exc)
            break
        rows.append(row((k + 1) * cfg.h, *values))
    _emit_trajectory(cfg, names, rows, error)
    return EXIT_RUNTIME if error is not None else EXIT_OK


def cmd_classify(args) -> int:
    try:
        vals = [parse_rational(tok) for tok in args.params.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        print(f"classify: malformed rational in {args.params!r}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        params = LVParams.from_list(vals)
    except (ValueError, ConstraintViolation) as exc:
        print(f"classify: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report = classify_params(params, certify=args.certify)
    print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    return EXIT_OK if report.birational_cases else EXIT_NEGATIVE


def _check(name: str, value: float, threshold: float, ok: bool | None = None) -> dict:
    passed = bool(value < threshold) if ok is None else bool(ok)
    return {"name": name, "value": value, "threshold": threshold, "passed": passed}


def _suite_conservation(seed: int, tol: float) -> list[dict]:
    p3 = DimensionlessEnzymeParams(0.5, 0.6, 1e-2)
    cfg = KahanStepConfig(h=1e-3)
    vf = enzyme_diml_vf(p3)
    state = np.array([1.0, 0.0, 0.0])
    states = [state]
    for _ in range(20000):
        state = kahan_step(vf, state, cfg)
        states.append(state)
    traj = Trajectory.from_states(np.array(states), 1e-3, "enzyme3")
    drift3 = conservation_drift(traj, np.array([1.0, p3.eps, 1.0]))

    p4 = EnzymeParams(1.0, 0.5, 0.1, 1.0, 0.01)
    vf4 = enzyme_vf(p4)
    cfg4 = KahanStepConfig(h=1e-2)
    state = np.array([p4.s0, p4.e0, 0.0, 0.0])
    states = [state]
    for _ in range(5000):
        state = kahan_step(vf4, state, cfg4)
        states.append(state)
    traj4 = Trajectory.from_states(np.array(states), 1e-2, "enzyme4")
    drift_ec = conservation_drift(traj4, np.array([0.0, 1.0, 1.0, 0.0]))
    drift_scp = conservation_drift(traj4, np.array([1.0, 0.0, 1.0, 1.0]))
    return [
        _check("enzyme3-linear-integral-drift", drift3, tol),
        _check("enzyme4-e-plus-c-drift", drift_ec, tol),
        _check("enzyme4-s-plus-c-plus-p-drift", drift_scp, tol),
    ]


def _sample_points(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 0.2 + 1.8 * rng.random((n, 2))


def _suite_symplectic(seed: int, tol: float) -> list[dict]:
    pts = _sample_points(seed, 100)
    h = 0.1
    checks = []
    for name, scheme in (("kahan", KAHAN_SCHEME), ("mickens", MICKENS_SCHEME),
                         ("oscillator-third-family", CASE_VI_SCHEME)):
        worst = max(abs(symplectic_residual(scheme, x, y, h)) for x, y in pts)
        checks.append(_check(f"{name}-residual", worst, tol))
    blend = case_iv_blend(Fraction(1))
    worst = max(abs(symplectic_residual(blend, x, y, h)) for x, y in pts)
    checks.append(_check("blend-d1-expected-violation", worst, 1e-4,
                         ok=worst > 1e-4))
    return checks


def _suite_roundtrip(seed: int, tol: float) -> list[dict]:
    rng = random.Random(seed)
    pts = _sample_points(seed, 50) * 0.5 + 0.4
    checks = []
    for label in CASE_LABELS:
        scheme = random_case_params(label, rng)
        fwd = lambda p: np.array(lv_step(scheme, p[0], p[1], 0.01))
        inv = lambda p: np.array(lv_inverse_step(scheme, p[0], p[1], 0.01))
        err = roundtrip_error(fwd, inv, pts)
        checks.append(_check(f"case-{label}-roundtrip", err, tol))

    vf = enzyme_diml_vf(DimensionlessEnzymeParams(0.5, 0.6, 1e-2))
    cfg = KahanStepConfig(h=1e-3)
    pts3 = np.random.default_rng(seed).random((50, 3))
    err = roundtrip_error(lambda p: kahan_step(vf, p, cfg),
                          lambda p: kahan_inverse_step(vf, p, cfg), pts3)
    checks.append(_check("enzyme3-kahan-roundtrip", err, min(tol, 1e-10)))

    sp = SchnakenbergParams(0.1, 0.5)
    err = roundtrip_error(
        lambda p: np.array(schnakenberg_step(sp, p[0], p[1], 0.01)),
        lambda p: np.array(schnakenberg_inverse_step(sp, p[0], p[1], 0.01)),
        _sample_points(seed + 1, 50))
    checks.append(_check("schnakenberg-roundtrip", err, min(tol, 1e-10)))
    return checks


def _suite_convergence(seed: int, tol: float) -> list[dict]:
    vf = lv_vf()
    hs = [0.02, 0.01, 0.005, 0.0025]
    kahan_cfg = lru_cache(maxsize=None)(lambda h: KahanStepConfig(h=h))
    euler_cfg = lru_cache(maxsize=None)(lambda h: KahanStepConfig(h=h, series_order=0))

    def kahan_family(state, h):
        return kahan_step(vf, state, kahan_cfg(h))

    def euler_family(state, h):
        return kahan_step_series(vf, state, euler_cfg(h))

    slope2 = convergence_order(kahan_family, [2.0, 0.5], 1.0, hs)
    slope1 = convergence_order(euler_family, [2.0, 0.5], 1.0, hs)
    return [
        _check("kahan-order", slope2, 2.2, ok=1.8 <= slope2 <= 2.2),
        _check("euler-order", slope1, 1.2, ok=0.8 <= slope1 <= 1.2),
    ]


def _fd_map_jacobian(vf, xstar, h: float) -> np.ndarray:
    """Central-difference Jacobian of the Kahan map at xstar, one column per coordinate."""
    cfg = KahanStepConfig(h=h)
    eps = 1e-7
    base = np.asarray(xstar, dtype=float)
    cols = []
    for j in range(len(base)):
        plus = base.copy()
        plus[j] += eps
        minus = base.copy()
        minus[j] -= eps
        cols.append((kahan_step(vf, plus, cfg) - kahan_step(vf, minus, cfg)) / (2 * eps))
    return np.column_stack(cols)


def _suite_multipliers(seed: int, tol: float) -> list[dict]:
    vf = lv_vf()
    checks = []
    for h in (0.01, 0.1):
        dev = multiplier_agreement(_fd_map_jacobian(vf, [1.0, 1.0], h), vf, [1.0, 1.0], h)
        checks.append(_check(f"lv-multiplier-agreement-h{h:g}", dev, 1e-8))

    rvf = enzyme_reduced_vf(DimensionlessEnzymeParams(0.5, 0.6, 1e-2))
    jac_r = _fd_map_jacobian(rvf, [0.0, 0.0], 0.01)
    dev = multiplier_agreement(jac_r, rvf, [0.0, 0.0], 0.01)
    mults = np.linalg.eigvals(jac_r)
    stable = bool(np.all(np.abs(mults) < 1.0))
    checks.append(_check("enzyme-reduced-multiplier-agreement", dev, 1e-8))
    checks.append(_check("enzyme-reduced-origin-stable", float(np.abs(mults).max()),
                         1.0, ok=stable))
    return checks


SUITES = {
    "conservation": _suite_conservation,
    "symplectic": _suite_symplectic,
    "roundtrip": _suite_roundtrip,
    "convergence": _suite_convergence,
    "multipliers": _suite_multipliers,
}


def cmd_verify(args) -> int:
    if args.suite == "all":
        names = list(SUITES)
    elif args.suite in SUITES:
        names = [args.suite]
    else:
        print(f"verify: unknown suite {args.suite!r}; choose from"
              f" {', '.join([*SUITES, 'all'])}", file=sys.stderr)
        return EXIT_CONFIG
    checks = []
    for name in names:
        checks.extend(SUITES[name](args.seed, args.tol))
    passed = all(c["passed"] for c in checks)
    print(json.dumps({"suite": args.suite, "seed": args.seed, "tol": args.tol,
                      "checks": checks, "passed": passed}, indent=2))
    return EXIT_OK if passed else EXIT_RUNTIME


def build_parser() -> _Parser:
    parser = _Parser(prog="birat",
                     description="Structure-preserving discretizations of"
                                 " quadratic vector fields")
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrate", help="run a model and write the trajectory")
    p_int.add_argument("--model", choices=sorted(MODEL_STATE_NAMES))
    p_int.add_argument("--method")
    p_int.add_argument("--params")
    p_int.add_argument("--h", dest="h")
    p_int.add_argument("--steps", type=int)
    p_int.add_argument("--x0")
    p_int.add_argument("--output", "-o")
    p_int.add_argument("--format", choices=("csv", "json"))
    p_int.add_argument("--seed", type=int)
    p_int.add_argument("--tol", type=float)
    p_int.add_argument("--config")
    p_int.set_defaults(func=cmd_integrate)

    p_cls = sub.add_parser("classify", help="classify a 10-parameter family member")
    p_cls.add_argument("params", help="10 comma-separated rationals"
                                      " a,b,c,d,e,A,B,C,D,E")
    p_cls.add_argument("--certify", action="store_true",
                       help="attach the exact elimination certificate")
    p_cls.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", help=f"one of {', '.join([*SUITES, 'all'])}")
    p_ver.add_argument("--seed", type=int, default=7)
    p_ver.add_argument("--tol", type=float, default=1e-9)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    level = os.environ.get("BIRAT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BiratError as exc:
        print(f"{parser.prog}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
