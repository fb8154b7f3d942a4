"""Command-line front end: integrate models, classify parameter sets, verify.

Exit codes: 0 success, 1 configuration or output error, 2 runtime map failure,
3 classification negative.
"""
from __future__ import annotations

import argparse
import gc
import json
import logging
import math
import os
import sys
from array import array
from contextlib import closing, nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from . import driver
from .errors import BiratError
from .lvfamily import DEFAULT_STEP_TOL, LVParams, classify_params, lv_stepper
from .models import MODELS, model_vector_field, schnakenberg_step, schnakenberg_vf
from .ratpoly import parse_rational

log = logging.getLogger("birat.cli")

FMT = "%.17g"

# the keys of verify.SUITES, which the parser names without loading numpy
SUITE_NAMES = ("conservation", "symplectic", "roundtrip", "convergence", "multipliers")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_NEGATIVE = 3

# integrate's settings: each is a flag and a key of the --config file, and a flag wins
SETTINGS = ("model", "method", "params", "h", "steps", "x0", "output", "format", "tol")


class _StderrHandler(logging.StreamHandler):
    """Writes each record to ``sys.stderr`` as it is when the record is emitted."""

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, value):  # StreamHandler.__init__ assigns one; the property ignores it
        pass


_LOG_HANDLER = _StderrHandler()
_LOG_HANDLER.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


class ConfigError(Exception):
    """Invalid run configuration; message names the offending field."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # runtime map failures, so remap argument errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _config_float(value, what: str) -> float:
    """A rational text, an integer or a finite JSON float; any other value is rejected."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(f"{what}: must be finite")
        return value
    if not isinstance(value, (str, int)) or isinstance(value, bool):
        raise ConfigError(f"{what}: expected a number, got {value!r}")
    text = str(value)
    try:
        number = parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{what}: cannot parse {text!r} as a number") from exc
    try:
        return float(number)
    except OverflowError as exc:
        raise ConfigError(f"{what}: {text!r} is beyond the float range") from exc


def _config_int(value, what: str) -> int:
    """A JSON integer, an integral JSON float or an integer string; nothing else."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{what}: expected an integer, got {value!r}")


def _config_tol(value) -> float:
    """``tol`` as :func:`_config_float` reads it; it must be nonnegative."""
    tol = _config_float(value, "tol")
    if tol < 0.0:
        raise ConfigError("tol: must be nonnegative")
    return tol


def _read_scheme(tokens: Sequence[str]) -> LVParams:
    """The ten family parameters from rational texts, exactly."""
    try:
        return LVParams.from_list([parse_rational(tok) for tok in tokens])
    except (ValueError, ZeroDivisionError) as exc:  # ConstraintViolation is a ValueError
        raise ConfigError(f"params: {exc}") from exc


@dataclass
class RunConfig:
    """What ``cmd_integrate`` reads of one run: the checked settings and the bound step."""
    model: str
    method: str
    h: float
    steps: int
    names: tuple[str, ...]
    x0: list[float]
    step: Callable[[Sequence[float]], Sequence[float]]
    output: str | None
    format: str


def _build_run_config(args) -> RunConfig:
    """Read, check and bind integrate's settings; every ConfigError but those of opening
    the output is raised here, in the order that README gives."""
    merged: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or an over-long integer
            raise ConfigError(f"config: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config: expected a JSON object, got {type(loaded).__name__}")
        merged.update(loaded)
    for key in SETTINGS:
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)

    model = merged.get("model")
    if not isinstance(model, str) or model not in MODELS:
        raise ConfigError(f"model: expected one of {sorted(MODELS)}, got {model!r}")
    method = merged.get("method")
    if method is None:
        raise ConfigError("method: required")
    if not isinstance(method, str):
        raise ConfigError(f"method: expected a string, got {method!r}")
    output = merged.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output: expected a file name, got {output!r}")

    h_raw = merged.get("h")
    if h_raw is None:
        raise ConfigError("h: required")
    h = _config_float(h_raw, "h")
    if h == 0.0:
        raise ConfigError("h: must be nonzero")

    steps_raw = merged.get("steps")
    if steps_raw is None:
        raise ConfigError("steps: required")
    steps = _config_int(steps_raw, "steps")
    if steps < 1:
        raise ConfigError("steps: must be >= 1")

    fmt = merged.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format: expected csv or json, got {fmt!r}")
    tol = _config_tol(merged.get("tol", DEFAULT_STEP_TOL))

    spec = MODELS[model]
    params_raw = merged.get("params")
    pmap: dict = {}
    if method == "lv-family":
        if model != "lv":
            raise ConfigError("method: lv-family applies to model lv only")
        if params_raw is None:
            raise ConfigError("params: lv-family needs 10 comma-separated rationals")
        if isinstance(params_raw, str):
            toks = params_raw.split(",")
        elif isinstance(params_raw, list):
            toks = [str(t) for t in params_raw]
        else:
            raise ConfigError(f"params: expected 10 comma-separated rationals or a list,"
                              f" got {params_raw!r}")
        scheme = _read_scheme(toks)
        for tok in toks:  # the step runs on the float values
            _config_float(tok, "params")
        if scheme.elimination_order is None:
            raise ConfigError("params: no elimination is linear for this set,"
                              " so lv-family has no step for it")
    else:
        if isinstance(params_raw, str) and params_raw:
            for item in params_raw.split(","):
                if "=" not in item:
                    raise ConfigError(f"params: expected key=value, got {item!r}")
                key, _, val = item.partition("=")
                pmap[key.strip()] = val.strip()
        elif isinstance(params_raw, dict):
            pmap = params_raw
        elif params_raw not in (None, ""):
            raise ConfigError(f"params: expected key=value text or an object,"
                              f" got {params_raw!r}")
        allowed, required = spec.param_keys, spec.required_keys
        for key in pmap:
            if key not in allowed:
                raise ConfigError(f"params: unknown key {key!r} for model {model}"
                                  f" (allowed: {', '.join(allowed) or 'none'})")
        missing = [key for key in required if key not in pmap]
        if pmap and missing:
            raise ConfigError(f"params: missing {', '.join(missing)} for model {model}"
                              f" (required: {', '.join(required)})")
        pmap = {k: _config_float(v, f"params.{k}") for k, v in pmap.items()}

    x0 = merged.get("x0")
    if isinstance(x0, str):
        x0 = x0.split(",")
    if isinstance(x0, list):
        x0 = [_config_float(v, "x0") for v in x0]
    elif x0 is not None:
        raise ConfigError(f"x0: expected a list or a comma-separated string, got {x0!r}")

    try:
        params = replace(spec.defaults, **pmap) if pmap else spec.defaults
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"params: {exc}") from exc
    eps = spec.fast_scale(params) if spec.fast_scale else math.inf
    if abs(h) > eps:
        log.warning("%s=%g exceeds eps=%g; the fast transient will be underresolved",
                    "h" if h > 0 else "|h|", abs(h), eps)
    names = spec.state_names
    if x0 is None:
        x0 = spec.default_x0(params)
    if len(x0) != len(names):
        raise ConfigError(f"x0: expected dimension {len(names)} for model"
                          f" {model}, got {len(x0)}")

    kind, series_order = method, None
    if method.startswith("kahan-series:"):
        try:
            series_order = int(method.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"method: bad series order in {method!r}") from exc
        if series_order < 0:
            raise ConfigError("method: series order must be >= 0")
        kind = "kahan-series"
    quadratic = spec.field is not None
    if kind == "euler":
        # building the field loads numpy, so orbit hands the step arrays
        f = model_vector_field(model, params).evaluate if quadratic else schnakenberg_vf(params)
        step = lambda state: state + h * f(state)
    elif kind in ("kahan", "kahan-series"):
        if not quadratic:
            raise ConfigError(f"method: model {model} is cubic; use method"
                              " schnakenberg or euler")
        from .kahan import kahan_step, kahan_step_series

        vf = model_vector_field(model, params)
        step = ((lambda state: kahan_step(vf, state, h)) if series_order is None
                else lambda state: kahan_step_series(vf, state, h, series_order))
    elif kind == "lv-family":
        step = lv_stepper(scheme, h, tol)
    elif kind == "schnakenberg":
        if model != "schnakenberg":
            raise ConfigError("method: schnakenberg step applies to model schnakenberg only")
        step = lambda state: schnakenberg_step(params, state[0], state[1], h)
    else:
        raise ConfigError(f"method: unknown method {method!r}")
    return RunConfig(model, method, h, steps, names, x0, step, output, fmt)


def _format_block(values, rows: int, dim: int, h: float, row: str, sep: str) -> str:
    """The text of one block of states (flat, row-major) whose first state is row ``rows``."""
    n = len(values) // dim
    flat = [0.0] * (n * (dim + 1))  # (t, *state) of each row
    # row 0 prints 0, not the -0 that 0 * h gives for a negative h
    flat[::dim + 1] = [k * h or 0.0 for k in range(rows, rows + n)]
    for j in range(dim):
        flat[j + 1::dim + 1] = values[j::dim]
    return (sep if rows else "") + sep.join([row] * n) % tuple(flat)


def _write_blocks(blocks, layout, out):
    """Format each block, write it to ``out`` and then yield its row count."""
    rows = 0
    for values in blocks:
        out.write(_format_block(values, rows, *layout))
        n = len(values) // layout[0]
        yield n
        rows += n


def _raise_for_child(status: int) -> None:
    """Raise the error that ended the formatter child, if any, from its waitpid status."""
    code = os.waitstatus_to_exitcode(status)
    if code:
        raise (OSError(code - 128, os.strerror(code - 128)) if code > 128
               else OSError("the row formatter process ended early"))


def _texts_forked(blocks, layout, out):
    """As :func:`_write_blocks`, but a forked child runs that on each block while this
    process steps the next.

    Whole states go down one pipe as doubles.  The child is reaped before any call that
    could raise an interrupt both processes took, so a map failure (a BiratError) comes
    after every row before it, and a write that failed in the child is raised here as
    that OSError.  Any other exception kills the child, and the rows in flight are lost.
    """
    out.flush()  # so that the child inherits no buffered text
    blocks_r, blocks_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the caller's stack
        status = 1
        try:
            os.close(blocks_w)
            gc.freeze()  # objects the parent left for collection are never finalized here
            with open(blocks_r, "rb") as src:
                chunks = iter(lambda: src.read(8 * layout[0] * driver.BLOCK), b"")
                for _ in _write_blocks((array("d", chunk) for chunk in chunks), layout, out):
                    out.flush()  # each block is on the output once it is formatted
            status = 0
        except OSError as exc:  # a failed write; any other status reads as an early end
            status = 128 + exc.errno if exc.errno in range(1, 128) else status
        finally:
            os._exit(status)
    os.close(blocks_r)
    try:
        with open(blocks_w, "wb") as to_child:
            for values in blocks:
                to_child.write(array("d", values))
                yield len(values) // layout[0]
    except (BiratError, BrokenPipeError):
        _raise_for_child(os.waitpid(pid, 0)[1])  # a write that failed in the child wins
        raise
    except BaseException:
        import signal  # here, as only this path needs it: it costs the CLI's start-up 0.6 ms
        os.kill(pid, signal.SIGKILL)  # blocked on a stalled reader, only a signal ends it
        os.waitpid(pid, 0)
        raise
    _raise_for_child(os.waitpid(pid, 0)[1])


def cmd_integrate(args) -> int:
    cfg = _build_run_config(args)
    cols = [FMT] * (len(cfg.names) + 1)  # one row: t, then the state
    if cfg.format == "csv":
        head, row, sep = "t," + ",".join(cfg.names) + "\n", ",".join(cols) + "\n", ""
    else:  # JSON is assembled by hand so numeric tokens match the CSV byte for byte
        head = '{"model": %s, "method": %s, "h": %s, "state_names": [%s], "rows": [' % (
            json.dumps(cfg.model), json.dumps(cfg.method), FMT % cfg.h,
            ", ".join(json.dumps(n) for n in cfg.names))
        row, sep = "[" + ", ".join(cols) + "]", ",\n"
    layout = (len(cfg.names), cfg.h, row, sep)
    blocks = driver.orbit(cfg.step, cfg.x0, cfg.steps, cfg.names)
    to_stdout = cfg.output in (None, "-")
    try:
        sink = nullcontext(_stdout()) if to_stdout else open(cfg.output, "w")
    except OSError as exc:
        raise ConfigError(f"output: {exc}") from exc
    # a fork pays off only with a next block to step, and needs an output on its own fd
    forked = (cfg.steps >= driver.BLOCK and _usable_cpus() > 1 and hasattr(os, "fork")
              and (not to_stdout or sys.stdout is sys.__stdout__))
    rows = 0
    error = None
    with sink as out, closing(_texts_forked(blocks, layout, out) if forked
                              else _write_blocks(blocks, layout, out)) as counts:
        out.write(head)
        try:
            for n in counts:
                rows += n
        except BiratError as exc:
            error = {"step": rows, "type": type(exc).__name__, "message": str(exc)}
            if cfg.format == "json":  # CSV reports it once, in the line below
                log.error("map failure at step %d: %s", rows, exc)
        if cfg.format == "json":
            tail = "" if error is None else ', "error": ' + json.dumps(error, sort_keys=True)
            out.write("]" + tail + "}\n")
    if error is not None and cfg.format == "csv":
        print(f"integrate: {error['type']}: {error['message']} (step {error['step']})",
              file=sys.stderr)
    return EXIT_RUNTIME if error is not None else EXIT_OK


def _stdout():
    """``sys.stdout``; ConfigError if the process started with its descriptor 1 closed."""
    if sys.stdout is None:
        raise ConfigError("output: stdout is closed")
    return sys.stdout


def cmd_classify(args) -> int:
    _stdout()
    report = classify_params(_read_scheme(args.params.split(",")), certify=args.certify)
    print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    return EXIT_OK if report.birational_cases else EXIT_NEGATIVE


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_verify(args) -> int:
    _stdout()
    # loaded before the pool starts, so forked workers inherit numpy and the suites
    from . import verify

    if args.suite == "all":
        names = list(verify.SUITES)
    elif args.suite in verify.SUITES:
        names = [args.suite]
    else:
        raise ConfigError(f"suite: unknown suite {args.suite!r}; choose from"
                          f" {', '.join([*verify.SUITES, 'all'])}")
    seed = _config_int(args.seed, "seed")
    if seed < 0:
        raise ConfigError(f"seed: expected a non-negative integer, got {seed}")
    tol = _config_tol(args.tol)
    workers = min(len(names), _usable_cpus())
    if workers > 1:
        # The suites share no state, so each runs whole in one worker; the
        # results are read back in SUITES order and the report is built as below.
        # Imported here so that import birat, integrate and classify do not
        # load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = [pool.submit(verify.SUITES[name], seed, tol) for name in names]
            results = [future.result() for future in futures]
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        # a one-worker pool costs about 0.1 s and overlaps nothing
        results = [verify.SUITES[name](seed, tol) for name in names]
    checks = [check for result in results for check in result]
    passed = all(c["passed"] for c in checks)
    print(json.dumps({"suite": args.suite, "seed": seed, "tol": tol,
                      "checks": checks, "passed": passed}, indent=2))
    return EXIT_OK if passed else EXIT_RUNTIME


def build_parser() -> _Parser:
    parser = _Parser(prog="birat",
                     description="Structure-preserving discretizations of"
                                 " quadratic vector fields")
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrate", help="run a model and write the trajectory")
    helps = {"model": f"one of {', '.join(sorted(MODELS))}", "format": "csv (default) or json"}
    for key in SETTINGS:
        p_int.add_argument(f"--{key}", *(["-o"] if key == "output" else []), help=helps.get(key))
    p_int.add_argument("--config")
    p_int.set_defaults(func=cmd_integrate)

    p_cls = sub.add_parser("classify", help="classify a 10-parameter family member")
    p_cls.add_argument("params", help="10 comma-separated rationals"
                                      " a,b,c,d,e,A,B,C,D,E")
    p_cls.add_argument("--certify", action="store_true",
                       help="attach the exact elimination certificate")
    p_cls.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", help=f"one of {', '.join([*SUITE_NAMES, 'all'])}")
    p_ver.add_argument("--seed", default="7")
    p_ver.add_argument("--tol", default="1e-9")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # the package logger gets one handler of its own, so each call logs to the
    # stderr current at that call and handlers installed by others stay
    level = logging.getLevelName(os.environ.get("BIRAT_LOG", "WARNING").upper())
    package_log = logging.getLogger("birat")
    package_log.setLevel(level if isinstance(level, int) else logging.WARNING)
    if _LOG_HANDLER not in package_log.handlers:
        package_log.addHandler(_LOG_HANDLER)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:  # so that a stdout closed early fails here, not at exit
            sys.stdout.flush()
        return code
    except ConfigError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BiratError as exc:
        print(f"{parser.prog}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:  # writing the output failed: a closed pipe, a full disk
        print(f"{parser.prog}: error: output: {exc}", file=sys.stderr)
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except OSError:  # stdout is gone; pointed at os.devnull, its flush at exit cannot fail
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
