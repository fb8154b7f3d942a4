#!/usr/bin/env python3
"""Digest the output of a fixed set of birat CLI runs, to compare two checkouts byte for byte.

Each run is `python -m birat.cli <argv>` in a child process, with the `src`
directory of the chosen checkout on PYTHONPATH. One line per run is printed:
the exit code, the sha256 of stdout, the sha256 of stderr and the argv. Run
the script once per checkout and diff the two listings:

    python3 scripts/cli_digest.py --root /path/to/a > a.txt
    python3 scripts/cli_digest.py --root /path/to/b > b.txt
    diff a.txt b.txt

The set covers `verify` (all suites at two seeds, each suite alone),
`integrate` in CSV and JSON for every model and method pairing, three runs
that stop at a typed map failure, eleven short runs whose outcome the model
table decides (rejected `--params`, custom parameters, the `h > eps` warning,
a wrong `x0` dimension), and `classify --certify` on the Kahan,
Mickens and case-VI schemes, on the all-1/4 set, which is not certified, and
on one member of each birational case template i-vii.  Appended last, so the
earlier lines keep their order: numbers beyond the float range in `--h`,
`--x0` and `--params`, a backward run with |h| > eps, `classify --certify`
on a non-case set with unequal denominators up to 12, CSV and JSON runs of
more than two blocks of output rows (one backward, one that stops at a map
failure after two blocks), a partial enzyme4 `--params` set, an `--output`
that cannot be opened, explicit Euler on enzyme3 and enzyme4, and a negative
`--tol` to `integrate --method lv-family` and to `verify roundtrip`; then a
case-VI lv-family step just off its pole line x = 52.5, and lv-family config
files whose `params` is a number, a boolean or an object; then decimal
exponents beyond the CLI's bound in `--h`, `--x0`, `--tol`, enzyme3 and
lv-family `--params`, `classify` and a config-file string, and a tiny
`1e-400` in `--x0`, which still parses to 0.  A config-file run reads its
JSON from standard input, and its line ends with `< <the JSON>`.

After the CLI runs come the three example scripts of the checkout's
`scripts/`, each run at its default arguments in a fresh temporary directory.
Their lines hold the exit code, the sha256 of stdout and of stderr, the
script's path and `name=sha256` for every CSV file it wrote, by name.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

MICKENS = "2,0,0,0,1,0,0,-1,0,2"
SUITES = ("conservation", "symplectic", "roundtrip", "convergence", "multipliers")
INTEGRATE = (
    ["--model", "enzyme3", "--method", "kahan", "--h", "1e-3"],
    ["--model", "enzyme4", "--method", "kahan", "--h", "1e-2"],
    ["--model", "lv", "--method", "kahan", "--h", "0.01"],
    ["--model", "lv", "--method", "kahan-series:2", "--h", "0.01"],
    ["--model", "lv", "--method", "euler", "--h", "0.01"],
    ["--model", "lv", "--method", "lv-family", "--params", MICKENS, "--h", "0.01"],
    ["--model", "schnakenberg", "--method", "schnakenberg", "--h", "0.01"],
    ["--model", "schnakenberg", "--method", "euler", "--h", "0.01"],
)
# What models.MODELS decides: allowed --params keys, parameter checks, the quadratic
# field, the fast scale behind the h > eps warning and the state dimension.
TABLE = (
    ["--model", "enzyme3", "--method", "kahan", "--h", "1e-3", "--params", "foo=1"],
    ["--model", "enzyme3", "--method", "kahan", "--h", "1e-3", "--params", "mu=0.5"],
    ["--model", "enzyme3", "--method", "kahan", "--h", "1e-3",
     "--params", "mu=0.7,nu=0.6,eps=0.1"],
    ["--model", "enzyme4", "--method", "kahan", "--h", "1e-2",
     "--params", "k1=-1,km1=0.5,k2=0.1"],
    ["--model", "lv", "--method", "kahan", "--h", "0.01", "--params", "a=1"],
    ["--model", "schnakenberg", "--method", "schnakenberg", "--h", "0.01",
     "--params", "a=0.2,b=0.6"],
    ["--model", "schnakenberg", "--method", "kahan", "--h", "0.01"],
    ["--model", "enzyme3", "--method", "kahan", "--h", "0.1"],
    ["--model", "enzyme4", "--method", "kahan", "--h", "0.1"],
    ["--model", "enzyme4", "--method", "kahan", "--h", "1e-2",
     "--params", "k1=2,km1=0.3,k2=0.4,s0=2,e0=0.05"],
    ["--model", "enzyme3", "--method", "kahan", "--h", "1e-3", "--x0", "1,0"],
)
CERTIFY = (
    "1/2,0,0,1/2,1/2,1/2,0,0,1/2,1/2",  # KAHAN_SCHEME
    MICKENS,  # MICKENS_SCHEME
    "1/2,0,3/2,-1/2,0,1/2,4/5,0,1/5,0",  # CASE_VI_SCHEME
    ",".join(["1/4"] * 10),  # NOT_CERTIFIED
    "1/3,0,0,1/4,3/4,2/3,0,0,-1/2,3/2",  # i
    "1/2,0,0,1,0,1/3,1/2,0,1/4,1/4",  # ii
    "2/3,0,0,0,1,1/2,0,-1/3,1/2,5/6",  # iii
    "1/4,1/2,0,-1,3/2,3/4,0,0,0,1",  # iv
    "3/4,0,2,-1/2,-1/2,1/4,0,0,1,0",  # v
    "1/3,0,1/2,1/2,0,2/3,-1,0,2,0",  # vi, symplectic III
    "1/5,1/4,0,0,3/4,1/2,0,3/2,0,-1/2",  # vii, symplectic I
)
# Runs added after the lists above; appended at the end of the listing.
LATER = (
    ["integrate", "--model", "lv", "--method", "kahan", "--h", "1e400", "--steps", "2"],
    ["integrate", "--model", "lv", "--method", "kahan", "--h", "0.01", "--x0", "1e400,1",
     "--steps", "2"],
    ["integrate", "--model", "enzyme3", "--method", "kahan", "--h", "1e-3",
     "--params", "mu=0.5,nu=1e400,eps=0.1", "--steps", "2"],
    ["integrate", "--model", "enzyme3", "--method", "kahan", "--h", "-0.1", "--steps", "200"],
    ["classify", "5/12,1/6,1/4,1/3,1/4,7/11,1/12,1/3,1/4,1/3", "--certify"],  # non-case
    *(["integrate", "--model", "lv", "--method", "lv-family", "--params", MICKENS,
       "--h", "-0.01", "--steps", "9000", "--format", fmt] for fmt in ("csv", "json")),
    # NonFiniteState at step 9000, after two full blocks of output rows
    *(["integrate", "--model", "lv", "--method", "euler", "--h", "0.03",
       "--steps", "20000", "--format", fmt] for fmt in ("csv", "json")),
    ["integrate", "--model", "enzyme4", "--method", "kahan", "--h", "1e-2",
     "--params", "k1=2,km1=0.3,k2=0.4", "--steps", "200"],
    ["integrate", "--model", "lv", "--method", "kahan", "--h", "0.01", "--steps", "200",
     "--output", "no-such-dir/traj.csv"],
    ["integrate", "--model", "enzyme3", "--method", "euler", "--h", "1e-3", "--steps", "20000"],
    ["integrate", "--model", "enzyme4", "--method", "euler", "--h", "1e-2", "--steps", "20000"],
    ["integrate", "--model", "lv", "--method", "lv-family", "--params", MICKENS,
     "--h", "0.01", "--steps", "200", "--tol", "-1"],
    ["verify", "roundtrip", "--tol", "-1"],
    ["integrate", "--model", "lv", "--method", "lv-family",
     "--params", "1/2,0,3/2,-1/2,0,1/2,4/5,0,1/5,0", "--h", "0.1", "--x0", "52.500001,0.5",
     "--steps", "1"],
)
# Config files, fed on standard input; appended after LATER.
CONFIGS = tuple({"model": "lv", "method": "lv-family", "h": 0.1, "steps": 2, "params": params}
                for params in (1, True, 1e-300, {"a": 1}))
# Decimal exponents beyond the bound, rejected before Fraction builds the value;
# appended after CONFIGS, the config-file run last.
HUGE = "1e3000000"
EXPONENTS = (
    ["integrate", "--model", "lv", "--method", "kahan", "--h", HUGE, "--steps", "2"],
    ["integrate", "--model", "lv", "--method", "kahan", "--h", "0.01", "--x0", f"{HUGE},1",
     "--steps", "2"],
    ["integrate", "--model", "lv", "--method", "kahan", "--h", "0.01", "--tol", "1e-3000000",
     "--steps", "2"],
    ["integrate", "--model", "enzyme3", "--method", "kahan", "--h", "1e-3",
     "--params", f"mu=0.5,nu={HUGE},eps=0.1", "--steps", "2"],
    ["integrate", "--model", "lv", "--method", "lv-family",
     "--params", f"{HUGE},1,0,0,0,1/2,0,0,1/2,1/2", "--h", "0.1", "--steps", "2"],
    ["classify", f"{HUGE},1,0,0,0,1/2,0,0,1/2,1/2"],
    ["integrate", "--model", "lv", "--method", "kahan", "--h", "0.01", "--x0", "1e-400,1",
     "--steps", "2"],
)
EXPONENT_CONFIG = {"model": "lv", "method": "kahan", "h": "1e-3000000", "steps": 2}
EXAMPLES = ("enzyme_transient", "lv_scheme_comparison", "schnakenberg_limit_cycle")


def runs() -> list[tuple[list[str], str | None]]:
    """(argv, text on standard input or None) of every run, in listing order."""
    out = [["verify", "all", "--seed", "7"], ["verify", "all", "--seed", "1"]]
    out += [["verify", suite] for suite in SUITES]
    out += [["integrate", *spec, "--steps", "20000", "--format", fmt]
            for spec in INTEGRATE for fmt in ("csv", "json")]
    # SingularStepMatrix at step 31, NonFiniteState at step 11, and NonFiniteState at
    # step 1 coming out of the LAPACK solve: the step matrix holds infinities, its
    # pivots NaN, and the pivot check lets NaN through as np.min and np.max do
    out.append(["integrate", "--model", "lv", "--method", "kahan", "--h", "3",
                "--steps", "100"])
    out.append(["integrate", "--model", "lv", "--method", "euler", "--h", "0.9",
                "--x0", "8,0.01", "--steps", "400"])
    out.append(["integrate", "--model", "enzyme3", "--method", "kahan", "--h", "1",
                "--x0", "1e308,-1e308,1e308", "--steps", "5"])
    out += [["integrate", *spec, "--steps", "200"] for spec in TABLE]
    out += [["classify", params, "--certify"] for params in CERTIFY]
    out += [list(run) for run in LATER]
    from_stdin = ["integrate", "--config", "/dev/stdin"]
    return ([(run, None) for run in out]
            + [(from_stdin, json.dumps(cfg)) for cfg in CONFIGS]
            + [(list(run), None) for run in EXPONENTS]
            + [(from_stdin, json.dumps(EXPONENT_CONFIG))])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="checkout whose src/ is run (default: this script's checkout)")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    src = root / "src"
    if not (src / "birat" / "__init__.py").is_file():
        print(f"cli_digest: no birat sources under {src}", file=sys.stderr)
        return 1
    env = dict(os.environ, PYTHONPATH=str(src))
    for run, stdin in runs():
        proc = subprocess.run([sys.executable, "-m", "birat.cli", *run],
                              capture_output=True, env=env, cwd=root,
                              input=None if stdin is None else stdin.encode())
        print(proc.returncode, sha256(proc.stdout), sha256(proc.stderr), " ".join(run),
              *([] if stdin is None else ["<", stdin]), flush=True)
    for name in EXAMPLES:
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run([sys.executable, str(root / "scripts" / f"{name}.py")],
                                  capture_output=True, env=env, cwd=tmp)
            written = [f"{path.name}={sha256(path.read_bytes())}"
                       for path in sorted(Path(tmp).glob("*.csv"))]
        print(proc.returncode, sha256(proc.stdout), sha256(proc.stderr),
              f"scripts/{name}.py", *written, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
