#!/usr/bin/env python3
"""Compare named discretizations of the predator-prey system on one orbit.

For each scheme the script iterates from the same initial point, writes a
CSV per scheme, and prints the case classification, the worst weighted
symplectic residual along the orbit, the oscillation and trend of
H = log(x y) - x - y, and the coarse orbit verdict.
"""
import argparse
import csv
import sys
from fractions import Fraction

from birat.geomcheck import energy_profile, iterate_map, orbit_verdict
from birat.lvfamily import (
    CASE_VI_SCHEME,
    KAHAN_SCHEME,
    MICKENS_SCHEME,
    case_iv_blend,
    classify_params,
    lv_hamiltonian,
    lv_stepper,
    symplectic_residual,
)

SCHEMES = {
    "kahan": KAHAN_SCHEME,
    "mickens": MICKENS_SCHEME,
    "case-vi": CASE_VI_SCHEME,
    "blend-d0": case_iv_blend(Fraction(0)),
    "blend-d1": case_iv_blend(Fraction(1)),
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--x0", type=float, default=2.0)
    ap.add_argument("--y0", type=float, default=0.5)
    ap.add_argument("--h", type=float, default=0.01)
    ap.add_argument("--steps", type=int, default=20000)
    ap.add_argument("--schemes", nargs="*", default=sorted(SCHEMES),
                    choices=sorted(SCHEMES))
    ap.add_argument("--prefix", default="lv_")
    args = ap.parse_args(argv)

    for name in args.schemes:
        scheme = SCHEMES[name]
        report = classify_params(scheme)
        states = iterate_map(lv_stepper(scheme, args.h), [args.x0, args.y0], args.steps)

        path = f"{args.prefix}{name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "y"])
            for k, (x, y) in enumerate(states):
                writer.writerow([k * args.h, x, y])

        worst_res = max(
            abs(symplectic_residual(scheme, x, y, args.h))
            for x, y in states[:: max(1, args.steps // 200)])
        energy = lambda s: lv_hamiltonian(s[0], s[1])
        try:
            osc, slope = energy_profile(states, args.h, energy)
            verdict = orbit_verdict(states, args.h, monitor=energy)
            h_line = f"H oscillation {osc:.3e}, trend {slope:.3e}"
        except Exception:  # orbit left the positive quadrant
            verdict = orbit_verdict(states, args.h)
            h_line = "H undefined along parts of the orbit"

        cases = ",".join(report.birational_cases) or "-"
        symp = ",".join(report.symplectic_cases) or "-"
        print(f"{name}: cases {cases}; symplectic {symp}")
        print(f"  wrote {path}; max |det residual| {worst_res:.3e}; {h_line}")
        print(f"  verdict {verdict.kind}"
              f" (amplitude ratio {verdict.amplitude_ratio:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
