#!/usr/bin/env python3
"""Drive the Schnakenberg map past its Hopf threshold and watch the cycle.

Picks b so the steady state is unstable (positive Jacobian trace), starts
slightly off the steady state, and reports how the return map onto the
section x = x* settles onto a closed curve.  Writes the full trajectory as
CSV.
"""
import argparse
import csv
import sys

from birat.geomcheck import Trajectory, iterate_map, transversal_crossings
from birat.models import (
    SchnakenbergParams,
    hopf_unstable_b,
    schnakenberg_steady_state,
    schnakenberg_step,
    schnakenberg_trace,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=float, default=0.1)
    ap.add_argument("--b", type=float, default=None,
                    help="defaults to the smallest grid value with trace > 0.25")
    ap.add_argument("--h", type=float, default=0.01)
    ap.add_argument("--steps", type=int, default=60000)
    ap.add_argument("--offset", type=float, default=0.1,
                    help="relative displacement of x0 from the steady state")
    ap.add_argument("--output", default="schnakenberg_cycle.csv")
    args = ap.parse_args(argv)

    b = args.b if args.b is not None else hopf_unstable_b(args.a)
    p = SchnakenbergParams(args.a, b)
    xs, ys = schnakenberg_steady_state(p)
    print(f"a = {args.a}, b = {b:g}; steady state ({xs:g}, {ys:g}),"
          f" trace {schnakenberg_trace(p):.4f}")

    states = iterate_map(
        lambda s: schnakenberg_step(p, s[0], s[1], args.h),
        [(1.0 + args.offset) * xs, ys], args.steps)

    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y"])
        for k, (x, y) in enumerate(states):
            writer.writerow([k * args.h, x, y])
    print(f"wrote {args.output} ({args.steps + 1} rows)")

    traj = Trajectory(states, args.h)
    returns = [float(s[1]) for s in transversal_crossings(traj, 0, xs, increasing=True)]
    if len(returns) < 2:
        print("fewer than two section returns; lengthen the run")
        return 1
    print(f"{len(returns)} returns through x = x* (upward); y values:")
    for k, val in enumerate(returns):
        change = "" if k == 0 else \
            f"  rel change {abs(val - returns[k - 1]) / abs(returns[k - 1]):.2e}"
        print(f"  {k + 1:3d}: y = {val:.6f}{change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
