#!/usr/bin/env python3
"""Run the weighted composition operator suite and compare against
direct probe norms and essential norm estimates.

Each scenario row shows the classification verdict, the norm estimate
from the transform criterion, the direct probe norm, and, for bounded
scenarios with p = q, the essential norm estimate. A scenario whose
pullback weight overflows the float range gets no verdict, only its
direct probe norm.
"""

import argparse
import math

import focksobolev as fs


def fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return f"{x:.4f}"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1, choices=(1, 2))
    ap.add_argument("--m", type=int, default=0)
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--q", type=float, default=2.0)
    ap.add_argument("--alpha", type=float, default=1.0)
    args = ap.parse_args()

    params = fs.Params(n=args.n, alpha=args.alpha, m=args.m, p=args.p, q=args.q)
    can_essential = 1.0 < args.p < math.inf and args.p <= args.q < math.inf
    print(f"{'scenario':<20} {'bounded':>7} {'compact':>7} "
          f"{'estimate':>9} {'direct':>9} {'essential':>9}")
    for scen in fs.composition_suite(params):
        direct = fs.direct_operator_norm(scen.symbol, params)
        try:
            v = fs.classify_compop(scen.symbol, params)
        except fs.EvaluationOverflow:
            # an overflowing pullback weight is no verdict
            print(f"{scen.name:<20} {'-':>7} {'-':>7} {'-':>9} {fmt(direct):>9} {'-':>9}"
                  "  <- unexpected: pullback overflow, no verdict")
            continue
        ess = "-"
        if can_essential and v.bounded:
            ess = fmt(fs.essential_norm_estimate(scen.symbol, params))
        mark = "" if (v.bounded, v.compact) == (scen.expect_bounded, scen.expect_compact) \
            else "  <- unexpected"
        print(f"{scen.name:<20} {str(v.bounded):>7} {str(v.compact):>7} "
              f"{fmt(v.norm_estimate):>9} {fmt(direct):>9} {ess:>9}{mark}")


if __name__ == "__main__":
    main()
