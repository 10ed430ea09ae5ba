"""Alternating benchmark pairs: a parent checkout against a change checkout.

    python scripts/bench_pairs.py --parent PARENT_DIR --workload suite-below --pairs 10

Each pair runs ``perfbench/run.py --workload W`` once in each checkout,
with a new seed per pair; the side that runs first alternates from pair
to pair. The change checkout defaults to the one holding this script.
Writes ``BENCH_<W>.json`` at the root of the checkout holding this
script: every run's four end-to-end metrics, its commit and its
correctness and its per-operation medians, plus each metric's first
quartile, median and third quartile per side, the number of pairs in
which the change read lower (ties count for neither side), and per side
each operation's median seconds: the median over the side's runs of
each run's median over its passes, read from the run records'
``passes[*].ops``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "pass_s", "op_p50_s", "peak_rss_mb")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in a checkout: its result and record."""
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(res.stdout.strip().splitlines()[-1])
    record = json.loads((checkout / "perfbench" / "runs"
                         / f"{workload}-seed{seed}-trace0.json").read_text())
    op_s = {}
    for p in record["passes"]:
        for op in p["ops"]:
            op_s.setdefault(op["name"], []).append(op["s"])
    return {"git_sha": record["git_sha"], "env": record["env"],
            "correct": result["correct"], "failed": result["failed"],
            "metrics": {m: result["metrics"][m]["value"] for m in METRICS},
            "op_median_s": {name: statistics.median(s) for name, s in op_s.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="the parent's checkout")
    ap.add_argument("--change", default=ROOT, type=Path, help="the change's checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            run = {"pair": k, "seed": seed, "side": side, "first": side == order[0],
                   **run_once(sides[side], args.workload, seed, args.seconds)}
            runs.append(run)
            print(json.dumps({key: run[key] for key in ("pair", "side", "correct", "metrics")}),
                  flush=True)
    by_side = {side: [r for r in runs if r["side"] == side] for side in sides}
    quartiles = {side: {m: statistics.quantiles([r["metrics"][m] for r in rs], n=4)
                        for m in METRICS} for side, rs in by_side.items()}
    lower = {m: sum(c["metrics"][m] < p["metrics"][m]
                    for p, c in zip(by_side["parent"], by_side["change"])) for m in METRICS}
    op_median = {side: {name: statistics.median(r["op_median_s"][name] for r in rs)
                        for name in rs[0]["op_median_s"]} for side, rs in by_side.items()}
    out = {"workload": args.workload, "seconds": args.seconds, "pairs": args.pairs,
           "runs": runs, "q1_median_q3": quartiles, "change_lower_in_pairs": lower,
           "op_median_s": op_median}
    path = ROOT / f"BENCH_{args.workload}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps({"q1_median_q3": quartiles, "change_lower_in_pairs": lower}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
