"""focksobolev benchmark: fresh-process passes over one workload.

    python3 perfbench/run.py --workload suite-n1 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Passes run one after another, each in a fresh worker process, until
``--seconds`` have gone by and at least ``MIN_PASSES`` have run. Set-up
is timed in every pass worker and in extra set-up-only workers, so that
every run has at least ``SETUP_SAMPLES`` of it. With ``--trace 1`` one more pass runs with
spans around the package's public functions, and the per-layer metrics
come from it; the end-to-end metrics are never taken from a traced pass.

Every operation's output is checked against ``oracles``. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a record of the run, and the spans of a traced pass, are
written under ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
sys.path.insert(0, str(HERE))

from tracing import metric_names  # noqa: E402

WORKLOADS = ("suite-n1", "suite-below", "suite-n2", "norms")
SETUP_SAMPLES = 5
# suite-below's median operation falls among its measure verdicts, which
# vary most with the machine's speed; with one pass per run its op_p50_s
# spread over ten runs was 0.36, so it pools two passes.
MIN_PASSES = {"suite-below": 2}
# A run must end within 180 s; workers get what is left of this.
BUDGET_S = 170.0


class BenchError(Exception):
    pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "focksobolev" / "__init__.py").is_file():
        print(f"error: no focksobolev sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    RUNS.mkdir(exist_ok=True)
    if args.trace:
        spans = record["trace"].pop("spans")
        path = RUNS / f"{args.workload}-seed{args.seed}.spans.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        record["trace"]["spans_file"] = str(path.relative_to(ROOT))
        tr = record["trace"]
        print(f"traced pass {tr['pass_s']:.3f} s, untraced {tr['untraced_pass_s']:.3f} s, "
              f"overhead {tr['overhead_s']:+.3f} s ({tr['span_count']} spans, about "
              f"{tr['estimated_overhead_s']:.3f} s of wrapper cost); self times cover "
              f"{tr['pass_self_s']:.3f} s of the traced pass")
    path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for err in record["errors"][:10]:
        print(f"failed: {err}")
    print(json.dumps(record["result"]))
    return 0


def run(args) -> dict:
    deadline = time.monotonic() + BUDGET_S
    start = time.monotonic()
    passes = []
    min_passes = MIN_PASSES.get(args.workload, 1)
    while len(passes) < min_passes or time.monotonic() - start < args.seconds:
        passes.append(_worker(args, "pass", deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker(args, "setup", deadline)["setup_s"])
    traced = _worker(args, "trace", deadline) if args.trace else None

    checked = passes + ([traced] if traced else [])
    errors = [f"{op['name']}: {op['error']}" for p in checked for op in p["ops"] if op["error"]]
    attempted = sum(len(p["ops"]) for p in checked)
    # The outputs of operations that did not fail must repeat exactly in
    # every pass of the run, the traced one included.
    digests = {}
    for p in checked:
        for op in p["ops"]:
            if op["digest"] is not None:
                digests.setdefault(op["name"], set()).add(op["digest"])
    unsteady = sorted(name for name, seen in digests.items() if len(seen) > 1)

    pass_s = statistics.median(p["pass_s"] for p in passes)
    if traced:
        metrics = {name: {"value": traced["metrics"][name], "unit": unit}
                   for name, unit in metric_names()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "op_p50_s": {"value": statistics.median(op["s"] for p in passes for op in p["ops"]),
                         "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                            "unit": "MB"},
        }
    result = {"correct": not unsteady, "attempted": attempted, "failed": len(errors),
              "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": None, "git_sha": _git_sha(), "env": passes[0]["env"],
        "passes": [{k: p[k] for k in ("setup_s", "pass_s", "peak_rss_mb", "ops")}
                   for p in passes],
        "setup_samples": setups, "errors": errors, "unsteady_outputs": unsteady,
        "result": result,
    }
    if traced:
        record["trace"] = {
            "pass_s": traced["pass_s"], "untraced_pass_s": pass_s,
            "overhead_s": traced["pass_s"] - pass_s,
            "pass_self_s": traced["pass_self_s"],
            "unaccounted_s": traced["pass_s"] - traced["pass_self_s"],
            "span_count": len(traced["spans"]),
            "estimated_overhead_s": traced["span_cost_s"] * len(traced["spans"]),
            "ops": traced["ops"], "spans": traced["spans"],
        }
    return record


def _worker(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), args.workload,
           str(args.seed), mode]
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"time budget of {BUDGET_S:.0f} s used up before a {mode} worker")
    try:
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker ran past the {BUDGET_S:.0f} s budget")
    if res.returncode != 0:
        raise BenchError(f"{mode} worker exited {res.returncode}: {res.stderr.strip()[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def _git_sha():
    """Commit of the checkout, read from .git without leaving it; None
    where the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
