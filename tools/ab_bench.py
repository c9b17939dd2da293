"""A/B comparison of two checkouts on one perfbench workload.

    python tools/ab_bench.py --parent DIR --workload verdict-high \
        --seeds 9941-9950 [--seconds 10]

DIR is a second checkout of the program (for example made with
`git archive`); the other side is the checkout this script lives in.  For
each seed the two sides run `perfbench/run.py --trace 0` one after the
other, and the side that goes first alternates from seed to seed.  Before
every run the script removes each `__pycache__` directory under that side's
`src` and `perfbench`, and it starts run.py with PYTHONDONTWRITEBYTECODE=1.
So every process of either side compiles the modules it imports from
source: the set-up, CLI and memory numbers include that compile time on
both sides alike, as in a fresh checkout run without writable bytecode,
and no side mixes stale and fresh bytecode.

The script only starts `perfbench/run.py` as a subprocess and reads the
last line of its stdout; run.py writes its own result files.  It prints
each run's `attempted` op count next to its metrics, and each side's median
count in the summary: the harness keeps a record per op, so a memory figure
is read against the op count.  The line after the counts turns the two
sides' medians into the KB of `peak_rss_mb` per extra attempted op, and
into the ratio of op counts, change over parent, at which memory growing at
that rate would reach the `peak_rss_mb` bound.  It reads n/a unless the op
count rose and the working tree's median memory lies above the parent's
interquartile range: a rise within the parent's own spread is noise, not a
cost per op.  It prints, per end-to-end metric, each
side's median and quartiles and the number of seeds on which the working
tree was better, in the direction BENCHMARK.json gives for that metric,
and applies the acceptance rule with that metric's `bound` from
BENCHMARK.json:

* `worse`: the working tree's median is worse than the parent's by more
  than bound x the parent's median;
* `unresolved`: the parent's interquartile range exceeds bound x its
  median, so the runs spread too widely to tell; except when every run of
  the working tree reads better than every run of the parent.

The exit status is 1 when any metric is `worse` or any run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(tree, workload, seed, seconds):
    """The metrics of one --trace 0 run in `tree`, whether it was correct and
    how many ops it attempted.  No bytecode is read or written."""
    for cache in [c for d in ("src", "perfbench") for c in Path(tree, d).rglob("__pycache__")]:
        shutil.rmtree(cache)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if proc.returncode != 0:
        raise RuntimeError(f"run.py failed in {tree} (seed {seed}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return ({k: m["value"] for k, m in result["metrics"].items()}, result["correct"],
            result["attempted"])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(old, new, direction, bound):
    """The acceptance-rule tags of one metric: `worse`, `unresolved`, both or none."""
    (p1, p2, p3), (_c1, c2, _c3) = quartiles(old), quartiles(new)
    sign = 1 if direction == "higher" else -1
    tags = []
    if sign * (p2 - c2) > bound * abs(p2):
        tags.append("worse")
    separated = min(sign * x for x in new) > max(sign * x for x in old)
    if p3 - p1 > bound * abs(p2) and not separated:
        tags.append("unresolved")
    return tags


def memory_per_op(old_mb, new_mb, old_ops, new_ops, bound):
    """(KB of peak memory per extra op, op-count ratio at which memory
    reaches `bound`) from the two sides' peak_rss_mb runs and median op
    counts, or None unless the op count rose and the median of `new_mb` lies
    above the upper quartile of `old_mb`.  peak_rss_mb is ru_maxrss / 1024,
    so 1 MB is 1024 KB."""
    (_p1, old_mb, p3), new_mb = quartiles(old_mb), statistics.median(new_mb)
    if new_ops <= old_ops or new_mb <= p3:
        return None
    mb_per_op = (new_mb - old_mb) / (new_ops - old_ops)
    return 1024 * mb_per_op, 1 + bound * old_mb / mb_per_op / old_ops


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path,
                    help="the checkout to compare the working tree against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 9941-9950 or 1,5,9")
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args()
    metrics = json.loads((HERE / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: (m["better"], m["bound"]) for m in metrics}
    rss_bound = better["peak_rss_mb"][1]
    sides = {"parent": args.parent.resolve(), "change": HERE}
    runs = {"parent": [], "change": []}
    attempted = {"parent": [], "change": []}
    all_correct = True
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            metrics, correct, ops = run_once(sides[side], args.workload, seed, args.seconds)
            runs[side].append(metrics)
            attempted[side].append(ops)
            print(f"seed {seed} {side}: correct={correct} attempted={ops} "
                  + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)
            if not correct:
                all_correct = False
                print(f"seed {seed} {side}: run.py reports an incorrect run", flush=True)
    pairs = len(runs["change"])
    print(f"\n{args.workload}, {pairs} pairs: median [q1, q3] parent -> change, wins, "
          "acceptance")
    old_ops, new_ops = (statistics.median(attempted[side]) for side in ("parent", "change"))
    print(f"{'attempted':12s} {old_ops:10g} -> {new_ops:10g} ops per run (median)")
    old_mb, new_mb = ([r["peak_rss_mb"] for r in runs[side]] for side in ("parent", "change"))
    per_op = memory_per_op(old_mb, new_mb, old_ops, new_ops, rss_bound)
    print(f"{'memory':12s} " + ("n/a" if per_op is None else
          f"{per_op[0]:.3g} KB of peak_rss_mb per extra op; at that rate the "
          f"{rss_bound:g} bound is reached at {per_op[1]:.3g}x the parent's ops"))
    any_worse = False
    for name, (direction, bound) in better.items():
        old = [r[name] for r in runs["parent"]]
        new = [r[name] for r in runs["change"]]
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for a, b in zip(old, new) if sign * (b - a) > 0)
        (p1, p2, p3), (c1, c2, c3) = quartiles(old), quartiles(new)
        tags = verdict(old, new, direction, bound)
        any_worse = any_worse or "worse" in tags
        change = f"{c2 / p2 - 1:+7.1%}" if p2 else "    n/a"
        print(f"{name:12s} {p2:10.4g} [{p1:.4g}, {p3:.4g}] -> {c2:10.4g} "
              f"[{c1:.4g}, {c3:.4g}]  {change}  wins {wins}/{pairs}  "
              f"{' '.join(tags) or 'ok'} (bound {bound:g})")
    if not all_correct:
        print("some run was incorrect")
    return 1 if any_worse or not all_correct else 0


if __name__ == "__main__":
    sys.exit(main())
