"""Alternating parent/change pairs of benchmark runs, and their summary.

    python tools/bench_pairs.py PARENT CHANGE --workload witness-pert
                                [--pairs 12] [--seeds 0,1,2,3,4] [--out FILE]

PARENT and CHANGE are two checkouts of the repository (for instance a
``git archive`` of the parent commit unpacked next to the working tree).
Pair i runs one worker of each, the parent first when i is even and the
change first when i is odd, each checkout's own ``perfbench/worker.py``
with its checkout as working directory, the BLAS and OpenMP thread counts
pinned to 1 and ``PYTHONDONTWRITEBYTECODE=1``, at seed ``seeds[i % len]``.
``setup_s`` is taken from spawn to the end of set-up, as
``perfbench/run.py`` takes it.  The summary holds, per metric, the
quartiles of each side, the pairs the change won (lower is better), the
parent's interquartile range and the gap of the medians, plus whether the
outputs of the two sides were identical seed by seed.  It is printed as
JSON and written to FILE if given.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def run_worker(checkout: str, workload: str, seed: int) -> dict:
    """One worker run of a checkout; its JSON line with setup_s added."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", str(seed)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=True)
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep.pop("setup_end") - spawned
    rep["seed"] = seed
    return rep


def quartiles(values: list) -> dict:
    """q1, median and q3 (the inclusive method of `statistics.quantiles`)."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarize(parent: list, change: list) -> dict:
    """The pair summary of two equally long lists of worker reports, where
    parent[i] and change[i] ran as pair i."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs, with one run of each side per pair")
    out = {"pairs": len(parent)}
    for name in METRICS:
        a = [r[name] for r in parent]
        b = [r[name] for r in change]
        pa, pb = quartiles(a), quartiles(b)
        wins = sum(y < x for x, y in zip(a, b))
        iqr, gap = pa["q3"] - pa["q1"], pa["median"] - pb["median"]
        out[name] = {
            "parent": pa,
            "change": pb,
            "change_better_pairs": f"{wins}/{len(a)}",
            "parent_iqr": iqr,
            "median_gap": gap,
            # the rule for a claimed gain: 9 wins in 10 and a gap beyond the spread
            "gain_met": wins * 10 >= 9 * len(a) and gap > iqr,
        }
    out["failed_ops"] = {
        "parent": sum(len(r["failed"]) for r in parent),
        "change": sum(len(r["failed"]) for r in change),
    }
    out["outputs_identical"] = all(
        x["seed"] == y["seed"] and x["outputs"] == y["outputs"] for x, y in zip(parent, change)
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=12)
    ap.add_argument("--seeds", default="0,1,2,3,4")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    seeds = [int(x) for x in args.seeds.split(",")]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run_worker(getattr(args, side), args.workload, seed))
    summary = {"workload": args.workload, **summarize(runs["parent"], runs["change"])}
    summary["runs"] = {
        side: [{k: r[k] for k in ("seed", *METRICS)} for r in reps] for side, reps in runs.items()
    }
    text = json.dumps(summary, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
