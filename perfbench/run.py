"""Time-to-certificate benchmark of blowup_lab.

    python3 perfbench/run.py --workload {shoot-pure,witness-pert,physical}
                             --seed N --seconds S --trace {0,1}

Each repetition runs in a fresh interpreter (``worker.py``) with
OMP/OPENBLAS/MKL/NUMEXPR_NUM_THREADS=1 set before numpy is imported.
Repetitions follow one another until the next would end after S seconds;
there is always at least one.

``--trace 0`` reports the end-to-end metrics: the median ``wall_s`` and
``peak_rss_mb`` over the repetitions, the median ``setup_s`` over at least
five set-ups (set-up-only workers top the count up), and ``ops_ok_share``,
the share of operations that passed.  ``--trace 1`` runs untraced and
traced repetitions in pairs, checks that both produce bit-identical
outputs, and reports the per-layer metrics of the traced ones (medians),
together with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A readable table,
the machine facts and the full record go before it; the record is also
written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("shoot-pure", "witness-pert", "physical")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_SETUPS = 5
# every worker must end before this many seconds from the start, so the
# whole run exits well inside three minutes even if a repetition stalls
HARD_LIMIT_S = 170.0


class Budget:
    """Start time of the run and the deadlines derived from it."""

    def __init__(self, seconds: float):
        self.t0 = time.monotonic()
        self.seconds = seconds

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def room_for(self, duration: float) -> bool:
        """Whether another repetition of this length ends inside --seconds."""
        return self.elapsed() + duration <= self.seconds

    def worker_timeout(self) -> float:
        return max(1.0, HARD_LIMIT_S - self.elapsed())


def run_worker(workload: str, seed: int, budget: Budget, *flags: str) -> dict:
    """One repetition in a fresh process; a crash or timeout is returned as such."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=budget.worker_timeout())
    except subprocess.TimeoutExpired:
        return {"crashed": "timed out", "duration": time.monotonic() - spawned}
    duration = time.monotonic() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"crashed": f"exit code {proc.returncode}: {' | '.join(tail)}",
                "duration": duration}
    rep = json.loads(lines[-1])
    rep["setup_s"] = rep.pop("setup_end") - spawned
    rep["duration"] = duration
    return rep


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
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
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "blowup_lab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "thread_pins": {var: "1" for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _check_outputs(reps: list, ops: list) -> None:
    """Every repetition of one seed must give bit-identical outputs."""
    done = [r for r in reps if "crashed" not in r and not r["error"]]
    for r in done[1:]:
        ops.append(("outputs-bitwise-equal-across-repetitions",
                    r["outputs"] == done[0]["outputs"]))


def _tally(reps: list, ops: list) -> tuple[int, list]:
    attempted = len(ops)
    failed = [name for name, ok in ops if not ok]
    for r in reps:
        if "crashed" in r:
            attempted += 1
            failed.append("worker: " + r["crashed"])
        else:
            attempted += r["attempted"]
            failed += r["failed"]
    return attempted, failed


def metric_units(key: str) -> dict:
    """Metric names and units as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def measure(workload: str, seed: int, budget: Budget) -> tuple:
    reps = []
    while True:
        reps.append(run_worker(workload, seed, budget))
        if "crashed" in reps[-1] or not budget.room_for(reps[-1]["duration"]):
            break
    setups = [r["setup_s"] for r in reps if "crashed" not in r]
    while len(setups) < MIN_SETUPS and "crashed" not in reps[-1]:
        extra = run_worker(workload, seed, budget, "--setup-only")
        if "crashed" in extra:
            reps.append(extra)
            break
        setups.append(extra["setup_s"])
    ops: list = []
    _check_outputs(reps, ops)
    attempted, failed = _tally(reps, ops)
    done = [r for r in reps if "crashed" not in r and not r["error"]]
    metrics = {}
    if done:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in done),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
        }
    metrics["ops_ok_share"] = (attempted - len(failed)) / attempted
    return metrics, reps, failed, attempted


def measure_traced(workload: str, seed: int, budget: Budget) -> tuple:
    reps, pairs = [], []
    spans_dir = OUT_DIR / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    while True:
        plain = run_worker(workload, seed, budget)
        spans = spans_dir / f"{workload}-seed{seed}-pair{len(pairs)}.csv"
        traced = run_worker(workload, seed, budget, "--trace", "--spans", str(spans))
        reps += [plain, traced]
        if any("crashed" in r or r["error"] for r in (plain, traced)):
            break
        pairs.append((plain, traced))
        if not budget.room_for(plain["duration"] + traced["duration"]):
            break
    ops: list = []
    _check_outputs(reps, ops)
    attempted, failed = _tally(reps, ops)
    metrics = {}
    if pairs:
        layers = [t["layers"] for _, t in pairs]
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        untraced = statistics.median(p["wall_s"] for p, _ in pairs)
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
        metrics["trace.layer_self_share"] = statistics.median(
            t["layers"]["trace.layer_self_s"] / p["wall_s"] for p, t in pairs
        )
    return metrics, reps, failed, attempted


def _print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, unit in units.items():
        value = metrics.get(name)
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<28} {shown:>14} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "blowup_lab" / "__init__.py").is_file():
        print(f"error: no blowup_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    budget = Budget(args.seconds)
    run = measure_traced if args.trace else measure
    metrics, reps, failed, attempted = run(args.workload, args.seed, budget)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    missing = [name for name in units if name not in metrics]
    if missing:
        failed.append("no measurement for: " + ", ".join(missing))
        attempted += 1

    versions = next((r["versions"] for r in reps if "versions" in r), {})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "elapsed_s": budget.elapsed(),
        "facts": machine_facts(versions),
        "metrics": metrics,
        "failed": failed,
        "repetitions": reps,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )

    print("facts: " + json.dumps(record["facts"], sort_keys=True))
    for k, r in enumerate(reps):
        if "crashed" in r:
            print(f"rep {k}: crashed ({r['crashed']})")
        elif "wall_s" in r:
            print(f"rep {k}: wall {r['wall_s']:.3f} s, setup {r['setup_s']:.3f} s, "
                  f"peak rss {r['peak_rss_mb']:.1f} MiB, {r['attempted']} ops, "
                  f"{len(r['failed'])} failed")
        if r.get("error"):
            print(r["error"].rstrip())
    for name in failed:
        print("FAILED: " + name)
    _print_table(f"{args.workload} seed {args.seed}: {len(reps)} workers, "
                 f"{budget.elapsed():.1f} s", metrics, units)

    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
