"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N
                                [--trace] [--spans FILE] [--setup-only]

``run.py`` starts one worker per repetition, with the BLAS and OpenMP
thread counts pinned to 1 in its environment, so numpy starts pinned and
blowup_lab's module-global kernel cache starts empty: every repetition
pays its own kernel builds.  The worker imports blowup_lab from the
checkout's ``src``, sets up, runs the measured phase, checks the outputs
and prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _blas_name(np) -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="CSV file for the spans of a traced run")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import blowup_lab
    import numpy as np
    import scipy

    import workloads

    src = Path(blowup_lab.__file__).resolve()
    if not src.is_relative_to(ROOT / "src"):
        raise SystemExit(f"blowup_lab was imported from {src}, not from this checkout")

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    def span(name):
        return tracer.span(name) if tracer else nullcontext(-1)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    with span("setup") as setup_idx:
        wl.setup()
    out = {"setup_end": time.monotonic()}
    if not args.setup_only:
        setup_counts = tracer.counts.copy() if tracer else None
        error = None
        t0 = time.perf_counter()
        try:
            with span("measure") as measure_idx:
                res = wl.run()
        except Exception:  # a failed run is reported, not raised
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        if error is None:
            try:
                report = wl.check(res)
                ops, outputs = report.ops, report.outputs
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            ops, outputs = [("run-and-check", False)], {}
        out.update(
            wall_s=wall,
            attempted=len(ops),
            failed=[name for name, ok in ops if not ok],
            outputs=outputs,
            error=error,
        )
        if tracer:
            out["layers"] = tracing.layer_metrics(tracer, setup_idx, measure_idx, setup_counts)
            if args.spans:
                tracing.write_spans(tracer, args.spans)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["versions"] = {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(np),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
