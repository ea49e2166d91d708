"""Timing spans around the public functions of each blowup_lab layer.

The traced run replaces the module attributes that callers resolve at call
time (``step_q`` looks up ``blowup_lab.solver.apply_semigroup_values`` in
its module on every step, for example) with wrappers that record one span
per call: name, parent, start and end.  blowup_lab itself is not edited,
and every wrapper returns exactly what the wrapped function returns, so a
traced run must reproduce the untraced outputs bit for bit.

Spans stay in memory until the run ends.  ``layer_metrics`` then reduces
them to per-layer figures and ``write_spans`` stores them as CSV.  A
span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  ``grids`` is
not wrapped, so its time counts toward the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# (module whose attribute the callers resolve, attribute, span name); the
# layer is the span name's prefix.
TARGETS = (
    ("blowup_lab.solver", "apply_semigroup_values", "semigroup.apply"),
    ("blowup_lab.semigroup", "kernel_matrix", "semigroup.kernel_matrix"),
    ("blowup_lab.solver", "kernel_matrix", "semigroup.kernel_matrix"),
    ("blowup_lab.shooting", "run_trajectory", "solver.run_trajectory"),
    ("blowup_lab.solver", "run_trajectory", "solver.run_trajectory"),
    ("blowup_lab.solver", "step_q", "solver.step_q"),
    ("blowup_lab.solver", "duhamel_split_check", "solver.duhamel_split_check"),
    ("blowup_lab.solver", "phi", "model.phi"),
    ("blowup_lab.model", "phi", "model.phi"),
    ("blowup_lab.solver", "phi_dy", "model.phi_dy"),
    ("blowup_lab.solver", "potential_V", "model.potential_V"),
    ("blowup_lab.solver", "nonlinear_B", "model.nonlinear_B"),
    ("blowup_lab.solver", "remainder_R", "model.remainder_R"),
    ("blowup_lab.solver", "perturbation_N", "model.perturbation_N"),
    ("blowup_lab.solver", "decompose", "hermite.decompose"),
    ("blowup_lab.shooting", "decompose", "hermite.decompose"),
    ("blowup_lab.solver", "seminorm_minus", "hermite.seminorm_minus"),
    ("blowup_lab.trapset", "seminorm_minus", "hermite.seminorm_minus"),
    ("blowup_lab.solver", "check_membership", "trapset.check_membership"),
    ("blowup_lab.shooting", "check_membership", "trapset.check_membership"),
    ("blowup_lab.solver", "exit_classify", "trapset.exit_classify"),
    ("blowup_lab.trapset", "exit_classify", "trapset.exit_classify"),
    ("blowup_lab.trapset", "reduction_witness", "trapset.reduction_witness"),
    ("blowup_lab.shooting", "shoot", "shooting.shoot"),
    ("blowup_lab.shooting", "initial_mode_map", "shooting.initial_mode_map"),
    ("blowup_lab.shooting", "initial_rectangle", "shooting.initial_rectangle"),
    ("blowup_lab.shooting", "initial_q", "shooting.initial_q"),
    ("blowup_lab.physical", "integrate_u", "physical.integrate_u"),
    ("blowup_lab.physical", "homogeneous_oracle", "physical.homogeneous_oracle"),
    ("blowup_lab.physical", "profile_error", "physical.profile_error"),
    ("blowup_lab.physical", "stability_probe", "physical.stability_probe"),
)

LAYERS = ("semigroup", "solver", "model", "hermite", "trapset", "shooting", "physical")

# lookups per refinement level of the quadrisection plus-pattern
PLUS_PATTERN = 5


class Tracer:
    """In-memory span list plus the counters the wrappers keep."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self._stack: list[int] = []
        self.builds: set[int] = set()  # kernel_matrix spans that built an operator
        self.counts: Counter = Counter()
        self.last_operator = (0, 0)  # (stored entries, bytes)

    def _open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced


def operator_size(op) -> tuple[int, int]:
    """Stored entries and bytes of a dense array or a scipy.sparse matrix."""
    if hasattr(op, "nnz"):
        parts = [getattr(op, a) for a in ("data", "indices", "indptr") if hasattr(op, a)]
        return int(op.nnz), sum(int(p.nbytes) for p in parts)
    return int(op.size), int(op.nbytes)


def _counting(tracer: Tracer, attr: str, fn):
    """Inner wrapper that keeps the counters one target needs, if any."""
    if attr == "kernel_matrix":
        cache = importlib.import_module("blowup_lab.semigroup")._MATRIX_CACHE

        def kernel_matrix(theta, grid):
            before = len(cache)
            op = fn(theta, grid)
            tracer.last_operator = operator_size(op)
            if len(cache) != before:
                tracer.builds.add(tracer._stack[-1])
                tracer.counts["build_bytes"] += tracer.last_operator[1]
            return op

        return kernel_matrix
    if attr == "apply_semigroup_values":

        def apply_semigroup_values(theta, grid, values):
            out = fn(theta, grid, values)
            entries, nbytes = tracer.last_operator
            tracer.counts["apply_flops"] += 2 * entries * (values.size // grid.n)
            tracer.counts["apply_bytes"] += nbytes + values.nbytes + out.nbytes
            return out

        return apply_semigroup_values
    if attr == "run_trajectory":

        def run_trajectory(*args, **kwargs):
            rec = fn(*args, **kwargs)
            ex = rec.exit
            if ex is not None and ex.reason == "divergence":
                tracer.counts["diverged"] += 1
            elif ex is not None:
                comp = ex.component if ex.component in ("q0", "q1") else "other"
                tracer.counts["exits_" + comp] += 1
            return rec

        return run_trajectory
    if attr == "shoot":

        def shoot(*args, **kwargs):
            res = fn(*args, **kwargs)
            tracer.counts["evals"] += res.n_evals
            tracer.counts["levels"] += res.levels
            tracer.counts["lookups"] += PLUS_PATTERN * len(res.level_stats or ())
            return res

        return shoot
    if attr == "integrate_u":

        def integrate_u(*args, **kwargs):
            est = fn(*args, **kwargs)
            tracer.counts["rk4_steps"] += est.n_steps
            return est

        return integrate_u
    return fn


def install(tracer: Tracer) -> None:
    """Replace every target attribute by its traced wrapper."""
    wrapped: dict[int, object] = {}
    for module_name, attr, span_name in TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        if id(fn) not in wrapped:
            wrapped[id(fn)] = tracer.wrap(span_name, _counting(tracer, attr, fn))
        setattr(module, attr, wrapped[id(fn)])


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w") as fh:
        fh.write("id,parent,name,start_ns,end_ns\n")
        for i, (nm, p, s, e) in enumerate(
            zip(tracer.name, tracer.parent, tracer.start, tracer.end)
        ):
            fh.write(f"{i},{p},{nm},{s},{e}\n")


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, setup_idx: int, measure_idx: int, setup_counts: Counter) -> dict:
    """Per-layer figures of the measured phase, plus two set-up figures.

    Counters are those kept since the end of set-up, except ``cache_mb``,
    which counts every operator built in the run: the kernel cache's size
    at the end, since the workloads never fill it to its eviction limit.
    """
    n = len(tracer.name)
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child = [0] * n
    root = list(range(n))
    for i, p in enumerate(tracer.parent):
        if p >= 0:  # parents open before their children
            child[p] += dur[i]
            root[i] = root[p]
    self_ns = [d - c for d, c in zip(dur, child)]

    calls: Counter = Counter()
    total: Counter = Counter()
    layer_self: Counter = Counter()
    under: Counter = Counter()  # (parent span name, child layer) -> ns
    for i in range(n):
        if root[i] != measure_idx or i == measure_idx:
            continue
        name = tracer.name[i]
        layer = name.split(".")[0]
        calls[name] += 1
        total[name] += dur[i]
        layer_self[layer] += self_ns[i]
        under[(tracer.name[tracer.parent[i]], layer)] += dur[i]

    def build_ns(in_root: int, parent_name: str | None = None) -> int:
        return sum(
            dur[i] for i in tracer.builds
            if root[i] == in_root
            and (parent_name is None or tracer.name[tracer.parent[i]] == parent_name)
        )

    def setup_ns(name: str) -> int:
        return sum(dur[i] for i in range(n) if root[i] == setup_idx and tracer.name[i] == name)

    counts = tracer.counts - setup_counts
    s = 1e-9
    apply_calls = calls["semigroup.apply"]
    apply_ns = total["semigroup.apply"] - build_ns(measure_idx, "semigroup.apply")
    steps = calls["solver.step_q"]
    integrate_ns = total["physical.integrate_u"]
    model_from_solver = sum(
        ns for (parent, layer), ns in under.items()
        if layer == "model" and parent.startswith("solver.")
    )
    out = {
        "semigroup.apply_calls": apply_calls,
        "semigroup.apply_s": apply_ns * s,
        "semigroup.apply_ms": _ratio(apply_ns * 1e-6, apply_calls),
        "semigroup.apply_bytes": _ratio(counts["apply_bytes"], apply_calls),
        "semigroup.apply_flops": _ratio(counts["apply_flops"], apply_calls),
        "semigroup.kernel_builds": sum(1 for i in tracer.builds if root[i] == measure_idx),
        "semigroup.kernel_build_s": build_ns(measure_idx) * s,
        "semigroup.setup_build_s": build_ns(setup_idx) * s,
        "semigroup.cache_mb": tracer.counts["build_bytes"] / 2**20,
        "solver.steps": steps,
        "solver.trajectories": calls["solver.run_trajectory"],
        "solver.diverged": counts["diverged"],
        "solver.step_s": total["solver.step_q"] * s,
        "solver.step_self_s": (total["solver.step_q"] - under[("solver.step_q", "semigroup")]) * s,
        "solver.observe_s": (
            total["solver.run_trajectory"] - under[("solver.run_trajectory", "solver")]
        ) * s,
        "solver.duhamel_s": total["solver.duhamel_split_check"] * s,
        "model.source_s": model_from_solver * s,
        "model.R_per_step": _ratio(calls["model.remainder_R"], steps),
        "model.phi_per_step": _ratio(calls["model.phi"], steps),
        "hermite.decompose_calls": calls["hermite.decompose"],
        "hermite.decompose_s": total["hermite.decompose"] * s,
        "trapset.membership_s": total["trapset.check_membership"] * s,
        "trapset.exits_q0": counts["exits_q0"],
        "trapset.exits_q1": counts["exits_q1"],
        "trapset.exits_other": counts["exits_other"],
        "shooting.evals": counts["evals"],
        "shooting.levels": counts["levels"],
        "shooting.cache_hit_ratio": (
            1.0 - counts["evals"] / counts["lookups"] if counts["lookups"] else 0.0
        ),
        "shooting.mode_map_s": setup_ns("shooting.initial_mode_map") * s,
        "physical.runs": calls["physical.integrate_u"],
        "physical.rk4_steps": counts["rk4_steps"],
        "physical.integrate_s": integrate_ns * s,
        "physical.step_us": _ratio(integrate_ns * 1e-3, counts["rk4_steps"]),
        "physical.profile_error_s": total["physical.profile_error"] * s,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] * s
    out["bench.self_s"] = self_ns[measure_idx] * s
    out["trace.layer_self_s"] = sum(layer_self.values()) * s
    out["trace.wall_s"] = dur[measure_idx] * s
    return out

