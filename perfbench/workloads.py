"""The three benchmark workloads, run through blowup_lab's public API.

Every workload uses the acceptance configuration: p = 2, trap A = 8,
K0 = 4, the 2465-node grid ``default_y_max(4, 50)`` at dy = 0.05 and
ds = 0.02, starting at s0 = 20.  The headline s_end = 50 shoot is cut to
s_end = 26 so that one repetition takes about half a minute; the grid and
the step are those of the headline run, so the per-step costs are too.

A workload has three parts:

* ``setup`` builds what every run needs first (imports, the grid, the
  first ``kernel_matrix(ds)``, the mode map and its rectangle).  Its
  time is the benchmark's ``setup_s``.
* ``run`` is the measured phase, timed as ``wall_s``.
* ``check`` turns the outputs into a list of operations (trajectory
  evaluations, physical runs, output checks), each passed or failed, plus
  the exact outputs that two runs of the same seed must reproduce bit for
  bit.

Workload code calls blowup_lab through module attributes
(``shooting.shoot``, not a name bound at import), so that the traced run
can replace those attributes with timing wrappers.

The seed only shapes the inputs: a relative shrink of the shooting
rectangle, a trim of the witness lattice inside its rectangle and the cell
offset of the physical stability bump.  The draws are small enough that
every seed keeps the same search path and exit pattern, so the work per
run is the same and the checks below hold for every seed.  Seed 0 is the
acceptance configuration itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from blowup_lab import physical, semigroup, shooting, solver, trapset
from blowup_lab.grids import default_y_max, make_grid
from blowup_lab.model import make_params
from blowup_lab.physical import PhysicalConfig
from blowup_lab.shooting import InitialDataParams
from blowup_lab.solver import SolverConfig
from blowup_lab.trapset import TrapParams

PURE = make_params(2.0)
PERT = make_params(2.0, alpha=1.0, alpha_bar=1.0, mu=1.0, mu_bar=1.0, mu0=1.0)
TRAP = TrapParams(A=8.0, K0=4.0)
S0 = 20.0
S_END = 26.0
DS = 0.02
DY = 0.05
GRID_S_MAX = 50.0  # the headline run's grid: 2465 nodes

# Critical points certified by the s_end = 50 shoots of acceptance
# criteria 4 (pure) and 6 (perturbed); d1* is 0 by parity.
D0_PURE_50 = 1.208300169e-02
D0_PERT_50 = 1.208259494e-02

WITNESS_SIDE = 7
DUHAMEL_DS = 0.01
PHYS_EPS = (1e-2, 1e-3, 1e-4)


@dataclass(frozen=True)
class Inputs:
    """Everything the seed decides; the program never sees the seed."""

    rect_shrink: float
    # fractions of the rectangle widths trimmed off (d0 low, d0 high,
    # d1 low, d1 high) before the witness lattice is laid out
    lattice_trim: tuple[float, float, float, float]
    bump_offset_cells: int


def make_inputs(seed: int) -> Inputs:
    if seed == 0:
        return Inputs(rect_shrink=1e-9, lattice_trim=(0.0, 0.0, 0.0, 0.0),
                      bump_offset_cells=40)
    rng = random.Random(seed)
    return Inputs(
        rect_shrink=1e-9 + rng.uniform(0.0, 1e-3),
        lattice_trim=tuple(rng.uniform(0.0, 2e-3) for _ in range(4)),
        bump_offset_cells=rng.randint(32, 48),
    )


@dataclass
class Report:
    """Operations of one run, each passed or failed, and its exact outputs."""

    ops: list  # (name, ok) pairs
    outputs: dict


def _hex(x) -> str:
    return float(x).hex()


class _SelfSimilar:
    """Shared set-up of the two workloads in similarity variables."""

    params = PURE

    def __init__(self, seed: int):
        self.inputs = make_inputs(seed)

    def setup(self) -> None:
        self.grid = make_grid(default_y_max(TRAP.K0, GRID_S_MAX), DY)
        semigroup.kernel_matrix(DS, self.grid)
        self.mode_map = shooting.initial_mode_map(self.params, self.grid, S0, TRAP.K0)
        self.rect = shooting.initial_rectangle(
            self.mode_map, TRAP, shrink=self.inputs.rect_shrink
        )


class ShootPure(_SelfSimilar):
    """Quadrisection shoot of the pure model from s0 = 20 to s_end = 26.

    The search is serial, so it shows what a faster step or fewer
    evaluations do to time-to-certificate.
    """

    def run(self):
        return shooting.shoot(
            self.params, self.grid, TRAP, SolverConfig(ds=DS), S0, S_END, rect0=self.rect
        )

    def check(self, res) -> Report:
        # q0 grows like e^(s - s0) and q1 like e^((s - s0)/2), so the d-values
        # that stay trapped up to s_end form a basin of half-width about
        # A e^(-rate (s_end - s0)) / (s_end^2 |M_mm|).  Any point of the basin
        # is a valid certificate; the s_end = 50 point lies inside it, so the
        # two differ by less than the basin's full width.
        M = self.mode_map.M
        span = S_END - S0
        tol0 = 2.0 * TRAP.A * math.exp(-span) / (S_END**2 * abs(M[0, 0]))
        tol1 = 2.0 * TRAP.A * math.exp(-0.5 * span) / (S_END**2 * abs(M[1, 1]))
        rec = res.record
        ops = [("trajectory-eval", True)] * res.n_evals
        ops += [
            ("status-survived", res.status == "survived"),
            ("margins-nonnegative-to-s_end",
             rec is not None and rec.survived(S_END) and bool(np.min(rec.margins) >= 0.0)),
            ("d0-within-basin", abs(res.d0 - D0_PURE_50) <= tol0),
            ("d1-within-basin", abs(res.d1) <= tol1),
        ]
        outputs = {
            "status": res.status,
            "d0": _hex(res.d0),
            "d1": _hex(res.d1),
            "n_evals": res.n_evals,
            "levels": res.levels,
        }
        return Report(ops, outputs)


class WitnessPert(_SelfSimilar):
    """Perturbed lane: 7x7 reduction witness, then a Duhamel split check.

    The 49 trajectories are independent, so this is where an ensemble
    stepper should win while fewer shooting evaluations change nothing;
    the Duhamel phase adds 17 kernel builds and about 0.9 GB of cache.
    """

    params = PERT

    def run(self):
        (lo0, hi0), (lo1, hi1) = self.rect
        t = self.inputs.lattice_trim
        w0, w1 = hi0 - lo0, hi1 - lo1
        d0s = np.linspace(lo0 + t[0] * w0, hi0 - t[1] * w0, WITNESS_SIDE)
        d1s = np.linspace(lo1 + t[2] * w1, hi1 - t[3] * w1, WITNESS_SIDE)
        cfg = SolverConfig(ds=DS)
        records = []
        for d0 in d0s:
            for d1 in d1s:
                q = shooting.initial_q(
                    PERT, self.grid, InitialDataParams(d0=float(d0), d1=float(d1), s0=S0)
                )
                records.append(solver.run_trajectory(q, PERT, TRAP, cfg, S_END))
        witness = trapset.reduction_witness(records, TRAP)
        q_tau = shooting.initial_q(
            PERT, self.grid, InitialDataParams(d0=D0_PERT_50, d1=0.0, s0=S0)
        )
        duhamel = solver.duhamel_split_check(
            q_tau, PERT, TRAP, SolverConfig(ds=DUHAMEL_DS), S0 + 1.0
        )
        return witness, duhamel

    def check(self, res) -> Report:
        witness, du = res
        by = witness["by_component"]
        n = WITNESS_SIDE**2
        ops = [("trajectory-eval", True)] * witness["n_runs"] + [("duhamel-run", True)]
        # the bounds are those of acceptance criteria 5 and 6
        ops += [
            ("all-runs-exit", witness["n_exits"] == n),
            ("exits-q0-q1-31-18", (by["q0"], by["q1"]) == (31, 18)),
            ("all-exits-transverse", witness["all_transverse"]),
            ("no-divergence", by["divergence"] == 0),
            ("C_delta2<=1e-2", du["C_delta2"] <= 1e-2),
            ("C_delta_minus<=1e-2", du["C_delta_minus"] <= 1e-2),
            ("C_delta_e<=5e-2", du["C_delta_e"] <= 5e-2),
            ("duhamel-residual<=0.25q", du["reconstruction_residual"] <= 0.25 * du["q_sup"]),
        ]
        outputs = {
            "by_component": by,
            "exit_s": [_hex(e.s_star) for e in witness["exits"]],
            "duhamel": {k: _hex(du[k]) for k in sorted(du) if k != "n_quad"},
        }
        return Report(ops, outputs)


class Physical:
    """Oracle, one physical blow-up run with its profile check, stability probe.

    Never enters semigroup, solver, hermite, trapset or shooting, so it is
    the no-change workload for those layers and the only one that moves
    with ``physical.py``.
    """


    def __init__(self, seed: int):
        self.inputs = make_inputs(seed)

    def setup(self) -> None:
        self.run_cfg = PhysicalConfig(
            s0=S0, d0=D0_PURE_50, d1=0.0, z_max=30.0, n_x=3201,
            snapshot_factors=(3.0, 10.0, 30.0, 100.0),
        )
        self.probe_cfg = PhysicalConfig(s0=S0, d0=D0_PURE_50, d1=0.0, z_max=30.0, n_x=1601)

    def run(self):
        oracle = physical.homogeneous_oracle(PURE, c=1.0)
        est = physical.integrate_u(PURE, self.run_cfg)
        profs = [physical.profile_error(est.x, u, t, est, PURE) for t, u in est.snapshots]
        probe = physical.stability_probe(
            PURE, self.probe_cfg, rel_eps=PHYS_EPS,
            offset_cells=self.inputs.bump_offset_cells,
        )
        return oracle, est, profs, probe

    def check(self, res) -> Report:
        oracle, est, profs, probe = res
        T = self.run_cfg.T
        dx = est.x[1] - est.x[0]
        scaled = [p["e_sup_f"] * math.sqrt(p["s"]) for p in profs]
        t_hat = probe["baseline"]["T_est"]
        worst_dt = [
            max(abs(r["dT"]) for r in probe["rows"] if r["eps"] == e) / t_hat
            for e in PHYS_EPS
        ]
        n_probe_runs = 2 + 2 * len(PHYS_EPS)
        ops = [("oracle-run", True), ("physical-run", True)]
        ops += [("profile-error", True)] * len(profs)
        ops += [("physical-run", True)] * n_probe_runs
        # the bounds are those of acceptance criteria 7 and 8
        ops += [
            ("oracle-rel_err<=1e-4", oracle["rel_err"] <= 1e-4),
            ("blew-up", est.blew_up),
            ("rel_T<=1e-4", abs(est.T_est - T) / T <= 1e-4),
            ("|a|<=2dx", abs(est.a_est) <= 2.0 * dx),
            ("profile-error-not-growing",
             len(scaled) == 4 and scaled[-1] <= 1.05 * scaled[0]
             and max(scaled) <= 1.10 * scaled[0]),
            ("probe-deterministic", probe["deterministic"]),
            ("|dT|-shrinks-with-eps", worst_dt[0] > worst_dt[1] > worst_dt[2]),
            ("|dT|/T<=1e-3-at-smallest-eps", worst_dt[-1] <= 1e-3),
        ]
        outputs = {
            "oracle_T_est": _hex(oracle["T_est"]),
            "T_est": _hex(est.T_est),
            "a_est": _hex(est.a_est),
            "n_steps": est.n_steps,
            "probe": [[_hex(r["T_est"]), _hex(r["a_est"])] for r in probe["rows"]],
            "probe_baseline": [_hex(probe["baseline"]["T_est"]),
                               _hex(probe["baseline"]["a_est"])],
        }
        return Report(ops, outputs)


WORKLOADS = {"shoot-pure": ShootPure, "witness-pert": WitnessPert, "physical": Physical}
