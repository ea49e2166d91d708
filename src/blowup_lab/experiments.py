"""Experiment drivers behind the command line interface.

Each runner takes the `config.Run` that validation returns and returns
(report, tables, ok): a JSON-serializable report, a mapping of CSV table
name to (header, rows), and an overall pass flag.  Runners are pure
functions of the run — no randomness, no clocks — so repeated runs
produce byte-identical artifacts.  Every figure the acceptance criteria
read is a report field of the kind that owns it, so `blowup-lab run`
reproduces each of them.  Steps, data and grids other than the run's are
`dataclasses.replace`s of the objects validation built.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import CHECK_DS, PIPELINE, WITNESS_SIDE, Run
from .grids import Field
from .hermite import (
    apply_L_discrete,
    cubic_weighted_sup,
    decompose,
    hermite_h,
    hermite_norm_sq,
    inner_rho,
)
from .model import phi, potential_V, profile_f, profile_residual, remainder_R
from .semigroup import (
    apply_semigroup,
    interior_mask,
    kernel_comparison_check,
    verify_smoothing,
)
from .shooting import certificate_dict, initial_mode_map, initial_q, initial_rectangle, shoot
from .solver import DivergenceError, duhamel_split_check, run_trajectories, run_trajectory, step_q
from .physical import fit_line, integrate_u, profile_error, stability_probe
from .similarity import _not_a_knot_spline
from .trapset import COMPONENTS, check_derived_bounds, inside, mode_ode_check, reduction_witness

__all__ = ["run_experiment"]


def _cell(v) -> str:
    """A CSV number cell: the shortest decimal that reads back as float(v)."""
    return repr(float(v))


def _operator_defect(grid, m: int):
    """Gaussian-weighted norm of L_h h_m - (1 - m/2) h_m on a grid."""
    hm = hermite_h(m, grid.y)
    resid = apply_L_discrete(grid, hm) - (1.0 - 0.5 * m) * hm
    return np.sqrt(inner_rho(grid, resid, resid))


def run_spectral_checks(run: Run):
    params, trap, grid, s0 = run.params, run.trap, run.grid, run.init.s0
    y = grid.y

    n_modes = 6
    gram = np.empty((n_modes, n_modes))
    for i in range(n_modes):
        hi = hermite_h(i, y)
        for j in range(n_modes):
            gram[i, j] = inner_rho(grid, hi, hermite_h(j, y))
    norms = np.array([hermite_norm_sq(m) for m in range(n_modes)])
    norm_err = max(abs(gram[m, m] / norms[m] - 1.0) for m in range(n_modes))
    ortho_err = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
    gram_err = float(np.max(np.abs(gram - np.diag(norms)) / norms[:, None]))

    # L_h is second order: its defect on h3-h5 at 4 dy, 2 dy and dy over
    # the same half-width (at least one node on each side of y = 0)
    ladder = [replace(grid, n_half=max(1, grid.n_half // k), dy=k * grid.dy) for k in (4, 2, 1)]
    errs = np.array([[_operator_defect(g, m) for g in ladder] for m in (3, 4, 5)])
    with np.errstate(divide="ignore", invalid="ignore"):  # nan on a grid too coarse for a mode
        order_min = float(np.min(np.log2(errs[:, :-1] / errs[:, 1:])))

    # profile identity, sampled where the closed forms are well scaled; the
    # scaled residual divides by f^p, the size of each term of the ODE
    zs = np.linspace(-3.0, 3.0, 1001)
    resid = profile_residual(params, zs)
    prof_resid = float(np.max(np.abs(resid)))
    prof_scaled = float(np.max(np.abs(resid / profile_f(params, zs) ** params.p)))

    # the source R decays like 1/s: its sup over |z| <= 10 at s0, 2 s0,
    # 4 s0 and 8 s0
    svals = s0 * np.array([1.0, 2.0, 4.0, 8.0])
    zr = np.linspace(-10.0, 10.0, 4001)
    sups = [float(np.max(np.abs(remainder_R(params, zr * np.sqrt(s), s)))) for s in svals]
    source_slope = fit_line(np.log(svals), np.log(sups))[0]

    h3_sup = cubic_weighted_sup(grid, hermite_h(3, y))

    v100 = potential_V(params, np.array([2.0 * trap.K0 * 10.0]), 100.0)
    v_far = float(abs(v100[0] + params.p / (params.p - 1.0)))

    # one decomposition round trip on a synthetic field
    rng_free = 1e-3 * (np.exp(-(y**2) / 6.0) * (1.0 + 0.3 * y)) + 2e-4 * np.tanh(y / 3.0)
    d = decompose(Field(grid=grid, values=rng_free, s=s0), trap.K0)
    recon_err = float(np.max(np.abs(d.reconstruct() - rng_free)))
    derived = check_derived_bounds(d, trap)

    eps = np.finfo(float).eps
    checks = {
        "orthogonality": ortho_err < 1e-12,
        "norms": norm_err < 1e-12,
        "profile_identity": prof_resid <= 10.0 * eps,
        "reconstruction": recon_err < 1e-13,
    }
    report = {
        "orthogonality_max_offdiag": ortho_err,
        "norm_max_rel_err": norm_err,
        "gram_max_rel_err": gram_err,
        "operator_defect_order_min": order_min,
        "profile_residual_sup": prof_resid,
        "profile_residual_over_eps": prof_resid / eps,
        "profile_residual_scaled_over_eps": prof_scaled / eps,
        "source_sup_slope": source_slope,
        "h3_cubic_weighted_sup": h3_sup,
        "potential_far_field_gap": v_far,
        "reconstruction_residual": recon_err,
        "derived_bounds": derived,
        "checks": checks,
    }
    rows = [(i, j, _cell(gram[i, j])) for i in range(n_modes) for j in range(n_modes)]
    tables = {"gram": (("i", "j", "inner_product"), rows)}
    return report, tables, all(checks.values())


def run_semigroup_checks(run: Run):
    grid = run.grid
    y = grid.y

    thetas = (0.01, 0.1, 0.5, 1.0, 2.0)
    eig_rows = []
    eig_err = 0.0
    mask = interior_mask(grid)
    for m in range(5):
        h = Field(grid=grid, values=hermite_h(m, y), s=0.0)
        for theta in thetas:
            out = apply_semigroup(theta, h)
            expected = np.exp((1.0 - 0.5 * m) * theta) * h.values
            scale = float(np.max(np.abs(expected[mask])))
            err = float(np.max(np.abs(out.values[mask] - expected[mask]))) / scale
            eig_rows.append((m, theta, _cell(err)))
            eig_err = max(eig_err, err)

    # composition: e^{t L} e^{r L} = e^{(t+r) L} on a generic field
    probe = Field(grid=grid, values=np.exp(-(y**2) / 5.0) * (1.0 + 0.2 * y), s=0.0)
    one = apply_semigroup(0.7, apply_semigroup(0.3, probe))
    two = apply_semigroup(1.0, probe)
    comp_err = float(np.max(np.abs(one.values[mask] - two.values[mask])))

    smoothing = verify_smoothing(grid, thetas=(0.01, 0.1, 0.5, 1.0, 2.0, 5.0))
    source = Field(grid=grid, values=np.exp(-(y**2) / 8.0), s=20.0)
    comparison = kernel_comparison_check(s=21.0, sigma=20.0, n_field=source)

    checks = {
        "eigenfunction_action": eig_err < 1e-6,
        "composition": comp_err < 1e-8,
        "smoothing_case1": smoothing["C_case1"] < 1.1,
        "smoothing_case2": smoothing["C_case2"] < 0.6,
        "comparison_ratio": comparison["ratio"] < 1.0,
    }
    report = {
        "eigen_max_rel_err": eig_err,
        "composition_err": comp_err,
        "C_case1": smoothing["C_case1"],
        "C_case2": smoothing["C_case2"],
        "comparison": comparison,
        "checks": checks,
    }
    srows = [
        (_cell(r["theta"]), _cell(r["ratio_sup_in"]), _cell(r["ratio_grad_in"]))
        for r in smoothing["rows"]
    ]
    tables = {
        "eigen_action": (("mode", "theta", "rel_err"), eig_rows),
        "smoothing": (("theta", "ratio_sup", "ratio_grad"), srows),
    }
    return report, tables, all(checks.values())


# the record series of a trajectory table, in column order; a column per
# trap margin follows them
_TABLE_SERIES = ("s", "q0", "q1", "q2", "sem_minus", "qe_sup", "q_sup")


def _trajectory_table(rec):
    header = _TABLE_SERIES + tuple(f"margin_{c}" for c in COMPONENTS)
    columns = np.column_stack([getattr(rec, name) for name in _TABLE_SERIES] + [rec.margins])
    return header, [tuple(map(_cell, row)) for row in columns]


def run_trajectory_experiment(run: Run):
    init, s_end = run.init, run.s_end
    q_init = initial_q(run.params, run.grid, init)
    rec = run_trajectory(q_init, run.params, run.trap, run.solver, s_end)
    report = {
        "s0": init.s0,
        "s_end": s_end,
        "d0": init.d0,
        "d1": init.d1,
        "initially_inside": bool(inside(rec.margins[0])),  # observed at s0
        "final_s": rec.final_s,
        "survived": rec.survived(s_end),
        "n_records": int(rec.s.size),
    }
    if rec.exit is not None:
        names = ("s_star", "reason", "component", "mode", "omega", "transverse")
        report["exit"] = {name: getattr(rec.exit, name) for name in names}
    if rec.s.size >= 12:
        report["mode_checks"] = [mode_ode_check(rec, m) for m in (0, 1)]
    ok = rec.survived(s_end) or (
        rec.exit is not None
        and rec.exit.reason == "trap-exit"
        and rec.exit.component in ("q0", "q1")
        and bool(rec.exit.transverse)
    )
    report["ok"] = ok
    return report, {"trajectory": _trajectory_table(rec)}, ok


def _record_checks(run: Run, rec) -> dict:
    """Whether N <= R in sup at every step of a shoot's record, the peak
    of s^4 N, and over s >= s0 + 2 (if two records lie there) the log-log
    slopes of ||q||_inf and of the gradient sup and the peak over its
    start of the sqrt(s)-scaled gradient sup."""
    # where N = 0, as everywhere in an unperturbed model, N <= R holds
    n_le_r = all(
        n <= np.max(np.abs(remainder_R(run.params, run.grid.y, s)))
        for s, n in zip(rec.s, rec.N_sup) if n > 0.0
    )
    out = {"N_le_R_all_steps": n_le_r, "max_s4_N": float(np.max(rec.s**4 * rec.N_sup))}
    fit = rec.s >= run.init.s0 + 2.0
    if np.count_nonzero(fit) >= 2:
        log_s, scaled_g = np.log(rec.s[fit]), rec.gradq_sup[fit] * np.sqrt(rec.s[fit])
        out["slope_q"] = fit_line(log_s, np.log(rec.q_sup[fit]))[0]
        out["slope_gradq"] = fit_line(log_s, np.log(rec.gradq_sup[fit]))[0]
        out["grad_bound_ratio"] = float(np.max(scaled_g) / scaled_g[0])
    return out


def _initial(run: Run, d0: float, d1: float, s0: float):
    """The prepared deviation of (d0, d1) at s0 on the run's grid."""
    return initial_q(run.params, run.grid, replace(run.init, d0=float(d0), d1=float(d1), s0=s0))


def run_shoot_experiment(run: Run):
    """The shoot, the decay of its record and the exit statistics of the
    7x7 data over rect0 stepped to s_end, whose observations at s0 are the
    initial check: the square holds rect0's corners, where the measured
    components peak.  Once the shoot certifies, at steps of
    CHECK_DS, the Duhamel split of the certified data over [s0, s0 + 1]
    and the s^2-scaled mode-0 defect over 1.5 time units from the
    rectangle centres at s0 and 2 s0, each when the window reaches that far."""
    params, grid, trap, s0 = run.params, run.grid, run.trap, run.init.s0
    mode_map = initial_mode_map(params, grid, s0, trap.K0)
    rect0 = initial_rectangle(mode_map, trap)
    result = shoot(params, grid, trap, run.solver, s0, run.s_end, rect0=rect0)
    square = [
        _initial(run, d0, d1, s0)
        for d0 in np.linspace(*rect0[0], WITNESS_SIDE)
        for d1 in np.linspace(*rect0[1], WITNESS_SIDE)
    ]
    records = run_trajectories(square, params, trap, run.solver, run.s_end)
    initial = np.array([rec.margins[0] for rec in records])
    all_inside = bool(inside(initial).all())
    witness = reduction_witness(records, trap)
    report = {
        "mode_map_M": mode_map.M.tolist(),
        "mode_map_b": mode_map.b.tolist(),
        "rect0": rect0.tolist(),
        "initial_check": {"all_inside": all_inside, "worst_margins": initial.min(axis=0).tolist()},
        "certificate": certificate_dict(result),
        "record_checks": _record_checks(run, result.record),
        "witness": {k: v for k, v in witness.items() if k != "exits"},
    }
    fine = replace(run.solver, ds=CHECK_DS)
    certified = result.status == "survived"
    if certified and run.s_end >= s0 + 1.0:
        q = _initial(run, result.d0, result.d1, s0)
        try:
            du = duhamel_split_check(q, params, trap, fine, s0 + 1.0)
            du["residual_over_q_sup"] = du["reconstruction_residual"] / du["q_sup"]
        except DivergenceError as err:  # a step of CHECK_DS outgrows a kernel on a coarse grid
            du = {"diverged_at": err.s}
        report["duhamel"] = du
    if certified and run.s_end >= 2.0 * s0 + 1.5:
        defects = []
        for start in (s0, 2.0 * s0):
            rect = initial_rectangle(initial_mode_map(params, grid, start, trap.K0), trap)
            q = _initial(run, np.mean(rect[0]), 0.0, start)
            rec = run_trajectory(q, params, trap, fine, start + 1.5)
            defects.append(mode_ode_check(rec, 0)["sup_scaled_defect"])
        ratio = defects[1] / defects[0]
        report["mode_ode_doubling"] = {"sup_scaled_defect": defects, "ratio": ratio}
    ok = certified and all_inside
    report["ok"] = ok
    return report, {"survivor_trajectory": _trajectory_table(result.record)}, ok


def _round_trip(run: Run, est) -> float:
    """Sup over |y| <= 10 of the gap between the run's data marched in
    similarity variables on its grid (`solver.step_q`, in the fewest equal
    steps of at most CHECK_DS, with phi added at s_snap) and its first
    snapshot, rescaled with the exact blow-up time and splined."""
    params, grid, cfg = run.params, run.grid, run.physical
    t_snap, u_snap = est.snapshots[0]
    tau = cfg.T - t_snap
    s_snap = -np.log(tau)
    q = _initial(run, cfg.d0, cfg.d1, cfg.s0)
    # a step much shorter than the others would lose mass on its narrow
    # kernel (`config.kernel_mass_error`)
    n_steps = int(np.ceil((s_snap - cfg.s0) / CHECK_DS))
    fine = replace(run.solver, ds=(s_snap - cfg.s0) / n_steps)
    for _ in range(n_steps):
        q = step_q(q, params, fine)
    mask = np.abs(grid.y) <= 10.0
    w = phi(params, grid.y[mask], s_snap) + q.values[mask]
    rescaled = tau ** (1.0 / (params.p - 1.0)) * u_snap
    spline, _ = _not_a_knot_spline(est.x / np.sqrt(tau), rescaled, grid.y[mask])
    return float(np.max(np.abs(w - spline)))


def run_physical_experiment(run: Run):
    """One physical run from the [trajectory] data, its blow-up fit and
    profiles; as the part of full-pipeline, which builds a grid, also the
    round trip of its data through the similarity variables."""
    params = run.params
    est = integrate_u(params, run.physical)
    T = run.physical.T
    stride = max(1, est.sample_t.size // 2000)
    rows = [
        (_cell(est.sample_t[i]), _cell(est.sample_umax[i]))
        for i in range(0, est.sample_t.size, stride)
    ]
    tables = {"peak_history": (("t", "umax"), rows)}

    if not est.blew_up:
        # valid outcome for subcritical data: report it, nothing to check
        report = {
            "T": T,
            "outcome": "non-blowup",
            "t_end": est.t_end,
            "n_steps": est.n_steps,
            "growth": est.umax_end / float(est.sample_umax[0]),
            "checks": {},
        }
        return report, tables, True

    rel_T = abs(est.T_est - T) / T
    profs = [
        profile_error(est.x, u_snap, t_snap, est, params)
        for t_snap, u_snap in est.snapshots
    ]
    # the rescaled centre value at the last step, against the ansatz's kappa
    scale_end = (est.T_est - est.t_end) ** (1.0 / (params.p - 1.0))
    w_center = float(scale_end * est.u_end[est.x.size // 2])
    checks = {
        "fit_quality": est.fit_quality > 0.999,
        "blowup_after_last_sample": est.T_est > est.t_end,
    }
    report = {
        "T": T,
        "outcome": "blowup",
        "T_est": est.T_est,
        "rel_T_err": rel_T,
        "a_est": est.a_est,
        "dx": float(est.x[1] - est.x[0]),
        "fit_quality": est.fit_quality,
        "n_steps": est.n_steps,
        "t_end": est.t_end,
        "growth": est.umax_end / float(est.sample_umax[0]),
        "w_center_end": w_center,
        "kappa_rel_gap_end": abs(w_center - params.kappa) / params.kappa,
        "profile_errors": profs,
        # in units of the deviation's 1/sqrt(s) decay
        "scaled_profile_errors": [float(p["e_sup_f"] * np.sqrt(p["s"])) for p in profs],
        "checks": checks,
    }
    if run.grid is not None:
        try:
            report["transform_diff"] = _round_trip(run, est)
        except DivergenceError as err:  # as the shoot's Duhamel split may
            report["transform_diff_diverged_at"] = err.s
    return report, tables, all(checks.values())


def run_stability_experiment(run: Run):
    probe = stability_probe(run.params, run.physical)
    rows = probe["rows"]
    eps_values = sorted({r["eps"] for r in rows}, reverse=True)
    worst_dT, worst_da = (
        {eps: max(abs(r[key]) for r in rows if r["eps"] == eps) for eps in eps_values}
        for key in ("dT", "da")
    )
    shrinking = all(
        worst_dT[eps_values[i + 1]] <= worst_dT[eps_values[i]]
        for i in range(len(eps_values) - 1)
    )
    checks = {
        "deterministic": probe["deterministic"],
        "shifts_shrink_with_eps": shrinking,
    }
    report = {
        "baseline": probe["baseline"],
        "worst_dT_by_eps": {repr(k): v for k, v in worst_dT.items()},
        "worst_da_by_eps": {repr(k): v for k, v in worst_da.items()},
        "checks": checks,
    }
    table_rows = [
        (
            _cell(r["eps"]),
            r["shape"],
            _cell(r["T_est"]),
            _cell(r["a_est"]),
            _cell(r["dT"]),
            _cell(r["da"]),
        )
        for r in rows
    ]
    tables = {
        "stability": (("eps", "shape", "T_est", "a_est", "dT", "da"), table_rows)
    }
    return report, tables, all(checks.values())


def run_full_pipeline(run: Run):
    """The PIPELINE kinds in order, each report and table under the kind's
    name without "-checks"; a failed shoot ends the run, and the physical
    run starts from the data the shoot certifies."""
    report: dict = {}
    tables: dict = {}
    ok = True
    for kind in PIPELINE:
        sub, tb, good = _RUNNERS[kind](run)
        part = kind.removesuffix("-checks")
        report[part] = sub
        tables.update({f"{part}_{k}": v for k, v in tb.items()})
        ok = ok and good
        if kind == "shoot":
            if not good:
                break
            cert = sub["certificate"]
            physical = replace(run.physical, d0=cert["d0"], d1=cert["d1"])
            run = replace(run, physical=physical)
    report["ok"] = ok
    return report, tables, ok


_RUNNERS = {
    "spectral-checks": run_spectral_checks,
    "semigroup-checks": run_semigroup_checks,
    "trajectory": run_trajectory_experiment,
    "shoot": run_shoot_experiment,
    "physical": run_physical_experiment,
    "stability": run_stability_experiment,
    "full-pipeline": run_full_pipeline,
}


def run_experiment(run: Run):
    """Dispatch on the run's kind; returns (report, tables, ok)."""
    return _RUNNERS[run.kind](run)
