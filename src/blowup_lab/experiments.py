"""Experiment drivers behind the command line interface.

Each runner takes the validated configuration dictionary and returns
(report, tables, ok): a JSON-serializable report, a mapping of CSV table
name to (header, rows), and an overall pass flag.  Runners are pure
functions of the configuration — no randomness, no clocks — so repeated
runs produce byte-identical artifacts.
"""

from __future__ import annotations

import numpy as np

from .config import physical_config, run_grid
from .grids import Field
from .hermite import (
    cubic_weighted_sup,
    decompose,
    hermite_h,
    hermite_norm_sq,
    inner_rho,
)
from .model import make_params, potential_V, profile_residual
from .semigroup import (
    apply_semigroup,
    interior_mask,
    kernel_comparison_check,
    verify_smoothing,
)
from .shooting import (
    InitialDataParams,
    certificate_dict,
    initial_components_check,
    initial_mode_map,
    initial_q,
    initial_rectangle,
    shoot,
)
from .solver import SolverConfig, mode_ode_check, run_trajectory
from .physical import integrate_u, profile_error, stability_probe
from .trapset import TrapParams, check_derived_bounds

__all__ = ["run_experiment"]


def _cell(v) -> str:
    """A CSV number cell: the shortest decimal that reads back as float(v)."""
    return repr(float(v))


def _params(cfg: dict):
    return make_params(**cfg["model"])


def run_spectral_checks(cfg: dict):
    params = _params(cfg)
    s0 = cfg["trajectory"]["s0"]
    grid = run_grid(cfg)
    y = grid.y

    n_modes = 6
    gram = np.empty((n_modes, n_modes))
    for i in range(n_modes):
        hi = hermite_h(i, y)
        for j in range(n_modes):
            gram[i, j] = inner_rho(grid, hi, hermite_h(j, y))
    norm_err = max(
        abs(gram[m, m] / hermite_norm_sq(m) - 1.0) for m in range(n_modes)
    )
    off = gram.copy()
    np.fill_diagonal(off, 0.0)
    ortho_err = float(np.max(np.abs(off)))

    # profile identity, sampled where the closed forms are well scaled
    zs = np.linspace(-3.0, 3.0, 1001)
    prof_resid = float(np.max(np.abs(profile_residual(params, zs))))

    h3_sup = cubic_weighted_sup(grid, hermite_h(3, y))

    v100 = potential_V(params, np.array([2.0 * cfg["trap"]["K0"] * 10.0]), 100.0)
    v_far = float(abs(v100[0] + params.p / (params.p - 1.0)))

    # one decomposition round trip on a synthetic field
    trap = TrapParams(**cfg["trap"])
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
        "profile_residual_sup": prof_resid,
        "profile_residual_over_eps": prof_resid / eps,
        "h3_cubic_weighted_sup": h3_sup,
        "potential_far_field_gap": v_far,
        "reconstruction_residual": recon_err,
        "derived_bounds": derived,
        "checks": checks,
    }
    rows = [
        (i, j, _cell(gram[i, j])) for i in range(n_modes) for j in range(n_modes)
    ]
    tables = {"gram": (("i", "j", "inner_product"), rows)}
    return report, tables, all(checks.values())


def run_semigroup_checks(cfg: dict):
    params = _params(cfg)
    grid = run_grid(cfg)
    y = grid.y

    thetas = (0.01, 0.1, 0.5, 1.0, 2.0)
    eig_rows = []
    eig_err = 0.0
    mask = interior_mask(grid)
    for m in range(4):
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


def _trajectory_table(rec):
    header = (
        "s",
        "q0",
        "q1",
        "q2",
        "sem_minus",
        "qe_sup",
        "q_sup",
        "margin_q0",
        "margin_q1",
        "margin_q2",
        "margin_q_minus",
        "margin_q_e",
    )
    columns = np.column_stack((
        rec.s, rec.q0, rec.q1, rec.q2, rec.sem_minus, rec.qe_sup, rec.q_sup, rec.margins
    ))
    return header, [tuple(map(_cell, row)) for row in columns]


def run_trajectory_experiment(cfg: dict):
    params = _params(cfg)
    tj = cfg["trajectory"]
    grid = run_grid(cfg)
    trap = TrapParams(**cfg["trap"])
    scfg = SolverConfig(ds=tj["ds"])
    init = initial_q(
        params, grid, InitialDataParams(d0=tj["d0"], d1=tj["d1"], s0=tj["s0"])
    )
    rec = run_trajectory(init, params, trap, scfg, tj["s_end"])
    report = {
        "s0": tj["s0"],
        "s_end": tj["s_end"],
        "d0": tj["d0"],
        "d1": tj["d1"],
        "initially_inside": bool((rec.margins[0] >= 0.0).all()),  # observed at s0
        "final_s": rec.final_s,
        "survived": rec.survived(tj["s_end"]),
        "n_records": int(rec.s.size),
    }
    if rec.exit is not None:
        report["exit"] = {
            "s_star": rec.exit.s_star,
            "reason": rec.exit.reason,
            "component": rec.exit.component,
            "mode": rec.exit.mode,
            "omega": rec.exit.omega,
            "transverse": rec.exit.transverse,
        }
    if rec.s.size >= 12:
        report["mode_checks"] = [mode_ode_check(rec, m) for m in (0, 1)]
    ok = rec.survived(tj["s_end"]) or (
        rec.exit is not None
        and rec.exit.reason == "trap-exit"
        and rec.exit.component in ("q0", "q1")
        and bool(rec.exit.transverse)
    )
    report["ok"] = ok
    return report, {"trajectory": _trajectory_table(rec)}, ok


def run_shoot_experiment(cfg: dict):
    params = _params(cfg)
    tj = cfg["trajectory"]
    grid = run_grid(cfg)
    trap = TrapParams(**cfg["trap"])
    scfg = SolverConfig(ds=tj["ds"])
    mode_map = initial_mode_map(params, grid, tj["s0"], trap.K0)
    rect0 = initial_rectangle(mode_map, trap)
    init_chk = initial_components_check(params, grid, tj["s0"], trap, rect0)
    result = shoot(params, grid, trap, scfg, tj["s0"], tj["s_end"], rect0=rect0)
    report = {
        "mode_map_M": mode_map.M.tolist(),
        "mode_map_b": mode_map.b.tolist(),
        "rect0": rect0.tolist(),
        "initial_check": {
            "all_inside": init_chk["all_inside"],
            "worst_margins": init_chk["worst_margins"].tolist(),
        },
        "certificate": certificate_dict(result),
    }
    tables = {}
    if result.record is not None:
        tables["survivor_trajectory"] = _trajectory_table(result.record)
    ok = result.status == "survived" and init_chk["all_inside"]
    report["ok"] = ok
    return report, tables, ok


def run_physical_experiment(cfg: dict):
    tj = cfg["trajectory"]
    return _physical_run(_params(cfg), physical_config(cfg, tj["d0"], tj["d1"]))


def _physical_run(params, pcfg):
    """One physical run from pcfg's data, its blow-up fit and profiles."""
    est = integrate_u(params, pcfg)
    T = pcfg.T
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
        "fit_quality": est.fit_quality,
        "n_steps": est.n_steps,
        "t_end": est.t_end,
        "growth": est.umax_end / float(est.sample_umax[0]),
        "profile_errors": profs,
        "checks": checks,
    }
    return report, tables, all(checks.values())


def run_stability_experiment(cfg: dict):
    tj = cfg["trajectory"]
    probe = stability_probe(_params(cfg), physical_config(cfg, tj["d0"], tj["d1"]))
    rows = probe["rows"]
    eps_values = sorted({r["eps"] for r in rows}, reverse=True)
    worst_dT = {
        eps: max(abs(r["dT"]) for r in rows if r["eps"] == eps) for eps in eps_values
    }
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


def run_full_pipeline(cfg: dict):
    """Spectral and semigroup checks, a shoot, and the physical follow-up."""
    report: dict = {}
    tables: dict = {}
    ok = True

    sub, tb, good = run_spectral_checks(cfg)
    report["spectral"] = sub
    tables.update({f"spectral_{k}": v for k, v in tb.items()})
    ok = ok and good

    sub, tb, good = run_semigroup_checks(cfg)
    report["semigroup"] = sub
    tables.update({f"semigroup_{k}": v for k, v in tb.items()})
    ok = ok and good

    sub, tb, good = run_shoot_experiment(cfg)
    report["shoot"] = sub
    tables.update({f"shoot_{k}": v for k, v in tb.items()})
    ok = ok and good

    # follow the tuned parameters into physical variables
    if good:
        cert = sub["certificate"]
        sub, tb, good = _physical_run(
            _params(cfg), physical_config(cfg, cert["d0"], cert["d1"])
        )
        report["physical"] = sub
        tables.update({f"physical_{k}": v for k, v in tb.items()})
        ok = ok and good

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


def run_experiment(cfg: dict):
    """Dispatch on [experiment] kind; returns (report, tables, ok)."""
    kind = cfg["experiment"]["kind"]
    try:
        runner = _RUNNERS[kind]
    except KeyError:
        raise ValueError(f"unknown experiment kind {kind!r}") from None
    return runner(cfg)
