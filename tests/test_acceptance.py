"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Criterion 2 runs against the converged table reference (the explicit
first-order run performed at 4x the nominal 1280-cell resolution and
restricted back onto the reference grid): a reference at the nominal
resolution alone under-resolves the O(1)-Mach shock profiles and provably
cannot reproduce the published error table's fine-grid column. The decisions
ledger carries the measurements behind that choice.
"""

import numpy as np
import pytest

from lowmach import (
    EllipticCoefficients,
    EquationOfState,
    FluidState1D,
    FluidState2D,
    NumericsError,
    SchemeParams,
    alpha_admissible,
    ap_fluctuation,
    ap_stepper,
    discrete_divergence_2d,
    solve_elliptic_2d,
    solve_elliptic_l_1d,
    solve_elliptic_ld_1d,
    solve_elliptic_nl_1d,
    step_ap_1d,
    step_ap_2d,
    step_explicit_llf_1d,
    step_ice_1d,
)
from lowmach.elliptic import apply_elliptic_operator_1d
from lowmach.presets import (
    example1_eos,
    example1_grid,
    example1_state,
    example3_eos,
    example3_grid,
    example3_state,
)
from lowmach.runner import compare_ice, reference_solution, reproduce_table1, reproduce_table2, run_raw

from test_elliptic import dense_matrix_1d, dense_matrix_2d

EOS2 = EquationOfState(1.0, 2.0)

TABLE1 = {
    (0.8, 100): 340, (0.8, 200): 970, (0.8, 400): 2420, (0.8, 800): 5460,
    (0.3, 100): 260, (0.3, 200): 510, (0.3, 400): 1000, (0.3, 800): 2050,
    (0.05, 100): 260, (0.05, 200): 490, (0.05, 400): 960, (0.05, 800): 1920,
}

TABLE2 = {
    (0.8, 20): (9.739e-1, 1.197), (0.8, 40): (5.959e-1, 7.484e-1),
    (0.8, 80): (3.467e-1, 4.180e-1), (0.8, 160): (1.985e-1, 2.048e-1),
    (0.8, 320): (1.126e-1, 8.477e-2),
    (0.05, 20): (4.679e-3, 1.355e-1), (0.05, 40): (3.305e-3, 9.574e-2),
    (0.05, 80): (2.353e-3, 6.758e-2), (0.05, 160): (1.655e-3, 4.430e-2),
    (0.05, 320): (1.094e-3, 2.538e-2),
}


def report(number, name, ok, detail=""):
    tail = f" -- {detail}" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}{tail}")


# ---------------------------------------------------------------------------
# 1. Uniform stability (Table 1).  Runtime budget: <= 10 min (measured ~20 s).


def test_criterion_1_uniform_stability():
    rows = reproduce_table1([0.8, 0.3, 0.05], [1 / 100, 1 / 200, 1 / 400, 1 / 800],
                            variant="ld", t_final=0.1)
    bad = []
    for r in rows:
        target = 1.0 / TABLE1[(r["epsilon"], round(1 / r["dx"]))]
        ratio = r["stable_dt"] / target
        if not (1 / 1.3 <= ratio <= 1.3):
            bad.append(f"dt ratio {ratio:.3f} at (eps={r['epsilon']}, dx={r['dx']:.5g})")
        if not (0.7 <= r["courant"] <= 1.4):
            bad.append(f"courant {r['courant']:.3f} at (eps={r['epsilon']}, dx={r['dx']:.5g})")
    report(1, "uniform stability, Table 1", not bad,
           f"{len(rows)} rows; " + ("; ".join(bad) if bad else "all within windows"))
    assert not bad, bad


# ---------------------------------------------------------------------------
# 2. Convergence order 1/2 (Table 2).  Reference <= 5 min, table <= 15 min
# (measured ~5 s total).


@pytest.fixture(scope="module")
def table2_rows():
    refs = {eps: reference_solution(eps) for eps in (0.8, 0.05)}
    return reproduce_table2([0.8, 0.05], refinement_levels=5, reference_states=refs)


def test_criterion_2_convergence_errors(table2_rows):
    bad = []
    for r in table2_rows:
        key = (r["epsilon"], round(1 / r["dx"]))
        p_rho, p_q = TABLE2[key]
        for label, mine, paper in (("rho", r["e_rho"], p_rho), ("q", r["e_q"], p_q)):
            factor = mine / paper
            if not (0.5 <= factor <= 2.0):
                bad.append(f"e_{label} x{factor:.2f} at {key}")
    report(2, "Table 2 errors within factor 2", not bad,
           ("20/20 errors in window" if not bad else "; ".join(bad)))
    assert not bad, bad


def test_criterion_2_convergence_ratios(table2_rows):
    bad = []
    ratios = []
    for r in table2_rows:
        ratio = r["ratio_rho"]
        if np.isnan(ratio):
            continue
        ratios.append(ratio)
        if not (1.2 <= ratio <= 2.0):
            bad.append(f"rho ratio {ratio:.3f} at (eps={r['epsilon']}, M={round(1 / r['dx'])})")
    report(2, "Table 2 successive ratios in [1.2, 2.0]", not bad,
           ("ratios " + ", ".join(f"{x:.2f}" for x in ratios)) if not bad else "; ".join(bad))
    assert not bad, bad


# ---------------------------------------------------------------------------
# 3. AP capture of the incompressible limit.  Runtime: seconds.


def test_criterion_3_low_mach_capture(tmp_path):
    ap = run_raw({
        "preset": "example1", "epsilon": 0.005, "m": 20, "dt": 1 / 500,
        "t_final": 0.01, "stepper": "ap", "variant": "ld", "alpha": 1.0,
        "output_dir": str(tmp_path / "ap"),
    })
    grid = example1_grid(20)
    state = example1_state(grid, 0.005)
    params = SchemeParams(epsilon=0.005, alpha=1.0)
    for _ in range(5):
        state, _ = step_ap_1d(state, example1_eos(), params, "ld", 1 / 500, grid.dx)
    _, fluct = ap_fluctuation(state, 0.005)

    explicit = run_raw({
        "preset": "example1", "epsilon": 0.005, "m": 20, "dt": 1 / 500,
        "t_final": 0.01, "stepper": "explicit_llf",
        "output_dir": str(tmp_path / "explicit"),
    })
    ok = ap.status == 0 and fluct <= 10.0 and explicit.status == 3
    report(3, "AP capture at eps=0.005", ok,
           f"AP status {ap.status}, fluct_inf {fluct:.3g}, explicit status {explicit.status}")
    assert ap.status == 0
    assert fluct <= 10.0
    assert explicit.status == 3


# ---------------------------------------------------------------------------
# 4. Oscillation suppression vs ICE.  Runtime budget: <= 2 min (measured ~2 s).


def test_criterion_4_ice_comparison():
    results = {eps: compare_ice(eps, 1 / 200, 1 / 20000, 0.01) for eps in (0.8, 0.3, 0.05)}
    ok_high = all(results[eps]["tv_rho_ice"] > results[eps]["tv_rho_ap"] for eps in (0.8, 0.3))
    r = results[0.05]
    rel_gap = abs(r["tv_rho_ice"] - r["tv_rho_ap"]) / r["tv_rho_ap"]
    ok = ok_high and rel_gap <= 0.2
    report(4, "oscillation suppression vs ICE", ok,
           "TV(ice)>TV(ap) at eps 0.8/0.3: %s; gap at 0.05: %.1f%%"
           % (ok_high, 100 * rel_gap))
    assert ok_high
    assert rel_gap <= 0.2


# ---------------------------------------------------------------------------
# 5. Variant agreement.


def test_criterion_5_variant_agreement():
    eos = example1_eos()
    worst = 0.0
    for eps in (0.8, 0.3, 0.05):
        grid = example1_grid(200)
        params = SchemeParams(epsilon=eps, alpha=1.0)
        finals = {}
        for variant in ("nl", "l", "ld"):
            state = example1_state(grid, eps)
            stepper = ap_stepper(variant)
            for _ in range(100):  # T = 0.05 at dt = 1/2000
                state, _ = stepper(state, eos, params, 1 / 2000, grid.dx)
            finals[variant] = state.rho
    # pairwise distances for the last eps and, cumulatively, the worst seen
        for a in ("nl", "l", "ld"):
            for b in ("nl", "l", "ld"):
                if a < b:
                    d = np.linalg.norm(finals[a] - finals[b]) / np.linalg.norm(finals[b])
                    worst = max(worst, d)
    ok = worst <= 0.05
    report(5, "NL/L/LD agreement", ok, f"worst pairwise relative L2 distance {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 6. Conservation suite (property-based).


def test_criterion_6_conservation():
    rng = np.random.default_rng(2024)
    eos = EOS2
    variants = ("nl", "l", "ld")
    worst_mass = worst_mom = 0.0
    for k in range(1000):
        m = 64
        rho = rng.uniform(0.5, 1.5, m)
        q = 0.5 * rng.standard_normal(m)
        st = FluidState1D(rho=rho, q=q)
        eps = float(rng.uniform(0.1, 1.0))
        params = SchemeParams(epsilon=eps, alpha=min(1.0, 0.9 / eps**2))
        dt = 0.05 / m
        if k % 2 == 0:
            out, _ = step_ap_1d(st, eos, params, variants[k % 3], dt, 1 / m)
        else:
            out, _ = step_explicit_llf_1d(st, eos, params, dt, 1 / m)
        worst_mass = max(worst_mass, abs(np.sum(out.rho) - np.sum(st.rho)) / np.sum(st.rho))
        worst_mom = max(worst_mom, abs(np.sum(out.q) - np.sum(st.q)) / max(1.0, abs(np.sum(st.q))))
    for k in range(100):
        m = 16
        st = FluidState2D(rho=rng.uniform(0.5, 1.5, (m, m)),
                          q1=0.4 * rng.standard_normal((m, m)),
                          q2=0.4 * rng.standard_normal((m, m)))
        eps = float(rng.uniform(0.1, 1.0))
        params = SchemeParams(epsilon=eps, alpha=min(1.0, 0.9 / eps**2))
        out, _ = step_ap_2d(st, eos, params, ("wide", "reduced")[k % 2], 0.05 / m, 1 / m, 1 / m)
        worst_mass = max(worst_mass, abs(np.sum(out.rho) - np.sum(st.rho)) / np.sum(st.rho))
        for comp_in, comp_out in ((st.q1, out.q1), (st.q2, out.q2)):
            worst_mom = max(worst_mom, abs(np.sum(comp_out) - np.sum(comp_in)) / max(1.0, abs(np.sum(comp_in))))

    # free-stream exactness, all steppers
    free_1d = FluidState1D(rho=np.full(32, 1.2), q=np.zeros(32))
    params = SchemeParams(epsilon=0.2, alpha=1.0)
    exact = True
    for variant in variants:
        out, _ = step_ap_1d(free_1d, eos, params, variant, 0.003, 1 / 32)
        exact &= np.array_equal(out.rho, free_1d.rho) and np.array_equal(out.q, free_1d.q)
    out, _ = step_explicit_llf_1d(free_1d, eos, params, 0.003, 1 / 32)
    exact &= np.array_equal(out.rho, free_1d.rho) and np.array_equal(out.q, free_1d.q)
    out, _ = step_ice_1d(free_1d, eos, params, 0.003, 1 / 32)
    exact &= np.array_equal(out.rho, free_1d.rho) and np.array_equal(out.q, free_1d.q)
    free_2d = FluidState2D(rho=np.full((8, 8), 1.2), q1=np.zeros((8, 8)), q2=np.zeros((8, 8)))
    for stencil in ("wide", "reduced"):
        out, _ = step_ap_2d(free_2d, eos, params, stencil, 0.003, 1 / 8, 1 / 8)
        exact &= all(np.array_equal(getattr(out, f), getattr(free_2d, f)) for f in ("rho", "q1", "q2"))

    ok = worst_mass <= 1e-12 and worst_mom <= 1e-12 and exact
    report(6, "conservation suite", ok,
           f"worst mass drift {worst_mass:.2e}, momentum drift {worst_mom:.2e}, "
           f"free-stream exact: {exact}")
    assert worst_mass <= 1e-12
    assert worst_mom <= 1e-12
    assert exact


# ---------------------------------------------------------------------------
# 7. Consistency residual (property-based).


def test_criterion_7_consistency_residual():
    rng = np.random.default_rng(7)
    eos = EOS2
    worst = 0.0
    for k in range(200):
        m = 64
        st = FluidState1D(rho=rng.uniform(0.6, 1.4, m), q=0.3 * rng.standard_normal(m))
        eps = float(rng.uniform(0.05, 1.0))
        alpha = float(rng.uniform(0.0, min(1.5, 1.0 / eps**2)))
        params = SchemeParams(epsilon=eps, alpha=alpha)
        cell = np.abs(st.q / st.rho) + np.sqrt(alpha * eos.pressure_derivative(st.rho))
        dt = 0.3 / (m * max(float(np.max(cell)), 1.0))
        out, rep = step_ap_1d(st, eos, params, ("nl", "l", "ld")[k % 3], dt, 1 / m)
        worst = max(worst, rep.consistency_residual / max(1.0, float(np.max(out.rho))))
    for k in range(20):
        m = 16
        st = FluidState2D(rho=rng.uniform(0.6, 1.4, (m, m)),
                          q1=0.3 * rng.standard_normal((m, m)),
                          q2=0.3 * rng.standard_normal((m, m)))
        eps = float(rng.uniform(0.05, 1.0))
        params = SchemeParams(epsilon=eps, alpha=0.0)
        out, rep = step_ap_2d(st, eos, params, ("wide", "reduced")[k % 2], 0.05 / m, 1 / m, 1 / m)
        worst = max(worst, rep.consistency_residual / max(1.0, float(np.max(out.rho))))
    tol = 10 * 1e-11
    ok = worst <= tol
    report(7, "consistency residual", ok, f"worst scaled residual {worst:.2e} vs {tol:.0e}")
    assert worst <= tol


# ---------------------------------------------------------------------------
# 8. Solver oracle equivalence (property-based).


def dense_nl_solve(dphi, beta, eos, dx):
    """Dense Newton with an explicitly assembled exact Jacobian (oracle)."""
    m = len(dphi)
    rho = np.ones(m)
    b4 = beta / (4 * dx**2)
    shift2 = np.roll(np.eye(m), -2, axis=1) - 2 * np.eye(m) + np.roll(np.eye(m), 2, axis=1)
    for _ in range(100):
        g = rho - b4 * shift2 @ eos.pressure(rho) - dphi
        jac = np.eye(m) - b4 * shift2 @ np.diag(eos.pressure_derivative(rho))
        delta = np.linalg.solve(jac, -g)
        rho = rho + delta
        if np.max(np.abs(delta)) < 1e-13:
            return rho
    raise RuntimeError("dense Newton stalled")


def test_criterion_8_solver_oracles():
    rng = np.random.default_rng(88)
    worst = 0.0
    checks = 0
    # 60 linear 1D sets
    for k in range(60):
        m = int(rng.choice([8, 16, 32, 64]))
        mob = 0.3 + 2.0 * rng.random(m)
        beta = float(10.0 ** rng.uniform(-4, -0.5))
        dphi = 1 + 0.4 * rng.standard_normal(m)
        coeff = EllipticCoefficients(beta=beta, mobility=mob)
        if k % 2 == 0:
            mine, _ = solve_elliptic_ld_1d(np.ones(m), dphi, coeff, 1 / m)
            oracle = np.linalg.solve(dense_matrix_1d("ld", mob, beta, 1 / m, m), dphi)
        else:
            mine, _ = solve_elliptic_l_1d(np.ones(m), dphi, coeff, 1 / m)
            oracle = np.linalg.solve(dense_matrix_1d("l", mob, beta, 1 / m, m), dphi)
        worst = max(worst, float(np.max(np.abs(mine - oracle))) / max(1.0, float(np.max(np.abs(oracle)))))
        checks += 1
    # 20 nonlinear sets against dense Newton
    for _ in range(20):
        m = 32
        beta = float(10.0 ** rng.uniform(-4, -1))
        dphi = 1 + 0.05 * rng.standard_normal(m)
        coeff = EllipticCoefficients(beta=beta, mobility=EOS2.pressure_derivative(np.ones(m)))
        mine, *_ = solve_elliptic_nl_1d(np.ones(m), dphi, coeff, EOS2, 1 / m)
        oracle = dense_nl_solve(dphi, beta, EOS2, 1 / m)
        worst = max(worst, float(np.max(np.abs(mine - oracle))))
        checks += 1
    # 20 2D sets (8x8 = 64 unknowns)
    for k in range(20):
        mob = 0.5 + rng.random((8, 8))
        beta = float(10.0 ** rng.uniform(-4, -1))
        dphi = 1 + 0.4 * rng.standard_normal((8, 8))
        coeff = EllipticCoefficients(beta=beta, mobility=mob)
        stencil = ("wide", "reduced")[k % 2]
        mine, _, _ = solve_elliptic_2d(np.ones((8, 8)), dphi, coeff, 1 / 8, 1 / 8, stencil=stencil)
        oracle = np.linalg.solve(dense_matrix_2d(stencil, mob, beta, 1 / 8, 1 / 8), dphi.ravel())
        worst = max(worst, float(np.max(np.abs(mine.ravel() - oracle))) / max(1.0, float(np.max(np.abs(oracle)))))
        checks += 1

    # manufactured-solution recovery and the Newton iteration bound
    m = 64
    x = (np.arange(m) + 0.5) / m
    rho_star = 1 + 0.1 * np.sin(2 * np.pi * x)
    coeff = EllipticCoefficients(beta=0.01, mobility=EOS2.pressure_derivative(np.ones(m)))
    dphi_ld = apply_elliptic_operator_1d("ld", rho_star, None, coeff, EOS2, 1 / m)
    manu_ld = float(np.max(np.abs(solve_elliptic_ld_1d(np.ones(m), dphi_ld, coeff, 1 / m)[0] - rho_star)))
    dphi_nl = apply_elliptic_operator_1d("nl", rho_star, None, coeff, EOS2, 1 / m)
    sol_nl, iters, *_ = solve_elliptic_nl_1d(np.ones(m), dphi_nl, coeff, EOS2, 1 / m)
    manu_nl = float(np.max(np.abs(sol_nl - rho_star)))

    ok = worst <= 1e-10 and manu_ld <= 1e-10 and manu_nl <= 1e-10 and iters <= 6
    report(8, "solver oracle equivalence", ok,
           f"{checks} randomized sets, worst {worst:.2e}; manufactured ld {manu_ld:.1e}, "
           f"nl {manu_nl:.1e} in {iters} iterations")
    assert worst <= 1e-10
    assert manu_ld <= 1e-10 and manu_nl <= 1e-10
    assert iters <= 6


# ---------------------------------------------------------------------------
# 9. 2D divergence diagnostic.  Runtime budget: <= 1 min (measured ~1 s).


def test_criterion_9_divergence():
    eos = example3_eos()
    grid = example3_grid(20, 20)
    state = example3_state(grid, 0.05)
    q_scale = max(float(np.max(np.abs(state.q1))), float(np.max(np.abs(state.q2))))
    params = SchemeParams(epsilon=0.05, alpha=0.0)
    for _ in range(80):  # T = 1 at dt = 1/80
        state, _ = step_ap_2d(state, eos, params, "reduced", 1 / 80, grid.dx, grid.dy)
    div = float(np.max(np.abs(discrete_divergence_2d(state, grid.dx, grid.dy))))

    state8 = example3_state(grid, 0.8)
    params8 = SchemeParams(epsilon=0.8, alpha=0.0)
    stable = True
    try:
        for _ in range(80):
            state8, _ = step_ap_2d(state8, eos, params8, "reduced", 1 / 80, grid.dx, grid.dy)
    except NumericsError:
        stable = False

    ok = div <= q_scale / 10 and stable
    report(9, "2D divergence diagnostic", ok,
           f"div {div:.3g} vs bound {q_scale / 10:.3g}; eps=0.8 run stable: {stable}")
    assert div <= q_scale / 10
    assert stable


# ---------------------------------------------------------------------------
# 10. Alpha advisor.


def test_criterion_10_alpha_advisor():
    rng = np.random.default_rng(10)
    # infeasible whenever dt <= eps dx / 4
    infeasible_ok = True
    for _ in range(1000):
        eps = 10.0 ** rng.uniform(-3, 0.3)
        dx = 10.0 ** rng.uniform(-4, -1)
        dt = eps * dx / 4 * rng.uniform(0.05, 1.0)
        sigma = rng.uniform(0.05, 1.0)
        umax = rng.uniform(0.0, 5.0)
        if alpha_admissible(dx, dt, eps, sigma, umax).feasible:
            infeasible_ok = False
            break

    # feasible at the Table-1 stable configurations with sigma = 0.9 and the
    # measured fluid speed (|u| stays near 1.05-1.35 across the runs).  The
    # two eps=0.8 fine-grid rows have dt < eps*dx/4 and thus fall under the
    # infeasibility clause above (the published stable steps there lie beyond
    # the sufficient non-oscillatory bound); the feasibility clause can only
    # apply to the remaining rows (see the decisions ledger).
    table_umax = {0.8: 1.35, 0.3: 1.1, 0.05: 1.05}
    feasible_ok = True
    for (eps, inv_dx), inv_dt in TABLE1.items():
        dx, dt = 1.0 / inv_dx, 1.0 / inv_dt
        ai = alpha_admissible(dx, dt, eps, 0.9, table_umax[eps])
        if dt <= eps * dx / 4:
            feasible_ok = feasible_ok and not ai.feasible
        else:
            feasible_ok = feasible_ok and ai.feasible

    # monotonicity over random draws
    mono_ok = True
    for _ in range(1000):
        dx = 10.0 ** rng.uniform(-4, -1)
        dt = dx * 10.0 ** rng.uniform(-2, 1)
        eps = 10.0 ** rng.uniform(-3, 0.3)
        sigma = rng.uniform(0.05, 0.99)
        umax = rng.uniform(0.0, 5.0)
        if alpha_admissible(dx, dt, eps, sigma, umax).feasible:
            mono_ok &= alpha_admissible(dx, dt, 0.5 * eps, sigma, umax).feasible
            mono_ok &= alpha_admissible(dx, dt, eps, min(0.999, 1.05 * sigma), umax).feasible
            mono_ok &= alpha_admissible(dx, dt, eps, sigma, 0.5 * umax).feasible

    ok = infeasible_ok and feasible_ok and mono_ok
    report(10, "alpha advisor", ok,
           f"infeasibility boundary: {infeasible_ok}, Table-1 feasibility: {feasible_ok}, "
           f"monotonicity: {mono_ok}")
    assert infeasible_ok
    assert feasible_ok
    assert mono_ok
