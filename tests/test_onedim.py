"""1D operators and steppers: flux formulas against hand values and
loop-coded oracles, conservation, consistency residuals, stability scans."""

import numpy as np
import pytest

from lowmach import (
    EquationOfState,
    FluidState1D,
    InstabilityError,
    NoStableDtError,
    NumericsError,
    ParamError,
    PositivityError,
    SchemeParams,
    ap_stepper,
    assemble_dphi_1d,
    interface_speed,
    llf_flux_pair,
    max_stable_dt_scan,
    momentum_update_1d,
    step_ap_1d,
    step_explicit_llf_1d,
    step_ice_1d,
    wave_speeds,
)
from lowmach.diagnostics import ap_fluctuation
from lowmach.errors import ConfigError
from lowmach.onedim import MAX_STEPS, check_dt_advances, check_step_count
from lowmach.presets import example1_eos, example1_grid, example1_state

EOS2 = EquationOfState(1.0, 2.0)


def random_state(rng, m, rho_lo=0.5, rho_hi=1.5, q_amp=0.5):
    rho = rng.uniform(rho_lo, rho_hi, m)
    q = q_amp * rng.standard_normal(m)
    return FluidState1D(rho=rho, q=q)


# ---------------------------------------------------------------------------
# wave speeds / interface speeds / fluxes


def test_wave_speeds_examples():
    lo, hi = wave_speeds(EOS2, 1.0, 0.0, 1.0)
    assert lo == pytest.approx(-np.sqrt(2)) and hi == pytest.approx(np.sqrt(2))
    lo, hi = wave_speeds(EOS2, 1.0, 0.7, 0.0)
    assert lo == 0.7 and hi == 0.7
    lo, hi = wave_speeds(EOS2, 4.0, 1.0, 1.0)
    assert lo == pytest.approx(1 - np.sqrt(8)) and hi == pytest.approx(1 + np.sqrt(8))


def test_interface_speed_examples():
    assert interface_speed(1.0, 2.0) == 2.0
    assert interface_speed(0.0, 0.0) == 0.0
    assert interface_speed(4.24, 3.1) == 4.24


def test_llf_flux_pair_constant_state():
    st = FluidState1D(rho=np.ones(8), q=np.zeros(8))
    for j in range(8):
        f1, f2 = llf_flux_pair(st, EOS2, 1.0, j)
        assert f1 == 0.0
        assert f2 == pytest.approx(1.0)  # g = alpha * p(1) = 1


def test_llf_flux_pair_single_jump():
    # rho = (1, 2) at the interface, q = 0: per-cell speeds sqrt(2), 2 so
    # A = 2 and f1 = -(2/2)(2-1) = -1.
    rho = np.array([1.0, 2.0, 2.0, 1.0])
    st = FluidState1D(rho=rho, q=np.zeros(4))
    f1, _ = llf_flux_pair(st, EOS2, 1.0, 0)
    assert f1 == pytest.approx(-1.0)


def test_llf_flux_pair_alpha_zero_at_rest():
    rng = np.random.default_rng(0)
    st = FluidState1D(rho=0.5 + rng.random(6), q=np.zeros(6))
    for j in range(6):
        f1, f2 = llf_flux_pair(st, EOS2, 0.0, j)
        assert f1 == 0.0 and f2 == 0.0  # A = 0 still fluid


# ---------------------------------------------------------------------------
# Dphi against a loop-coded oracle


def dphi_oracle(rho, q, eos, alpha, dt, dx):
    """Brute-force evaluation of the elliptic right-hand side, written from
    the interface-flux definitions with explicit loops (no reuse of the
    production flux code)."""
    m = len(rho)
    u = q / rho

    def lam(j):
        s = np.sqrt(alpha * eos.pressure_derivative(rho[j]))
        return max(abs(u[j] - s), abs(u[j] + s))

    def a_half(j):  # interface j+1/2
        return max(lam(j), lam((j + 1) % m))

    def f1_half(j):
        jp = (j + 1) % m
        return 0.5 * (q[j] + q[jp]) - 0.5 * a_half(j) * (rho[jp] - rho[j])

    def f2_half(j):
        jp = (j + 1) % m
        gj = rho[j] * u[j] ** 2 + alpha * eos.pressure(rho[j])
        gp = rho[jp] * u[jp] ** 2 + alpha * eos.pressure(rho[jp])
        return 0.5 * (gj + gp) - 0.5 * a_half(j) * (q[jp] - q[j])

    def d_f2(j):  # (f2_{j+1/2} - f2_{j-1/2}) / dx
        return (f2_half(j) - f2_half((j - 1) % m)) / dx

    out = np.empty(m)
    for j in range(m):
        out[j] = (
            rho[j]
            - (dt / dx) * (f1_half(j) - f1_half((j - 1) % m))
            + dt**2 / (2 * dx) * (d_f2((j + 1) % m) - d_f2((j - 1) % m))
        )
    return out


def test_dphi_constant_state():
    st = FluidState1D(rho=np.full(10, 1.3), q=np.zeros(10))
    params = SchemeParams(epsilon=0.5, alpha=1.0)
    out = assemble_dphi_1d(st, EOS2, params, 0.01, 0.1)
    assert np.array_equal(out, np.full(10, 1.3))


def test_dphi_dt_zero():
    rng = np.random.default_rng(1)
    st = random_state(rng, 12)
    params = SchemeParams(epsilon=0.5, alpha=1.0)
    out = assemble_dphi_1d(st, EOS2, params, 0.0, 1 / 12)
    assert np.allclose(out, st.rho, rtol=0, atol=1e-15)


def test_dphi_matches_oracle_on_benchmark_data():
    grid = example1_grid(100)
    st = example1_state(grid, 0.8)
    params = SchemeParams(epsilon=0.8, alpha=1.0)
    dt = 1 / 340
    out = assemble_dphi_1d(st, example1_eos(), params, dt, grid.dx)
    oracle = dphi_oracle(st.rho, st.q, example1_eos(), 1.0, dt, grid.dx)
    assert np.max(np.abs(out - oracle)) <= 1e-13


def test_dphi_matches_oracle_random():
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = int(rng.choice([8, 16, 32]))
        st = random_state(rng, m)
        alpha = float(rng.uniform(0, 2))
        params = SchemeParams(epsilon=0.7, alpha=alpha)
        dt = float(rng.uniform(0.001, 0.01))
        out = assemble_dphi_1d(st, EOS2, params, dt, 1 / m)
        oracle = dphi_oracle(st.rho, st.q, EOS2, alpha, dt, 1 / m)
        assert np.max(np.abs(out - oracle)) <= 1e-12


# ---------------------------------------------------------------------------
# momentum update


def test_momentum_update_trivial_cases():
    st = FluidState1D(rho=np.full(8, 1.2), q=np.zeros(8))
    params = SchemeParams(epsilon=0.3, alpha=1.0)
    q1 = momentum_update_1d(st, np.full(8, 1.2), EOS2, params, 0.01, 1 / 8)
    assert np.array_equal(q1, np.zeros(8))
    rng = np.random.default_rng(2)
    st2 = random_state(rng, 8)
    q2 = momentum_update_1d(st2, 0.9 + 0.2 * rng.random(8), EOS2, params, 0.0, 1 / 8)
    assert np.array_equal(q2, st2.q)


def test_momentum_update_conserves_total():
    rng = np.random.default_rng(3)
    params = SchemeParams(epsilon=0.2, alpha=2.0)
    for _ in range(20):
        st = random_state(rng, 16)
        rho_new = 0.8 + 0.4 * rng.random(16)
        q_new = momentum_update_1d(st, rho_new, EOS2, params, 0.004, 1 / 16)
        assert np.sum(q_new) == pytest.approx(np.sum(st.q), abs=1e-12 * max(1, abs(np.sum(st.q))))


# ---------------------------------------------------------------------------
# semi-implicit step


@pytest.mark.parametrize("variant", ["nl", "l", "ld"])
def test_step_ap_free_stream_exact(variant):
    st = FluidState1D(rho=np.full(12, 1.4), q=np.zeros(12))
    for eps, alpha, dt in [(0.8, 1.0, 0.01), (0.01, 0.0, 0.002), (0.3, 1.0 / 0.09, 0.005)]:
        params = SchemeParams(epsilon=eps, alpha=alpha)
        out, rep = step_ap_1d(st, EOS2, params, variant, dt, 1 / 12)
        assert np.array_equal(out.rho, st.rho)
        assert np.array_equal(out.q, st.q)
        assert rep.consistency_residual <= 1e-13


def test_step_ap_rejects_invalid_params():
    st = FluidState1D(rho=np.ones(8), q=np.zeros(8))
    with pytest.raises(ParamError):
        step_ap_1d(st, EOS2, SchemeParams(epsilon=0.1, alpha=200.0), "ld", 0.01, 1 / 8)
    with pytest.raises(ValueError):
        step_ap_1d(st, EOS2, SchemeParams(epsilon=0.1), "ld", 0.0, 1 / 8)


def test_step_ap_low_mach_unresolved_mesh_stable():
    # eps = 0.005 on a mesh that does not resolve it: the semi-implicit step
    # stays finite and positive where the explicit scheme blows up.
    grid = example1_grid(20)
    st = example1_state(grid, 0.005)
    params = SchemeParams(epsilon=0.005, alpha=1.0)
    out, rep = step_ap_1d(st, example1_eos(), params, "ld", 1 / 500, grid.dx)
    assert np.all(np.isfinite(out.rho)) and np.all(out.rho > 0)
    assert rep.consistency_residual <= 1e-10


def test_step_ap_variants_agree():
    grid = example1_grid(200)
    params = SchemeParams(epsilon=0.8, alpha=1.0)
    finals = {}
    for variant in ("nl", "l", "ld"):
        st = example1_state(grid, 0.8)
        stepper = ap_stepper(variant)
        for _ in range(100):
            st, _ = stepper(st, example1_eos(), params, 1 / 2000, grid.dx)
        finals[variant] = st.rho
    for a in ("nl", "l"):
        for b in ("l", "ld"):
            if a != b:
                dist = np.linalg.norm(finals[a] - finals[b]) / np.linalg.norm(finals[b])
                assert dist <= 0.05


def test_step_ap_nl_flux_form_identity():
    # For the nonlinear variant the returned pair satisfies the flux-form
    # density update with the implicit momentum average exactly (up to the
    # Newton tolerance): the elimination onto the elliptic equation is an
    # algebraic identity, not an approximation.
    rng = np.random.default_rng(4)
    st = random_state(rng, 32, q_amp=0.3)
    params = SchemeParams(epsilon=0.4, alpha=1.0)
    dt, dx = 0.002, 1 / 32
    out, _ = step_ap_1d(st, EOS2, params, "nl", dt, dx)
    u = st.q / st.rho
    cell = np.abs(u) + np.sqrt(params.alpha * EOS2.pressure_derivative(st.rho))
    a = np.maximum(cell, np.roll(cell, -1))
    f1_impl = 0.5 * (out.q + np.roll(out.q, -1)) - 0.5 * a * (np.roll(st.rho, -1) - st.rho)
    resid = out.rho - st.rho + (dt / dx) * (f1_impl - np.roll(f1_impl, 1))
    assert np.max(np.abs(resid)) <= 1e-10


@pytest.mark.parametrize("variant", ["nl", "l", "ld"])
def test_step_ap_consistency_residual(variant):
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = 64
        st = random_state(rng, m, q_amp=0.3)
        eps = float(rng.uniform(0.05, 1.0))
        alpha = float(rng.uniform(0.0, 1.0)) / eps**2 * rng.uniform(0.0, 0.99)
        params = SchemeParams(epsilon=eps, alpha=alpha)
        cell = np.abs(st.q / st.rho) + np.sqrt(alpha * EOS2.pressure_derivative(st.rho))
        dt = 0.3 / (m * max(np.max(cell), 1.0))
        out, rep = step_ap_1d(st, EOS2, params, variant, dt, 1 / m)
        scale = max(1.0, float(np.max(out.rho)))
        assert rep.consistency_residual <= 10 * params.linear_tol * scale


# ---------------------------------------------------------------------------
# explicit LLF


def explicit_llf_oracle(rho, q, eos, eps, dt, dx):
    """Textbook LLF step for the unsplit system, loops and all."""
    m = len(rho)
    u = q / rho
    h = rho * u**2 + eos.pressure(rho) / eps**2
    lam = np.abs(u) + np.sqrt(eos.pressure_derivative(rho)) / eps
    rho_new = np.empty(m)
    q_new = np.empty(m)
    for j in range(m):
        jp, jm = (j + 1) % m, (j - 1) % m
        a_p = max(lam[j], lam[jp])
        a_m = max(lam[jm], lam[j])
        f1_p = 0.5 * (q[j] + q[jp]) - 0.5 * a_p * (rho[jp] - rho[j])
        f1_m = 0.5 * (q[jm] + q[j]) - 0.5 * a_m * (rho[j] - rho[jm])
        f2_p = 0.5 * (h[j] + h[jp]) - 0.5 * a_p * (q[jp] - q[j])
        f2_m = 0.5 * (h[jm] + h[j]) - 0.5 * a_m * (q[j] - q[jm])
        rho_new[j] = rho[j] - dt / dx * (f1_p - f1_m)
        q_new[j] = q[j] - dt / dx * (f2_p - f2_m)
    return rho_new, q_new


def test_explicit_constant_state():
    st = FluidState1D(rho=np.full(8, 0.9), q=np.zeros(8))
    out, _ = step_explicit_llf_1d(st, EOS2, SchemeParams(epsilon=0.7), 0.001, 1 / 8)
    assert np.array_equal(out.rho, st.rho) and np.array_equal(out.q, st.q)


def test_explicit_matches_textbook_oracle():
    m = 64
    x = (np.arange(m) + 0.5) / m
    st = FluidState1D(rho=1 + 0.1 * np.sin(2 * np.pi * x), q=0.1 * np.cos(2 * np.pi * x))
    params = SchemeParams(epsilon=1.0, alpha=1.0)
    out, _ = step_explicit_llf_1d(st, EOS2, params, 1e-3, 1 / m)
    rho_o, q_o = explicit_llf_oracle(st.rho, st.q, EOS2, 1.0, 1e-3, 1 / m)
    assert np.max(np.abs(out.rho - rho_o)) <= 1e-13
    assert np.max(np.abs(out.q - q_o)) <= 1e-13


def test_explicit_blows_up_on_unresolved_mesh():
    grid = example1_grid(20)
    st = example1_state(grid, 0.005)
    params = SchemeParams(epsilon=0.005)
    with pytest.raises(NumericsError):
        for _ in range(50):
            st, _ = step_explicit_llf_1d(st, example1_eos(), params, 1 / 500, grid.dx)


# ---------------------------------------------------------------------------
# ICE


def ice_oracle(rho, q, eos, eps, dt, dx):
    """Pressureless LLF predictor, loops and all, then the implicit pressure
    correction as a dense three-point solve."""
    m = len(rho)
    u = q / rho
    g = rho * u**2
    lam = np.abs(u)
    rho_star = np.empty(m)
    q_star = np.empty(m)
    for j in range(m):
        jp, jm = (j + 1) % m, (j - 1) % m
        a_p = max(lam[j], lam[jp])
        a_m = max(lam[jm], lam[j])
        f1_p = 0.5 * (q[j] + q[jp]) - 0.5 * a_p * (rho[jp] - rho[j])
        f1_m = 0.5 * (q[jm] + q[j]) - 0.5 * a_m * (rho[j] - rho[jm])
        f2_p = 0.5 * (g[j] + g[jp]) - 0.5 * a_p * (q[jp] - q[j])
        f2_m = 0.5 * (g[jm] + g[j]) - 0.5 * a_m * (q[j] - q[jm])
        rho_star[j] = rho[j] - dt / dx * (f1_p - f1_m)
        q_star[j] = q[j] - dt / dx * (f2_p - f2_m)
    # rho - (dt/eps)^2 D(p'(rho^n) D rho) = rho_star on the three-point stencil
    mob = eos.pressure_derivative(rho)
    b = dt**2 / (eps**2 * dx**2)
    a = np.eye(m)
    for j in range(m):
        jp, jm = (j + 1) % m, (j - 1) % m
        a[j, jp] -= b * mob[jp]
        a[j, j] += b * (mob[jp] + mob[j])
        a[j, jm] -= b * mob[j]
    rho_new = np.linalg.solve(a, rho_star)
    p = eos.pressure(rho_new)
    q_new = np.array([q_star[j] - dt / eps**2 * (p[(j + 1) % m] - p[j - 1]) / (2 * dx)
                      for j in range(m)])
    return rho_new, q_new


def test_ice_matches_oracle():
    rng = np.random.default_rng(12)
    for m, eps in ((16, 0.8), (48, 0.1), (64, 0.02)):
        st = random_state(rng, m, q_amp=0.3)
        dt = 0.4 / (m * (1.0 + np.max(np.abs(st.q / st.rho))))
        out, _ = step_ice_1d(st, EOS2, SchemeParams(epsilon=eps), dt, 1 / m)
        rho_o, q_o = ice_oracle(st.rho, st.q, EOS2, eps, dt, 1 / m)
        assert np.max(np.abs(out.rho - rho_o)) <= 1e-12
        assert np.max(np.abs(out.q - q_o)) <= 1e-12 * max(1.0, np.max(np.abs(q_o)))


def test_ice_constant_state():
    st = FluidState1D(rho=np.full(10, 1.1), q=np.zeros(10))
    out, _ = step_ice_1d(st, EOS2, SchemeParams(epsilon=0.4), 0.001, 0.1)
    assert np.array_equal(out.rho, st.rho) and np.array_equal(out.q, st.q)


def test_ice_small_dt_limit_returns_input():
    rng = np.random.default_rng(6)
    st = random_state(rng, 16, q_amp=0.2)
    params = SchemeParams(epsilon=0.5)
    prev = None
    for dt in (1e-4, 1e-5, 1e-6):
        out, _ = step_ice_1d(st, EOS2, params, dt, 1 / 16)
        change = np.max(np.abs(out.rho - st.rho)) + np.max(np.abs(out.q - st.q))
        if prev is not None:
            assert change < 0.2 * prev
        prev = change


def test_ice_oscillates_more_than_ap():
    grid = example1_grid(200)
    eos = example1_eos()
    params = SchemeParams(epsilon=0.8, alpha=1.0)
    ap = example1_state(grid, 0.8)
    ice = example1_state(grid, 0.8)
    stepper = ap_stepper("ld")
    for _ in range(200):  # T = 0.01 at dt = 1/20000
        ap, _ = stepper(ap, eos, params, 1 / 20000, grid.dx)
        ice, _ = step_ice_1d(ice, eos, params, 1 / 20000, grid.dx)
    tv = lambda v: np.sum(np.abs(np.roll(v, -1) - v))
    assert tv(ice.rho) > tv(ap.rho)


# ---------------------------------------------------------------------------
# conservation and invariants


def all_steppers():
    return [
        ("ap-nl", ap_stepper("nl")),
        ("ap-l", ap_stepper("l")),
        ("ap-ld", ap_stepper("ld")),
        ("explicit", lambda s, e, p, dt, dx: step_explicit_llf_1d(s, e, p, dt, dx)),
        ("ice", lambda s, e, p, dt, dx: step_ice_1d(s, e, p, dt, dx)),
    ]


@pytest.mark.parametrize("name,stepper", all_steppers())
def test_mass_and_momentum_conservation(name, stepper):
    rng = np.random.default_rng(hash(name) % 2**32)
    m = 64
    for _ in range(25):
        st = random_state(rng, m, q_amp=0.4)
        eps = float(rng.uniform(0.1, 1.0))
        params = SchemeParams(epsilon=eps, alpha=min(1.0, 0.9 / eps**2))
        dt = 0.2 / (m * 4.0)
        out, _ = stepper(st, EOS2, params, dt, 1 / m)
        mass0, mass1 = np.sum(st.rho), np.sum(out.rho)
        mom0, mom1 = np.sum(st.q), np.sum(out.q)
        assert abs(mass1 - mass0) <= 1e-12 * abs(mass0)
        assert abs(mom1 - mom0) <= 1e-12 * max(1.0, abs(mom0))


def test_ap_fluctuation_scaling():
    # One semi-implicit step from well-prepared data keeps the density
    # fluctuation at the squared-Mach scale.
    eos = example1_eos()
    grid = example1_grid(50)
    for eps in (0.1, 0.01, 0.001):
        st = example1_state(grid, eps)
        params = SchemeParams(epsilon=eps, alpha=1.0)
        out, _ = step_ap_1d(st, eos, params, "ld", 1 / 500, grid.dx)
        _, fluct = ap_fluctuation(out, eps)
        assert fluct <= 10.0


def test_small_dt_agreement_ap_vs_explicit():
    # At eps = 1, alpha = 1 the pressure is fully explicit and the two
    # steppers differ only in the second-order term of the density update.
    m = 64
    x = (np.arange(m) + 0.5) / m
    st = FluidState1D(rho=1 + 0.1 * np.sin(2 * np.pi * x), q=0.1 * np.cos(2 * np.pi * x))
    params = SchemeParams(epsilon=1.0, alpha=1.0)
    ratios = []
    for dt in (1e-3, 5e-4, 2.5e-4):
        a, _ = step_ap_1d(st, EOS2, params, "ld", dt, 1 / m)
        e, _ = step_explicit_llf_1d(st, EOS2, params, dt, 1 / m)
        diff = np.sqrt(np.mean((a.rho - e.rho) ** 2) + np.mean((a.q - e.q) ** 2))
        ratios.append(diff / dt)
    assert all(r <= 0.05 for r in ratios)
    assert ratios[2] <= ratios[0]


# ---------------------------------------------------------------------------
# stability scan


def test_scan_explicit_vs_ap_factor():
    eos = example1_eos()
    grid = example1_grid(100)
    st = example1_state(grid, 0.05)
    params = SchemeParams(epsilon=0.05, alpha=1.0)
    explicit = lambda s, e, p, dt, dx: step_explicit_llf_1d(s, e, p, dt, dx)
    dt_ap = max_stable_dt_scan(st, eos, params, ap_stepper("ld"), 0.1,
                               grid.dx / 50, 4 * grid.dx, grid.dx)
    dt_ex = max_stable_dt_scan(st, eos, params, explicit, 0.1,
                               grid.dx / 500, 4 * grid.dx, grid.dx)
    assert dt_ap >= 5 * dt_ex


def test_scan_no_stable_dt():
    eos = example1_eos()
    grid = example1_grid(20)
    st = example1_state(grid, 0.005)
    params = SchemeParams(epsilon=0.005)
    explicit = lambda s, e, p, dt, dx: step_explicit_llf_1d(s, e, p, dt, dx)
    with pytest.raises(NoStableDtError):
        max_stable_dt_scan(st, eos, params, explicit, 0.01, 1 / 500, 1 / 100, grid.dx)


def test_scan_returns_hi_when_everything_stable():
    st = FluidState1D(rho=np.ones(16), q=np.zeros(16))
    params = SchemeParams(epsilon=0.5, alpha=1.0)
    dt = max_stable_dt_scan(st, EOS2, params, ap_stepper("ld"), 0.01, 1e-4, 1e-3, 1 / 16)
    assert dt == 1e-3


def test_scan_with_a_dt_lo_that_cannot_advance_T_raises():
    # ceil(T / dt_lo) = 1e303 steps per trial: the scan fails before its
    # first step instead of running for ever.
    st = FluidState1D(rho=np.ones(16), q=np.zeros(16))
    params = SchemeParams(epsilon=0.5, alpha=1.0)

    def stepper(*args):
        raise AssertionError("the scan took a step")

    with pytest.raises(InstabilityError, match="cannot advance"):
        max_stable_dt_scan(st, EOS2, params, stepper, 1e300, 1e-3, 1e-2, 1 / 16)
    # A T that dt_lo advances, but in more than MAX_STEPS steps, fails too.
    with pytest.raises(InstabilityError, match="steps a run may take"):
        max_stable_dt_scan(st, EOS2, params, stepper, 1e12, 1e-3, 1e-2, 1 / 16)
    # A T that dt_lo reaches within the cap starts the trials.
    with pytest.raises(AssertionError, match="took a step"):
        max_stable_dt_scan(st, EOS2, params, stepper, 1.0, 1e-3, 1e-2, 1 / 16)


def test_step_count_cap():
    # t_end / dt at the cap passes, above it fails with the caller's error;
    # a dt that cannot move t off t_end is check_dt_advances's to reject.
    check_step_count(1.0, float(MAX_STEPS))
    with pytest.raises(InstabilityError, match="1000000 steps a run may take"):
        check_step_count(1.0, float(MAX_STEPS + 1))
    with pytest.raises(ConfigError, match="t_final / dt"):
        check_step_count(1e-3, 1e12, ConfigError)
    check_step_count(5e-324, 0.01, ConfigError)
    with pytest.raises(InstabilityError, match="cannot advance"):
        check_dt_advances(5e-324, 0.01)


def test_scan_smoke_tiny_grid():
    eos = example1_eos()
    grid = example1_grid(4)
    st = example1_state(grid, 0.3)
    params = SchemeParams(epsilon=0.3, alpha=1.0)
    dt = max_stable_dt_scan(st, eos, params, ap_stepper("ld"), 0.1,
                            grid.dx / 100, grid.dx, grid.dx)
    assert dt > 0


def test_positivity_error_carries_index():
    rho = np.full(16, 1.0)
    rho[5] = 1e-6
    st = FluidState1D(rho=rho, q=np.full(16, 1.0))
    params = SchemeParams(epsilon=0.8, alpha=1.0)
    with pytest.raises(PositivityError) as err:
        # Huge dt drives the update negative somewhere near the dip.
        step_explicit_llf_1d(st, EOS2, params, 0.05, 1 / 16)
    assert isinstance(err.value.index, int)


def test_ice_positivity_error():
    rho = np.full(16, 1.0)
    rho[5] = 1e-5
    st = FluidState1D(rho=rho, q=np.full(16, 1.0))
    params = SchemeParams(epsilon=0.8, alpha=1.0)
    with pytest.raises(PositivityError):
        step_ice_1d(st, EOS2, params, 0.05, 1 / 16)


def test_nl_solver_positivity_error():
    from lowmach import solve_elliptic_nl_1d
    from lowmach.elliptic import EllipticCoefficients

    coeff = EllipticCoefficients(beta=0.001, mobility=EOS2.pressure_derivative(np.ones(8)))
    with pytest.raises(PositivityError):
        # a uniformly negative right-hand side has no positive solution
        solve_elliptic_nl_1d(np.ones(8), np.full(8, -5.0), coeff, EOS2, 1 / 8)


def test_llf_flux_pair_index_wraps():
    st = FluidState1D(rho=np.array([1.0, 2.0, 1.5, 1.2]), q=np.zeros(4))
    assert llf_flux_pair(st, EOS2, 1.0, -1) == llf_flux_pair(st, EOS2, 1.0, 3)
    assert llf_flux_pair(st, EOS2, 1.0, 4) == llf_flux_pair(st, EOS2, 1.0, 0)


def test_wave_speeds_vectorized():
    lo, hi = wave_speeds(EOS2, np.array([1.0, 4.0]), np.array([0.0, 1.0]), 1.0)
    assert np.allclose(lo, [-np.sqrt(2), 1 - np.sqrt(8)])
    assert np.allclose(hi, [np.sqrt(2), 1 + np.sqrt(8)])


@pytest.mark.parametrize("eps, code", [(0.0, "epsilon-not-positive"),
                                       (1e-170, "epsilon-scale-not-finite")])
def test_ice_validates_params(eps, code):
    # The corrector divides by eps^2: an epsilon out of range is a ParamError,
    # as in step_ap_1d, not a ZeroDivisionError.
    st = FluidState1D(rho=np.ones(8), q=np.zeros(8))
    with pytest.raises(ParamError) as err:
        step_ice_1d(st, EOS2, SchemeParams(epsilon=eps), 0.01, 1 / 8)
    assert err.value.code == code


@pytest.mark.parametrize("eps, code", [(np.inf, "epsilon-not-positive"),
                                       (1e-170, "epsilon-scale-not-finite")])
def test_explicit_validates_params(eps, code):
    # Like the other steppers, the explicit step rejects an epsilon that
    # validate_params rejects: inf used to step, and 1e-170 (eps^2 = 0) ended
    # as "non-finite momentum after step".
    st = FluidState1D(rho=np.ones(8), q=np.zeros(8))
    with pytest.raises(ParamError) as err:
        step_explicit_llf_1d(st, EOS2, SchemeParams(epsilon=eps), 0.01, 1 / 8)
    assert err.value.code == code
