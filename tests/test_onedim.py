"""1D operators and steppers: flux formulas against hand values, every
step against the reference in ``oracle.py`` on hypothesis-drawn input,
conservation, consistency residuals, stability scans."""

import warnings
from math import ceil
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import oracle
from lowmach import (
    EquationOfState,
    FluidState1D,
    InstabilityError,
    NoStableDtError,
    NumericsError,
    ParamError,
    PositivityError,
    SchemeParams,
    SingularSystemError,
    max_stable_dt_scan,
    step_ap_1d,
    step_explicit_llf_1d,
    step_ice_1d,
)
from lowmach.diagnostics import ap_fluctuation
from lowmach.errors import ConfigError
from lowmach.handoff import MAX_STEPS, check_dt_advances, check_step_count
from lowmach.onedim import _ap_fluxes
from lowmach.presets import example1_eos, example1_grid, example1_state
# The tolerance of the solves the steps call.
from lowmach.tridiag import _LINEAR_RTOL as LINEAR_TOL

EOS2 = EquationOfState(1.0, 2.0)


def random_state(rng, m, rho_lo=0.5, rho_hi=1.5, q_amp=0.5):
    rho = rng.uniform(rho_lo, rho_hi, m)
    q = q_amp * rng.standard_normal(m)
    return FluidState1D(rho=rho, q=q)


# ---------------------------------------------------------------------------
# The step's LLF fluxes; index k holds interface k-1/2, k = 0 ... m


def test_llf_flux_pair_constant_state():
    st = FluidState1D(rho=np.ones(8), q=np.zeros(8))
    f1, f2, _, _ = _ap_fluxes(st, EOS2, 1.0)
    assert np.all(f1 == 0.0)
    assert f2 == pytest.approx(np.ones(9))  # g = alpha * p(1) = 1


def test_llf_flux_pair_single_jump():
    # rho = (1, 2) at the interface, q = 0: per-cell speeds sqrt(2), 2 so
    # A = 2 and f1 = -(2/2)(2-1) = -1.
    rho = np.array([1.0, 2.0, 2.0, 1.0])
    st = FluidState1D(rho=rho, q=np.zeros(4))
    f1, _, _, _ = _ap_fluxes(st, EOS2, 1.0)
    assert f1[1] == pytest.approx(-1.0)


def test_llf_flux_pair_alpha_zero_at_rest():
    rng = np.random.default_rng(0)
    st = FluidState1D(rho=0.5 + rng.random(6), q=np.zeros(6))
    f1, f2, _, _ = _ap_fluxes(st, EOS2, 0.0)
    assert np.all(f1 == 0.0) and np.all(f2 == 0.0)  # A = 0 still fluid


# ---------------------------------------------------------------------------
# Every step against the reference, bit for bit, reports included.  One step
# on m cells of the unit interval from rho U(0.5, 1.5) and q 0.5 N(0, 1),
# with lambda U(0.5, 2) and dt U(0.05, 0.9) times the CFL step of the
# scheme's explicit part, all drawn from ``seed``; alpha 0, 1 or 1/eps^2
# (beta = 0).


STEP_DRAWS = dict(m=st.integers(4, 50).map(lambda k: 2 * k), seed=st.integers(0, 2**32 - 1),
                  gamma=st.sampled_from([1.0, 1.4, 2.0, 3.0]), log_eps=st.floats(-3.0, 0.0),
                  alpha=st.sampled_from([0.0, 1.0, "bound"]))
STEP_SETTINGS = settings(max_examples=25, derandomize=True, database=None, deadline=None)


def _step_equals_oracle(step, reference, sound, m, seed, gamma, log_eps, alpha):
    """One drawn case: ``step`` and ``reference`` take (state, eos, params,
    dt, dx), and ``sound(p', params)`` is the sound speed of the scheme's
    explicit part."""
    rng = np.random.default_rng(seed)
    eos = EquationOfState(rng.uniform(0.5, 2.0), gamma)
    state = FluidState1D(rho=rng.uniform(0.5, 1.5, m), q=0.5 * rng.standard_normal(m))
    eps = 10.0**log_eps
    params = SchemeParams(epsilon=eps, alpha=1.0 / eps**2 if alpha == "bound" else alpha)
    speed = np.abs(state.q / state.rho) + sound(eos.pressure_derivative(state.rho), params)
    dx = 1.0 / m
    dt = rng.uniform(0.05, 0.9) * dx / float(speed.max())
    try:
        expected, expected_report = reference(state, eos, params, dt, dx)
    except SingularSystemError:
        # Random O(1) densities at small eps meet cyclic systems that the
        # residual test rejects: an error path, not compared here.
        reject()
    new, report = step(state, eos, params, dt, dx)
    assert np.array_equal(new.rho, expected.rho) and np.array_equal(new.q, expected.q)
    assert report == expected_report


# eps = 1e-3: the nl step's Newton loop stops on its increment test.
@example(m=32, seed=0, gamma=2.0, log_eps=-3.0, alpha=1.0)
@pytest.mark.parametrize("variant", ["nl", "l", "ld"])
@STEP_SETTINGS
@given(**STEP_DRAWS)
def test_step_ap_matches_oracle(variant, **draw):
    _step_equals_oracle(lambda *a: step_ap_1d(*a[:3], variant, *a[3:]),
                        lambda *a: oracle.ap_step_1d(*a[:3], variant, *a[3:]),
                        lambda dp, params: np.sqrt(params.alpha * dp), **draw)


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
        for _ in range(100):
            st, _ = step_ap_1d(st, example1_eos(), params, variant, 1 / 2000, grid.dx)
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
        assert rep.consistency_residual <= 10 * LINEAR_TOL * scale


# ---------------------------------------------------------------------------
# explicit LLF


def test_explicit_constant_state():
    st = FluidState1D(rho=np.full(8, 0.9), q=np.zeros(8))
    out, _ = step_explicit_llf_1d(st, EOS2, SchemeParams(epsilon=0.7), 0.001, 1 / 8)
    assert np.array_equal(out.rho, st.rho) and np.array_equal(out.q, st.q)


@STEP_SETTINGS
@given(**STEP_DRAWS)
def test_explicit_matches_textbook_oracle(**draw):
    _step_equals_oracle(step_explicit_llf_1d, oracle.explicit_llf_step_1d,
                        lambda dp, params: np.sqrt(dp) / params.epsilon, **draw)


def test_explicit_blows_up_on_unresolved_mesh():
    grid = example1_grid(20)
    st = example1_state(grid, 0.005)
    params = SchemeParams(epsilon=0.005)
    with pytest.raises(NumericsError):
        for _ in range(50):
            st, _ = step_explicit_llf_1d(st, example1_eos(), params, 1 / 500, grid.dx)


# ---------------------------------------------------------------------------
# ICE


@STEP_SETTINGS
@given(**STEP_DRAWS)
def test_ice_matches_oracle(**draw):
    # The pressureless predictor's speed is |u| alone.
    _step_equals_oracle(step_ice_1d, oracle.ice_step_1d, lambda dp, params: 0.0, **draw)


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
    for _ in range(200):  # T = 0.01 at dt = 1/20000
        ap, _ = step_ap_1d(ap, eos, params, "ld", 1 / 20000, grid.dx)
        ice, _ = step_ice_1d(ice, eos, params, 1 / 20000, grid.dx)
    tv = lambda v: np.sum(np.abs(np.roll(v, -1) - v))
    assert tv(ice.rho) > tv(ap.rho)


# ---------------------------------------------------------------------------
# conservation and invariants


def all_steppers():
    def ap(variant):
        def stepper(s, e, p, dt, dx):
            return step_ap_1d(s, e, p, variant, dt, dx)
        return stepper

    return [
        ("ap-nl", ap("nl")),
        ("ap-l", ap("l")),
        ("ap-ld", ap("ld")),
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
    ap = lambda s, dt: step_ap_1d(s, eos, params, "ld", dt, grid.dx)
    explicit = lambda s, dt: step_explicit_llf_1d(s, eos, params, dt, grid.dx)
    dt_ap, _ = max_stable_dt_scan(st, ap, 0.1, grid.dx / 50, 4 * grid.dx)
    dt_ex, _ = max_stable_dt_scan(st, explicit, 0.1, grid.dx / 500, 4 * grid.dx)
    assert dt_ap >= 5 * dt_ex


def test_scan_no_stable_dt():
    eos = example1_eos()
    grid = example1_grid(20)
    st = example1_state(grid, 0.005)
    params = SchemeParams(epsilon=0.005)
    explicit = lambda s, dt: step_explicit_llf_1d(s, eos, params, dt, grid.dx)
    with pytest.raises(NoStableDtError):
        max_stable_dt_scan(st, explicit, 0.01, 1 / 500, 1 / 100)


def test_scan_returns_hi_when_everything_stable():
    st = FluidState1D(rho=np.ones(16), q=np.zeros(16))
    params = SchemeParams(epsilon=0.5, alpha=1.0)
    ap = lambda s, dt: step_ap_1d(s, EOS2, params, "ld", dt, 1 / 16)
    dt, _ = max_stable_dt_scan(st, ap, 0.01, 1e-4, 1e-3)
    assert dt == 1e-3


@pytest.mark.parametrize("dt_hi, unstable_above", [(1e-3, 1.0), (1e-3, 4e-4)],
                         ids=["dt_hi-accepted", "bisected"])
def test_scan_returns_the_largest_speed_of_the_accepted_trial(dt_hi, unstable_above):
    # A fake step whose reported speed grows with dt and along the trial,
    # and that blows the density up above a dt: the scan's speed is the
    # largest one the trial at the returned dt reported, on both exits.
    initial = FluidState1D(rho=np.ones(8), q=np.zeros(8))

    def step(state, dt):
        speed = 100.0 * dt + state.q[0]
        rho = state.rho if dt <= unstable_above else 100.0 * state.rho
        return FluidState1D(rho=rho, q=state.q + dt), SimpleNamespace(max_wave_speed=speed)

    def trial_speed(dt):
        state, speed = initial, 0.0
        for _ in range(ceil(0.01 / dt)):
            state, report = step(state, dt)
            speed = max(speed, report.max_wave_speed)
        return speed

    dt, speed = max_stable_dt_scan(initial, step, 0.01, 1e-4, dt_hi)
    assert (dt == dt_hi) == (unstable_above > dt_hi)
    assert 1e-4 < dt <= min(dt_hi, unstable_above)
    assert speed == trial_speed(dt) > trial_speed(1e-4)


def test_scan_trial_with_a_float_error_is_unstable():
    # A fake step that is stable at every dt but whose numpy arithmetic
    # overflows above 4e-4: each trial runs inside the float-error boundary,
    # so those trials fail, with warnings ignored too, and the scan returns
    # a dt at or below 4e-4 instead of dt_hi.
    initial = FluidState1D(rho=np.ones(8), q=np.zeros(8))

    def step(state, dt):
        if dt > 4e-4:
            np.full(2, 1e308) * 10.0
        return state, SimpleNamespace(max_wave_speed=1.0)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        dt, _ = max_stable_dt_scan(initial, step, 0.01, 1e-4, 1e-3)
    assert 1e-4 < dt <= 4e-4


def test_library_step_keeps_numpys_float_error_default():
    # Outside the verbs a step runs under the caller's numpy error state:
    # p' = 2 rho overflows with numpy's RuntimeWarning, and the hand-off
    # still names the cell whose mobility is not finite.
    st = FluidState1D(rho=np.full(8, 1e308), q=np.zeros(8))
    params = SchemeParams(epsilon=0.5, alpha=1.0)
    with pytest.warns(RuntimeWarning) as caught:
        with pytest.raises(PositivityError, match="at cell 0"):
            step_ap_1d(st, EOS2, params, "ld", 1e-3, 1 / 8)
    assert "overflow" in str(caught[0].message)


def test_scan_with_a_dt_lo_that_cannot_advance_T_raises():
    # ceil(T / dt_lo) = 1e303 steps per trial: the scan fails before its
    # first step instead of running for ever.
    st = FluidState1D(rho=np.ones(16), q=np.zeros(16))

    def stepper(*args):
        raise AssertionError("the scan took a step")

    with pytest.raises(InstabilityError, match="cannot advance"):
        max_stable_dt_scan(st, stepper, 1e300, 1e-3, 1e-2)
    # A T that dt_lo advances, but in more than MAX_STEPS steps, fails too.
    with pytest.raises(InstabilityError, match="steps a run may take"):
        max_stable_dt_scan(st, stepper, 1e12, 1e-3, 1e-2)
    # A T that dt_lo reaches within the cap starts the trials.
    with pytest.raises(AssertionError, match="took a step"):
        max_stable_dt_scan(st, stepper, 1.0, 1e-3, 1e-2)


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
    ap = lambda s, dt: step_ap_1d(s, eos, params, "ld", dt, grid.dx)
    dt, _ = max_stable_dt_scan(st, ap, 0.1, grid.dx / 100, grid.dx)
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
