"""The hot path: the periodic shift that replaces np.roll, the
validate-once contract of the 1D and 2D steppers and of the Newton solve,
and the direct tridiagonal solve."""

import sys

import numpy as np
import pytest

from lowmach import (
    EllipticCoefficients,
    EquationOfState,
    FluidState1D,
    InvalidStateError,
    NumericsError,
    PeriodicTridiagonalSystem,
    PositivityError,
    SchemeParams,
    SingularSystemError,
    assemble_dphi_1d,
    beta_coefficient,
    momentum_update_1d,
    solve_elliptic_nl_1d,
    solve_periodic_tridiagonal,
    step_ap_1d,
    step_ap_2d,
    step_explicit_llf_1d,
    step_ice_1d,
)
from lowmach.core import _shift
from lowmach.elliptic import _solve_strided_tridiagonal
from lowmach.presets import (
    example1_eos,
    example1_grid,
    example1_state,
    example3_eos,
    example3_grid,
    example3_state,
)

EOS2 = EquationOfState(1.0, 2.0)


@pytest.mark.parametrize("m", [1, 2, 3, 8, 11])
def test_shift_equals_roll(m):
    x = np.random.default_rng(m).standard_normal(m)
    for k in range(-m - 1, m + 2):
        shifted = _shift(x, k)
        assert np.array_equal(shifted, np.roll(x, k))
        assert shifted is not x and not np.shares_memory(shifted, x)


def test_shift_on_2d_and_empty_input_equals_roll():
    x = np.arange(12.0).reshape(3, 4)
    for axis in (0, 1):
        for k in (-2, 1, 5):
            assert np.array_equal(_shift(x, k, axis), np.roll(x, k, axis=axis))
    assert _shift(np.zeros(0), 1).shape == (0,)


def _rolled(x, k, axis=0):
    return np.roll(x, k, axis=axis)


def _twenty_steps(stepper):
    eos, grid = example1_eos(), example1_grid(100)
    state = example1_state(grid, 0.3)
    params = SchemeParams(epsilon=0.3, alpha=1.0, sigma=0.9)
    reports = []
    for _ in range(20):
        state, report = stepper(state, eos, params, grid.dx)
        reports.append(report)
    return state, reports


_STEPPERS = {
    "explicit_llf": lambda s, eos, p, dx: step_explicit_llf_1d(s, eos, p, 0.06 * dx, dx),
    "ice": lambda s, eos, p, dx: step_ice_1d(s, eos, p, 0.3 * dx, dx),
    "ap_nl": lambda s, eos, p, dx: step_ap_1d(s, eos, p, "nl", 0.3 * dx, dx),
    "ap_l": lambda s, eos, p, dx: step_ap_1d(s, eos, p, "l", 0.3 * dx, dx),
    "ap_ld": lambda s, eos, p, dx: step_ap_1d(s, eos, p, "ld", 0.3 * dx, dx),
}


@pytest.mark.parametrize("name", sorted(_STEPPERS))
def test_steps_bit_identical_to_np_roll(name, monkeypatch):
    stepper = _STEPPERS[name]
    fast_state, fast_reports = _twenty_steps(stepper)
    patched = [mod for mod_name, mod in sys.modules.items()
               if mod_name.startswith("lowmach.") and vars(mod).get("_shift") is _shift]
    assert {m.__name__ for m in patched} >= {"lowmach.onedim", "lowmach.elliptic",
                                            "lowmach.tridiag", "lowmach.diagnostics"}
    for mod in patched:
        monkeypatch.setattr(mod, "_shift", _rolled)
    roll_state, roll_reports = _twenty_steps(stepper)
    assert np.array_equal(fast_state.rho, roll_state.rho)
    assert np.array_equal(fast_state.q, roll_state.q)
    assert fast_reports == roll_reports


# ---------------------------------------------------------------------------
# validation contract

_BAD_DENSITIES = [np.array([1.0, 0.0, 1.0]), np.array([1.0, -2.0, 1.0]),
                  np.array([1.0, np.nan, 1.0]), np.array([1.0, np.inf, 1.0])]


@pytest.mark.parametrize("rho", _BAD_DENSITIES)
def test_public_constructor_and_eos_still_validate(rho):
    with pytest.raises(InvalidStateError):
        FluidState1D(rho=rho, q=np.zeros(3))
    with pytest.raises(InvalidStateError):
        EOS2.pressure(rho)
    with pytest.raises(InvalidStateError):
        EOS2.pressure_derivative(rho)


def test_public_constructor_rejects_non_finite_momentum():
    with pytest.raises(InvalidStateError):
        FluidState1D(rho=np.ones(3), q=np.array([0.0, np.nan, 0.0]))


@pytest.mark.parametrize("name", sorted(_STEPPERS))
def test_stepped_state_is_read_only(name):
    state, _ = _twenty_steps(_STEPPERS[name])
    for arr in (state.rho, state.q):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # The stepper's state passes the public constructor's checks.
    checked = FluidState1D(rho=state.rho, q=state.q)
    assert np.array_equal(checked.rho, state.rho) and np.array_equal(checked.q, state.q)


@pytest.mark.parametrize("variant", ["ld", "l", "nl"])
def test_ap_step_losing_positivity_names_the_cell(variant):
    rho = np.full(16, 1.0)
    rho[5] = 1e-3
    q = np.zeros(16)
    q[4], q[6] = -1.0, 1.0
    state = FluidState1D(rho=rho, q=q)
    with pytest.raises(PositivityError) as err:
        step_ap_1d(state, EOS2, SchemeParams(epsilon=0.8, alpha=1.0), variant, 0.05, 1 / 16)
    assert isinstance(err.value.index, int) and 0 <= err.value.index < 16
    assert f"cell {err.value.index}" in str(err.value)


# ---------------------------------------------------------------------------
# Newton solve: p, p' and the residual once per iterate

def _validated_newton(rho_n, dphi, coeff, eos, dx, newton_tol=1e-12, newton_max_iter=50,
                      linear_tol=1e-11):
    """The Newton loop with validating EOS calls and the residual of each
    iterate evaluated twice (for the convergence test and again as the
    next right-hand side); the reference the solve must match bit for bit."""
    def residual(r):
        p = eos.pressure(r)
        return r - coeff.beta * ((_shift(p, -2) - 2.0 * p + _shift(p, 2)) / (4.0 * dx**2)) - dphi

    rho = rho_n.copy()
    scale = max(1.0, float(np.abs(dphi).max()))
    for it in range(1, newton_max_iter + 1):
        assert (rho > 0.0).all()
        g = residual(rho)
        dp = eos.pressure_derivative(rho)
        b4 = coeff.beta / (4.0 * dx**2)
        delta = _solve_strided_tridiagonal(-b4 * _shift(dp, 2), 1.0 + 2.0 * b4 * dp,
                                           -b4 * _shift(dp, -2), -g, 2, linear_tol)
        rho = rho + delta
        converged = np.abs(delta).max() <= newton_tol
        if not converged:
            assert (rho > 0.0).all()
            converged = np.abs(residual(rho)).max() <= newton_tol * scale
        if converged:
            return rho, it
    raise AssertionError("reference Newton loop did not converge")


def _newton_case(gamma, seed):
    rng = np.random.default_rng(seed)
    m = 32
    eos = EquationOfState(lambda_coeff=rng.uniform(0.5, 2.0), gamma=gamma)
    state = FluidState1D(rho=rng.uniform(0.5, 1.5, m), q=0.3 * rng.standard_normal(m))
    dphi = state.rho + 0.05 * rng.standard_normal(m)
    coeff = EllipticCoefficients(beta=rng.uniform(0.001, 0.02),
                                 mobility=eos.pressure_derivative(state.rho))
    return eos, state, dphi, coeff, 1 / m


def _raise(*args, **kwargs):
    raise AssertionError("validating EOS method called")


@pytest.mark.parametrize("gamma", [1.4, 2.0])
@pytest.mark.parametrize("seed", range(4))
def test_newton_solve_matches_validated_loop(gamma, seed, monkeypatch):
    eos, state, dphi, coeff, dx = _newton_case(gamma, seed)
    expected, expected_iters = _validated_newton(state.rho, dphi, coeff, eos, dx)
    assert expected_iters > 1
    monkeypatch.setattr(EquationOfState, "pressure", _raise)
    monkeypatch.setattr(EquationOfState, "pressure_derivative", _raise)
    rho, iters = solve_elliptic_nl_1d(state.rho, dphi, coeff, eos, dx)
    assert np.array_equal(rho, expected) and iters == expected_iters


@pytest.mark.parametrize("gamma", [1.4, 2.0])
@pytest.mark.parametrize("seed", range(4))
def test_nl_step_matches_validated_loop(gamma, seed, monkeypatch):
    eos, state, _, _, dx = _newton_case(gamma, seed)
    params = SchemeParams(epsilon=0.3, alpha=1.0)
    dt = 0.3 * dx
    dphi = assemble_dphi_1d(state, eos, params, dt, dx)
    coeff = EllipticCoefficients(beta=beta_coefficient(params.epsilon, params.alpha, dt),
                                 mobility=eos.pressure_derivative(state.rho))
    rho_new, iters = _validated_newton(state.rho, dphi, coeff, eos, dx)
    q_new = momentum_update_1d(state, rho_new, eos, params, dt, dx)
    p_new = eos.pressure(rho_new)
    residual = np.abs(rho_new - coeff.beta * ((_shift(p_new, -2) - 2.0 * p_new + _shift(p_new, 2))
                                              / (4.0 * dx**2)) - dphi).max()

    monkeypatch.setattr(EquationOfState, "pressure", _raise)
    monkeypatch.setattr(EquationOfState, "pressure_derivative", _raise)
    out, report = step_ap_1d(state, eos, params, "nl", dt, dx)
    assert np.array_equal(out.rho, rho_new) and np.array_equal(out.q, q_new)
    assert report.newton_iters == iters and report.consistency_residual == float(residual)


@pytest.mark.parametrize("stencil", ["wide", "reduced"])
@pytest.mark.parametrize("eps", [0.8, 0.005])
def test_2d_step_makes_no_validating_eos_call(eps, stencil, monkeypatch):
    grid = example3_grid(16, 16)
    eos, state = example3_eos(), example3_state(grid, eps)
    params = SchemeParams(epsilon=eps, alpha=1.0)
    dt = 0.25 * grid.dx
    expected, expected_report = step_ap_2d(state, eos, params, stencil, dt, grid.dx, grid.dy)

    monkeypatch.setattr(EquationOfState, "pressure", _raise)
    monkeypatch.setattr(EquationOfState, "pressure_derivative", _raise)
    out, report = step_ap_2d(state, eos, params, stencil, dt, grid.dx, grid.dy)
    for name in ("rho", "q1", "q2"):
        assert np.array_equal(getattr(out, name), getattr(expected, name))
    assert report == expected_report


@pytest.mark.parametrize("where", ["dphi", "rho_n"])
def test_newton_non_finite_input_is_a_numerics_error(where):
    # A NaN in the start iterate used to reach the validating eos.pressure and
    # end as InvalidStateError; both inputs must end as a numerical failure.
    eos, state, dphi, coeff, dx = _newton_case(2.0, 0)
    rho_n = state.rho.copy()
    (dphi if where == "dphi" else rho_n)[5] = np.nan
    with pytest.raises(NumericsError) as err:
        solve_elliptic_nl_1d(rho_n, dphi, coeff, eos, dx)
    assert not isinstance(err.value, InvalidStateError)
    if isinstance(err.value, PositivityError):
        assert err.value.index == 5 and "cell 5" in str(err.value)


def test_singular_tridiagonal_core_raises():
    from scipy.linalg.lapack import dgtsv

    # gamma = -diag[0] = -1 folds the core to diag(2, 0, 1): exactly
    # singular, so dgtsv meets a zero pivot and reports info > 0.
    sys_ = PeriodicTridiagonalSystem(sub=np.zeros(3), diag=np.array([1.0, 0.0, 1.0]),
                                     sup=np.zeros(3), rhs=np.ones(3))
    *_, info = dgtsv(np.zeros(2), np.array([2.0, 0.0, 1.0]), np.zeros(2), np.ones((3, 2)))
    assert info > 0
    with pytest.raises(SingularSystemError, match="dgtsv info"):
        solve_periodic_tridiagonal(sys_)


def test_tridiagonal_solve_leaves_system_unchanged():
    rng = np.random.default_rng(3)
    n = 12
    sub, sup = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
    diag = 3.0 + rng.uniform(0, 1, n)
    rhs = rng.standard_normal(n)
    sys_ = PeriodicTridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs)
    copies = [a.copy() for a in (sys_.sub, sys_.diag, sys_.sup, sys_.rhs)]
    x = solve_periodic_tridiagonal(sys_)
    for a, b in zip((sys_.sub, sys_.diag, sys_.sup, sys_.rhs), copies):
        assert np.array_equal(a, b)
    assert np.max(np.abs(sys_.dense() @ x - rhs)) <= 1e-12
