"""The hot path: the periodic pair kernel of the 2D path, the 1D LLF
kernel and the nl Newton loop on periodic extensions, the validate-once
contract of the 1D and 2D steppers and of the Newton solve, what the
solves hand back by return value, the 1D bands built without face
coefficients, the hand-off checks folded into the report sums, and the
direct tridiagonal solve."""

import os
import subprocess
import sys
import textwrap
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lowmach
import oracle
from lowmach import (
    EllipticCoefficients,
    EquationOfState,
    FluidState1D,
    InstabilityError,
    InvalidStateError,
    NumericsError,
    PositivityError,
    ParamError,
    SchemeParams,
    SingularSystemError,
    beta_coefficient,
    solve_elliptic_nl_1d,
    solve_periodic_tridiagonal,
    step_ap_1d,
    step_ap_2d,
    step_explicit_llf_1d,
    step_ice_1d,
)
from lowmach import elliptic, onedim, tridiag, twodim
from lowmach.core import FluidState2D, _pair
from lowmach.diagnostics import total_variation
from lowmach.elliptic import _solve_strided_tridiagonal, apply_elliptic_operator_1d
from lowmach.handoff import _check_new_density, _finish_step
# The 1D linear solves' tolerance, which the steps use.
from lowmach.tridiag import _LINEAR_RTOL as LINEAR_TOL
from lowmach.presets import (
    example1_eos,
    example1_grid,
    example1_state,
    example2_eos,
    example2_grid,
    example2_state,
    example3_eos,
    example3_grid,
    example3_state,
)

EOS2 = EquationOfState(1.0, 2.0)


def _rolled_pair(op, x, a, b, axis, out):
    """The np.roll formula of :func:`lowmach.core._pair`."""
    return op(np.roll(x, -a, axis), np.roll(x, -b, axis), out=out)


def _pairs_equal_roll(x, axis):
    # Every pair of offsets within one period and a cell either side, into
    # an output filled with NaN, so that a cell left unwritten shows.
    n = x.shape[axis]
    for a in range(-n - 1, n + 2):
        for b in range(-n - 1, n + 2):
            out = _pair(np.subtract, x, a, b, axis, np.full(x.shape, np.nan))
            assert np.array_equal(out, _rolled_pair(np.subtract, x, a, b, axis, np.empty(x.shape)))


@pytest.mark.parametrize("m", [1, 2, 3, 8, 11])
def test_shift_equals_roll(m):
    # The periodic shifts of a 1D field: _pair's and the total variation's
    # wrap difference are np.roll's.
    x = np.random.default_rng(m).standard_normal(m)
    _pairs_equal_roll(x, 0)
    assert total_variation(x) == float(np.sum(np.abs(np.roll(x, -1) - x)))


def test_shift_on_2d_and_empty_input_equals_roll():
    x = np.arange(12.0).reshape(3, 4)
    for axis in (0, 1):
        for k in (-2, 1, 5):
            out = _pair(np.subtract, x, k, 0, axis, np.full(x.shape, np.nan))
            assert np.array_equal(out, np.roll(x, -k, axis=axis) - x)
    assert total_variation(np.zeros(0)) == 0.0


@pytest.mark.parametrize("layout", ["c", "transposed", "read-only"])
@pytest.mark.parametrize("shape", [(4, 4), (3, 5), (6, 8)])
def test_shift_2d_equals_roll_for_every_k(shape, layout):
    x = np.random.default_rng(sum(shape)).standard_normal(shape)
    if layout == "transposed":
        x = np.random.default_rng(sum(shape)).standard_normal(shape[::-1]).T
        assert not x.flags.c_contiguous
    elif layout == "read-only":
        x.flags.writeable = False
    for axis in (0, 1):
        _pairs_equal_roll(x, axis)


# Every (a, b) the 2D kernels pass to _pair, s the stride 1 or 2.
_KERNEL_PAIRS = [(1, -1), (1, 0), (-1, 0), (0, 1), (2, 0), (0, -1), (0, -2)]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(pair=st.sampled_from(_KERNEL_PAIRS), op=st.sampled_from([np.subtract, np.maximum]),
       shape=st.lists(st.integers(1, 9), min_size=1, max_size=2).map(tuple),
       axis=st.integers(0, 1), layout=st.sampled_from(["c", "transposed", "strided"]),
       seed=st.integers(0, 2**32 - 1))
def test_pair_equals_roll(pair, op, shape, axis, layout, seed):
    # _pair against np.roll for the kernels' offsets, along either axis of
    # 1D and 2D arrays with axes of length 1, 2, 3 or more, read from C,
    # transposed or strided memory and written over NaN.
    axis %= len(shape)
    rng = np.random.default_rng(seed)
    if layout == "transposed":
        x = rng.standard_normal(shape[::-1]).T
    elif layout == "strided":
        x = rng.standard_normal(tuple(2 * n for n in shape))[(slice(None, None, 2),) * len(shape)]
    else:
        x = rng.standard_normal(shape)
    a, b = pair
    out = np.full(shape, np.nan)
    assert _pair(op, x, a, b, axis, out) is out
    assert np.array_equal(out, _rolled_pair(op, x, a, b, axis, np.empty(shape)))


_EXAMPLES_1D = {
    "example1": (example1_eos, example1_grid, example1_state),
    "example2": (example2_eos, example2_grid, example2_state),  # gamma = 1.4
}


def _twenty_steps(stepper, example="example1", m=100):
    make_eos, make_grid, make_state = _EXAMPLES_1D[example]
    eos, grid = make_eos(), make_grid(m)
    state = make_state(grid, 0.3)
    params = SchemeParams(epsilon=0.3, alpha=1.0, sigma=0.9)
    reports = []
    for _ in range(20):
        state, report = stepper(state, eos, params, grid.dx)
        reports.append(report)
    return state, reports


def _steppers(explicit_llf, ice, ap):
    return {
        "explicit_llf": lambda s, eos, p, dx: explicit_llf(s, eos, p, 0.06 * dx, dx),
        "ice": lambda s, eos, p, dx: ice(s, eos, p, 0.3 * dx, dx),
        "ap_nl": lambda s, eos, p, dx: ap(s, eos, p, "nl", 0.3 * dx, dx),
        "ap_l": lambda s, eos, p, dx: ap(s, eos, p, "l", 0.3 * dx, dx),
        "ap_ld": lambda s, eos, p, dx: ap(s, eos, p, "ld", 0.3 * dx, dx),
    }


_STEPPERS = _steppers(step_explicit_llf_1d, step_ice_1d, step_ap_1d)
# The same steps from the reference's np.roll formulas.
_ROLL_STEPPERS = _steppers(oracle.explicit_llf_step_1d, oracle.ice_step_1d, oracle.ap_step_1d)


def _five_steps_2d(stencil, alpha):
    eps = 0.05
    grid = example3_grid(16, 16)
    eos, state = example3_eos(), example3_state(grid, eps)
    params = SchemeParams(epsilon=eps, alpha=alpha, sigma=0.9)
    reports = []
    for _ in range(5):
        state, report = step_ap_2d(state, eos, params, stencil, 0.25 * grid.dx, grid.dx,
                                   grid.dy)
        reports.append(report)
    return state, reports


_ROLL_CASES = {name: partial(_twenty_steps, stepper) for name, stepper in _STEPPERS.items()}
# The 2D names say that the step's elliptic right-hand side is the literal
# elimination of the new-time momenta.
_ROLL_CASES.update({
    f"ap2d_{stencil}_literal_alpha{alpha:g}": partial(_five_steps_2d, stencil, alpha)
    for stencil in ("reduced", "wide") for alpha in (0.0, 1.0)})


@pytest.mark.parametrize("name", sorted(_ROLL_CASES))
def test_steps_bit_identical_to_np_roll(name, monkeypatch):
    run = _ROLL_CASES[name]
    fast_state, fast_reports = run()
    patched = [mod for mod_name, mod in sys.modules.items()
               if mod_name.startswith("lowmach.") and vars(mod).get("_pair") is _pair]
    # The 2D kernels take every periodic neighbour through _pair; here it is
    # the np.roll formula.  The 1D LLF kernel, the Newton loop and the
    # tridiagonal residual work on periodic extensions instead;
    # test_1d_kernel_equals_roll_formulas and the np.roll Newton oracle
    # below pin them, and here the second run repeats the first (on the
    # thread's 2D scratch set as the first left it).
    assert {m.__name__ for m in patched} >= {"lowmach.elliptic", "lowmach.twodim"}
    for mod in patched:
        monkeypatch.setattr(mod, "_pair", _rolled_pair)
    roll_state, roll_reports = run()
    for field in fast_state.__match_args__:
        assert np.array_equal(getattr(fast_state, field), getattr(roll_state, field))
    assert fast_reports == roll_reports


_KERNEL_CASES = [(name, "example1", 100) for name in sorted(_STEPPERS)]
_KERNEL_CASES += [(name, "example1", 101) for name in ("explicit_llf", "ice", "ap_ld")]
_KERNEL_CASES += [(name, "example2", 100) for name in sorted(_STEPPERS)]


@pytest.mark.parametrize("name, example, m", _KERNEL_CASES)
def test_1d_kernel_equals_roll_formulas(name, example, m):
    # Twenty steps on the periodic extensions are the reference's twenty
    # np.roll steps, to the bit (gamma = 1.4 takes the non-integer power).
    fast_state, fast_reports = _twenty_steps(_STEPPERS[name], example, m)
    roll_state, roll_reports = _twenty_steps(_ROLL_STEPPERS[name], example, m)
    assert np.array_equal(fast_state.rho, roll_state.rho)
    assert np.array_equal(fast_state.q, roll_state.q)
    assert fast_reports == roll_reports


@pytest.mark.parametrize("example", sorted(_EXAMPLES_1D))
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_llf_flux_pair_equals_roll_formulas(example, alpha):
    # Index k of the step's fluxes holds interface k-1/2, so index 0 and
    # index m are both the wrap interface.
    make_eos, make_grid, make_state = _EXAMPLES_1D[example]
    eos, state = make_eos(), make_state(make_grid(100), 0.3)
    dp = eos.pressure_derivative(state.rho)
    f1, f2, _ = oracle.llf_fluxes(state.rho, state.q, np.sqrt(alpha * dp),
                                  alpha * eos.pressure(state.rho))
    fast_f1, fast_f2, _, _ = onedim._ap_fluxes(state, eos, alpha)
    assert np.array_equal(fast_f1[1:], f1) and np.array_equal(fast_f2[1:], f2)
    assert fast_f1[0] == f1[-1] and fast_f2[0] == f2[-1]


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


_STATE_1D = FluidState1D(rho=np.ones(8), q=np.zeros(8))
_STATE_2D = FluidState2D(rho=np.ones((8, 8)), q1=np.zeros((8, 8)), q2=np.zeros((8, 8)))
# Each stepper as (params, dt, variant or stencil) -> step; the explicit and
# ICE steps take neither.
_INPUT_STEPPERS = {
    "ap_1d": lambda p, dt, name="ld": step_ap_1d(_STATE_1D, EOS2, p, name, dt, 1 / 8),
    "explicit_llf_1d": lambda p, dt: step_explicit_llf_1d(_STATE_1D, EOS2, p, dt, 1 / 8),
    "ice_1d": lambda p, dt: step_ice_1d(_STATE_1D, EOS2, p, dt, 1 / 8),
    "ap_2d": lambda p, dt, name="reduced": step_ap_2d(_STATE_2D, EOS2, p, name, dt, 1 / 8, 1 / 8),
}
_VALID = SchemeParams(epsilon=0.5, alpha=1.0)
_INPUT_CASES = [(stepper, f"dt={dt}", (_VALID, dt), ValueError)
                for stepper in _INPUT_STEPPERS for dt in (0.0, -1.0, np.nan)]
_INPUT_CASES += [(stepper, code, (params, 0.01), ParamError)
                 for stepper in _INPUT_STEPPERS
                 for code, params in (("epsilon-not-positive", SchemeParams(epsilon=0.0)),
                                      ("alpha-exceeds-bound", SchemeParams(epsilon=0.1, alpha=200.0)),
                                      ("sigma-out-of-range", SchemeParams(epsilon=0.5, sigma=1.0)))]
_INPUT_CASES += [("ap_1d", "variant=LD", (_VALID, 0.01, "LD"), ValueError),
                 ("ap_2d", "stencil=5-point", (_VALID, 0.01, "5-point"), ValueError)]


@pytest.mark.parametrize("stepper, case, args, error", _INPUT_CASES,
                         ids=[f"{s}-{c}" for s, c, *_ in _INPUT_CASES])
def test_steppers_reject_bad_input_in_the_shared_check(stepper, case, args, error, monkeypatch):
    # Every stepper checks its inputs in the one shared check, before any
    # work: no pressure is evaluated.  A bad dt or an unknown variant or
    # stencil is a plain ValueError, a bad parameter a ParamError.
    raised = []
    check = onedim._check_step_inputs
    assert twodim._check_step_inputs is check

    def recording(*check_args):
        try:
            check(*check_args)
        except ValueError as exc:
            raised.append(exc)
            raise

    for module in (onedim, twodim):
        monkeypatch.setattr(module, "_check_step_inputs", recording)
    monkeypatch.setattr(EquationOfState, "_pressure", _raise)
    monkeypatch.setattr(EquationOfState, "_pressure_derivative", _raise)
    with pytest.raises(error) as err:
        _INPUT_STEPPERS[stepper](*args)
    assert type(err.value) is error and raised == [err.value]
    if error is ParamError:
        assert err.value.code == case


# ---------------------------------------------------------------------------
# Newton solve: p, p' and the residual once per iterate

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
    # The reference loop evaluates p and p' with the validating methods.
    eos, state, dphi, coeff, dx = _newton_case(gamma, seed)
    expected, expected_iters = oracle.newton_solve(state.rho, dphi, coeff.beta, eos, dx)[:2]
    assert expected_iters > 1
    monkeypatch.setattr(EquationOfState, "pressure", _raise)
    monkeypatch.setattr(EquationOfState, "pressure_derivative", _raise)
    rho, iters, *_ = solve_elliptic_nl_1d(state.rho, dphi, coeff, eos, dx)
    assert np.array_equal(rho, expected) and iters == expected_iters


@pytest.mark.parametrize("gamma", [1.4, 2.0])
@pytest.mark.parametrize("seed", range(4))
def test_nl_step_matches_validated_loop(gamma, seed, monkeypatch):
    eos, state, _, _, dx = _newton_case(gamma, seed)
    params = SchemeParams(epsilon=0.3, alpha=1.0)
    expected, expected_report = oracle.ap_step_1d(state, eos, params, "nl", 0.3 * dx, dx)
    monkeypatch.setattr(EquationOfState, "pressure", _raise)
    monkeypatch.setattr(EquationOfState, "pressure_derivative", _raise)
    out, report = step_ap_1d(state, eos, params, "nl", 0.3 * dx, dx)
    assert np.array_equal(out.rho, expected.rho) and np.array_equal(out.q, expected.q)
    assert report == expected_report


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


# ---------------------------------------------------------------------------
# Newton on a two-cell periodic extension: bit for bit the reference's
# np.roll loop

def _nl_case(gamma, seed, eps):
    """(eos, state, params, dt, dx, dphi, coeff) of an nl step on a random
    32-cell state; eps = 1e-3 makes G's round-off exceed the G test, so
    Newton stops on its increment instead."""
    rng = np.random.default_rng(seed)
    m = 32
    eos = EquationOfState(lambda_coeff=rng.uniform(0.5, 2.0), gamma=gamma)
    state = FluidState1D(rho=rng.uniform(0.5, 1.5, m), q=0.3 * rng.standard_normal(m))
    params = SchemeParams(epsilon=eps, alpha=1.0)
    dx = 1 / m
    dt = 0.3 * dx
    dphi = oracle.ap_rhs_1d(state, eos, params, dt, dx)[0]
    coeff = EllipticCoefficients(beta=beta_coefficient(eps, 1.0, dt),
                                 mobility=eos.pressure_derivative(state.rho))
    return eos, state, params, dt, dx, dphi, coeff


_NL_CASES = [(gamma, seed, eps) for gamma in (1.0, 1.4, 2.0, 3.0) for seed in range(3)
             for eps in (0.3, 0.05, 1e-3)]


def _wrapped_pressure(eos, rho):
    """p on the two-cell periodic extension of rho, from the validating method."""
    return np.pad(eos.pressure(rho), 2, mode="wrap")


def test_nl_cases_cover_both_newton_exits():
    # On either exit, the increment test or the G test, the solve returns
    # max|G| and p at its solution: the reference's floats.
    exits = set()
    for case in _NL_CASES:
        eos, state, _, _, dx, dphi, coeff = _nl_case(*case)
        expected_residual = oracle.newton_solve(state.rho, dphi, coeff.beta, eos, dx)[2]
        g_test = expected_residual <= oracle.NEWTON_TOL * max(1.0, np.abs(dphi).max())
        exits.add("G" if g_test else "delta")
        rho, _, residual, pressure = solve_elliptic_nl_1d(state.rho, dphi, coeff, eos, dx)
        assert residual == expected_residual and type(residual) is float
        assert np.array_equal(pressure, _wrapped_pressure(eos, rho))
    assert exits == {"delta", "G"}


@pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0])
def test_nl_beta_zero_returns_residual_and_pressure(gamma):
    eos = EquationOfState(1.3, gamma)
    dphi = np.random.default_rng(2).uniform(0.5, 1.5, 16)
    coeff = EllipticCoefficients(beta=0.0, mobility=np.ones(16))
    rho, iters, residual, pressure = solve_elliptic_nl_1d(np.ones(16), dphi, coeff, eos, 1 / 16)
    assert np.array_equal(rho, dphi) and rho is not dphi and iters == 1
    expected_residual = oracle.newton_solve(np.ones(16), dphi, 0.0, eos, 1 / 16)[2]
    assert residual == expected_residual == 0.0
    assert np.array_equal(pressure, _wrapped_pressure(eos, rho))


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
def test_nl_beta_zero_checks_the_density_before_the_pressure(value, monkeypatch):
    # rho = dphi at beta = 0: a bad cell is a PositivityError naming it, and
    # p is never evaluated on it (a negative density under gamma = 1.4
    # would be a float warning).
    def no_pressure(*args):
        raise AssertionError("p evaluated on an unchecked density")

    monkeypatch.setattr(EquationOfState, "_pressure", no_pressure)
    dphi = np.ones(8)
    dphi[3] = value
    coeff = EllipticCoefficients(beta=0.0, mobility=np.ones(8))
    with np.errstate(all="raise"), pytest.raises(PositivityError) as err:
        solve_elliptic_nl_1d(np.ones(8), dphi, coeff, EquationOfState(1.0, 1.4), 1 / 8)
    assert err.value.index == 3 and "cell 3" in str(err.value)


@pytest.mark.parametrize("gamma, seed, eps", _NL_CASES)
def test_newton_equals_roll_loop(gamma, seed, eps, monkeypatch):
    eos, state, _, _, dx, dphi, coeff = _nl_case(gamma, seed, eps)
    expected, expected_iters, _, expected_iterates = oracle.newton_solve(state.rho, dphi,
                                                                         coeff.beta, eos, dx)
    # Every iterate is checked once, the start iterate first.
    iterates = []
    check = elliptic._check_newton_iterate

    def recording(rho, what):
        iterates.append(rho.copy())
        check(rho, what)

    monkeypatch.setattr(elliptic, "_check_newton_iterate", recording)
    rho, iters, *_ = solve_elliptic_nl_1d(state.rho, dphi, coeff, eos, dx)
    assert iters == expected_iters and np.array_equal(rho, expected)
    assert len(iterates) == len(expected_iterates)
    for got, want in zip(iterates, expected_iterates):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("gamma, seed, eps", _NL_CASES)
def test_nl_step_equals_roll_step(gamma, seed, eps, monkeypatch):
    # The consistency residual is max|G(rho^{n+1})| that the solve returns:
    # its last G where it stopped on its G test, else evaluated once at the
    # solution.  Either way p is evaluated once for the fluxes, which the
    # Newton solve takes as its start iterate's, and once per later Newton
    # iterate, the accepted one included.
    eos, state, params, dt, dx, _, _ = _nl_case(gamma, seed, eps)
    expected_state, expected = oracle.ap_step_1d(state, eos, params, "nl", dt, dx)
    calls = []
    pressure = EquationOfState._pressure

    def counting(self, r):
        calls.append(1)
        return pressure(self, r)

    monkeypatch.setattr(EquationOfState, "_pressure", counting)
    out, report = step_ap_1d(state, eos, params, "nl", dt, dx)
    assert np.array_equal(out.rho, expected_state.rho) and np.array_equal(out.q, expected_state.q)
    assert report == expected
    assert len(calls) == report.newton_iters + 1


def test_singular_tridiagonal_core_raises():
    dgtsv = tridiag._load_dgtsv()
    # gamma = -diag[0] = -1 folds the core to diag(2, 0, 1): exactly
    # singular, so dgtsv meets a zero pivot and reports info > 0.
    *_, info = dgtsv(np.zeros(2), np.array([2.0, 0.0, 1.0]), np.zeros(2), np.ones((3, 2)))
    assert info > 0
    with pytest.raises(SingularSystemError, match="dgtsv info"):
        solve_periodic_tridiagonal(np.zeros(3), np.array([1.0, 0.0, 1.0]), np.zeros(3),
                                   np.ones(3))


def test_tridiagonal_solve_leaves_system_unchanged():
    rng = np.random.default_rng(3)
    n = 12
    sub, sup = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
    diag = 3.0 + rng.uniform(0, 1, n)
    rhs = rng.standard_normal(n)
    bands = (sub, diag, sup, rhs)
    copies = [a.copy() for a in bands]
    x, _ = solve_periodic_tridiagonal(*bands)
    for a, b in zip(bands, copies):
        assert np.array_equal(a, b)
    assert np.max(np.abs(oracle.tridiagonal_rows(sub, diag, sup, x) - rhs)) <= 1e-12


def test_trusted_tridiagonal_system_still_checks_size():
    # The internal strided solve the steps call still refuses a system of
    # fewer than three unknowns: two cells at stride 1, or four cells split
    # into two classes of two at stride 2.
    for n, stride in ((2, 1), (4, 2)):
        bands = (np.zeros(n), np.ones(n), np.zeros(n), np.ones(n))
        with pytest.raises(ValueError, match="N >= 3"):
            _solve_strided_tridiagonal(*bands, stride)


def test_tridiagonal_corner_fold_does_not_overflow():
    # Face coefficients ~1e156 (eps = 1e-80): sup[-1] * sub[0] overflows,
    # sup[-1] * (sub[0] / gamma) does not.  The solve must judge the folded
    # system (here: numerically singular) without a float warning.
    n = 10
    face = np.full(n, 4e156)
    with np.errstate(all="raise"), pytest.raises(SingularSystemError, match="singular"):
        solve_periodic_tridiagonal(-face, 1.0 + 2.0 * face, -face, np.linspace(0.0, 1e-3, n))


# ---------------------------------------------------------------------------
# face coefficients: none in a 1D step, built per use in 2D

def _one_step(kind):
    if kind in ("wide", "reduced"):
        grid = example3_grid(16, 16)
        state = example3_state(grid, 0.05)
        return step_ap_2d(state, example3_eos(), SchemeParams(epsilon=0.05, alpha=1.0), kind,
                          0.25 * grid.dx, grid.dx, grid.dy)
    grid = example1_grid(100)
    state = example1_state(grid, 0.3)
    params = SchemeParams(epsilon=0.3, alpha=1.0, sigma=0.9)
    if kind == "ice":
        return step_ice_1d(state, example1_eos(), params, 0.3 * grid.dx, grid.dx)
    return step_ap_1d(state, example1_eos(), params, kind, 0.3 * grid.dx, grid.dx)


@pytest.mark.parametrize("kind", ["ld", "l", "ice", "wide", "reduced"])
def test_step_builds_its_faces_once(kind, monkeypatch):
    # A 1D linear step builds no faces and extends its mobility once; a 2D
    # step builds them once, in its solve, whose residual check applies
    # them again.
    expected, expected_report = _one_step(kind)
    built, extended = [], []
    builder, periodic = elliptic._face_coefficients, elliptic._periodic

    def counting(*args):
        built.append(args[0])
        return builder(*args)

    def extending(x, *args):
        extended.append(x)
        return periodic(x, *args)

    monkeypatch.setattr(elliptic, "_face_coefficients", counting)
    monkeypatch.setattr(elliptic, "_periodic", extending)
    out, report = _one_step(kind)
    if kind in ("wide", "reduced"):
        assert built == [elliptic._STENCIL_STRIDE[kind]] and not extended
    else:
        assert not built and len(extended) == 1
        grid = example1_grid(100)
        mobility = example1_eos().pressure_derivative(example1_state(grid, 0.3).rho)
        assert np.array_equal(extended[0], mobility) and not extended[0].flags.writeable
    assert report == expected_report and report.consistency_residual > 0.0
    for name in out.__match_args__:
        assert np.array_equal(getattr(out, name), getattr(expected, name))


@pytest.mark.parametrize("stride", [1, 2])
def test_linear_bands_are_the_faces(stride):
    # The bands from one scaled extension of the mobility are the floats of
    # the faces' formulas, also where beta/(s dx)^2 p' overflows.
    rng = np.random.default_rng(stride)
    cases = [(float(10.0 ** rng.uniform(-6, 3)), float(rng.uniform(0.01, 1.0))) for _ in range(20)]
    cases += [(1.7e308, 1.0), (np.nextafter(np.finfo(float).max, 0.0), 1.0 / stride)]
    for beta, dx in cases:
        m = int(rng.choice([6, 8, 16, 100]))
        coeff = EllipticCoefficients(beta=beta, mobility=rng.uniform(0.1, 4.0, m))
        with np.errstate(over="ignore"):
            (face,) = elliptic._face_coefficients(stride, coeff, (dx,))
            face_w = np.roll(face, stride)
            sub, diag, sup = elliptic._linear_bands(coeff, dx, stride)
            expected = (-face_w, 1.0 + face + face_w, -face)
        for band, want in zip((sub, diag, sup), expected):
            assert band.shape == (m,) and np.array_equal(band, want)
    assert np.isinf(diag).any()


def test_nl_jacobian_bands_are_unchanged(monkeypatch):
    # The Newton step's stride-2 Jacobian is still -b4 p'_{i-2}, 1 + 2 b4 p'_i,
    # -b4 p'_{i+2} at the iterate; it does not go through the linear bands.
    rng = np.random.default_rng(5)
    m, dx = 16, 1 / 16
    rho_n = 0.8 + 0.4 * rng.random(m)
    dphi = rho_n + 0.01 * rng.standard_normal(m)
    coeff = EllipticCoefficients(beta=0.05, mobility=EOS2.pressure_derivative(rho_n))
    seen = []
    solve = elliptic._solve_strided_tridiagonal

    def recording(sub, diag, sup, rhs, stride):
        seen.append((sub, diag, sup, stride))
        return solve(sub, diag, sup, rhs, stride)

    monkeypatch.setattr(elliptic, "_solve_strided_tridiagonal", recording)
    solve_elliptic_nl_1d(rho_n, dphi, coeff, EOS2, dx)
    sub, diag, sup, stride = seen[0]
    dp = EOS2.pressure_derivative(rho_n)
    b4 = 0.05 / (4.0 * dx**2)
    assert stride == 2
    assert np.array_equal(sub, -b4 * np.roll(dp, 2))
    assert np.array_equal(diag, 1.0 + 2.0 * b4 * dp)
    assert np.array_equal(sup, -b4 * np.roll(dp, -2))


# ---------------------------------------------------------------------------
# one residual per 1D linear step: the solve's own


@pytest.mark.parametrize("variant, classes", [("ld", 1), ("l", 2)])
def test_linear_solve_returns_the_largest_class_residual(variant, classes, monkeypatch):
    rng = np.random.default_rng(9)
    m = 16
    coeff = EllipticCoefficients(beta=0.05, mobility=0.5 + rng.random(m))
    dphi = 1.0 + 0.1 * rng.standard_normal(m)
    residuals = []
    solve = elliptic.solve_periodic_tridiagonal

    def recording(sub, diag, sup, rhs):
        x, resid = solve(sub, diag, sup, rhs)
        assert resid == np.abs(oracle.tridiagonal_rows(sub, diag, sup, x) - rhs).max()
        residuals.append(resid)
        return x, resid

    monkeypatch.setattr(elliptic, "solve_periodic_tridiagonal", recording)
    solver = {"ld": elliptic.solve_elliptic_ld_1d, "l": elliptic.solve_elliptic_l_1d}[variant]
    _, resid = solver(dphi, coeff, 1 / m)
    assert len(residuals) == classes and len(set(residuals)) == classes
    assert resid == max(residuals) > 0.0


def _recording_solves(monkeypatch):
    """Wrap the 1D linear solves as the steps call them; returns the list of
    (dphi, coeff, dx, (rho, residual)) of each call."""
    calls = []
    for name in ("solve_elliptic_ld_1d", "solve_elliptic_l_1d"):
        solve = getattr(onedim, name)

        def recording(dphi, coeff, dx, solve=solve):
            result = solve(dphi, coeff, dx)
            calls.append((dphi, coeff, dx, result))
            return result

        monkeypatch.setattr(onedim, name, recording)
    return calls


@pytest.mark.parametrize("example", sorted(_EXAMPLES_1D))
@pytest.mark.parametrize("eps", [0.3, 0.05])
@pytest.mark.parametrize("kind", ["ld", "l", "ice"])
def test_linear_step_reports_its_solve_residual(kind, eps, example, monkeypatch):
    make_eos, make_grid, make_state = _EXAMPLES_1D[example]
    eos, grid = make_eos(), make_grid(100)
    state = make_state(grid, eps)
    params = SchemeParams(epsilon=eps, alpha=1.0, sigma=0.9)
    dt, dx = 0.3 * grid.dx, grid.dx
    calls = _recording_solves(monkeypatch)

    def no_operator(*args):
        raise AssertionError("the step applied the flux-form operator")

    monkeypatch.setattr(elliptic, "_flux_operator", no_operator)
    reports = []
    for step in range(5):
        if kind == "ice":
            state, report = step_ice_1d(state, eos, params, dt, dx)
        else:
            state, report = step_ap_1d(state, eos, params, kind, dt, dx)
        assert len(calls) == step + 1 and calls[-1][3][0] is state.rho
        reports.append(report)
    monkeypatch.undo()
    variant = "ld" if kind == "ice" else kind
    for report, (dphi, coeff, _, (rho_new, residual)) in zip(reports, calls):
        assert report.consistency_residual == residual and residual > 0.0
        # Within the contract's bound of the operator applied again.
        applied = apply_elliptic_operator_1d(variant, rho_new, coeff, eos, dx) - dphi
        bound = 10 * LINEAR_TOL * max(1.0, float(np.abs(rho_new).max()))
        assert abs(residual - float(np.abs(applied).max())) <= bound


@pytest.mark.parametrize("shape", [(8,), (8, 6)])
def test_coefficients_hold_the_mobility_read_only(shape):
    # Read-only in a step's coefficients, frozen without a copy, and as a
    # copy in the public constructor's.
    mobility = np.ones(shape)
    for held in (EllipticCoefficients(0.5, mobility).mobility,
                 EllipticCoefficients._of_step(0.5, mobility).mobility):
        with pytest.raises(ValueError):
            held[0] = 2.0
    assert EllipticCoefficients._of_step(0.5, mobility).mobility is mobility


# ---------------------------------------------------------------------------
# two-reduction checks keep their diagnoses

@pytest.mark.parametrize("shape", [(6,), (4, 5)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_new_density_non_finite_is_instability(shape, value):
    rho = np.ones(shape)
    rho.flat[3] = value
    with pytest.raises(InstabilityError, match="non-finite density"):
        _check_new_density(rho)


@pytest.mark.parametrize("shape", [(6,), (4, 5)])
@pytest.mark.parametrize("value", [0.0, -0.0, -1e-300, -1.0, -2.0])
def test_new_density_non_positive_names_the_cell(shape, value):
    rho = np.ones(shape)
    rho.flat[3] = value
    cell = 3 if len(shape) == 1 else (0, 3)
    with pytest.raises(PositivityError) as err:
        _check_new_density(rho)
    assert err.value.index == cell and f"density lost positivity at cell {cell}" in str(err.value)
    _check_new_density(np.full(shape, 5e-324))


@pytest.mark.parametrize("shape", [(6,), (4, 5)])
def test_new_density_check_returns_the_sum(shape):
    rho = np.random.default_rng(1).uniform(0.5, 2.0, shape)
    assert _check_new_density(rho) == rho.sum()
    # Finite and positive with an overflowing sum passes a library call's
    # check, which returns inf; a verb's float-error boundary fails the step
    # at that overflow, so no verb writes mass_total = inf.
    big = np.full(shape, 1e308)
    with np.errstate(over="ignore"):
        assert _check_new_density(big) == np.inf


def _hand_off(momenta):
    shape = momenta[0].shape
    state_cls = FluidState1D if len(shape) == 1 else FluidState2D
    rho = np.ones(shape)
    return _finish_step(state_cls, rho, _check_new_density(rho), momenta, 0.5, np.ones(shape),
                        0.0)


@pytest.mark.parametrize("shape", [(6,), (4, 5)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_momentum_is_instability(shape, value):
    for which in range(len(shape)):
        momenta = [np.zeros(shape) for _ in shape]
        momenta[which].flat[3] = value
        with pytest.raises(InstabilityError, match="non-finite momentum after step"):
            _hand_off(tuple(momenta))


@pytest.mark.parametrize("shape", [(6,), (4, 5)])
def test_finite_momentum_with_overflowing_sum_completes(shape):
    q = np.full(shape, 1e308)
    q.flat[::2] = -1e308
    q.flat[:3] = 1e308
    momenta = (q,) * len(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        state, report = _hand_off(momenta)
    assert not np.isfinite(report.momentum_total)
    for field, expected in zip(state.__match_args__[1:], momenta):
        assert np.array_equal(getattr(state, field), expected)
    assert report.mass_total == 0.5 * np.prod(shape)


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports lowmach from this tree."""
    src = str(Path(lowmach.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_1d_solves_load_lapack_without_scipy_linalg():
    # import lowmach loads no scipy module; each 1D scheme that solves a
    # cyclic system loads dgtsv on its first step, from LAPACK's extension
    # alone: scipy.linalg is never imported.
    _run_fresh("""
        import sys
        import lowmach
        from lowmach import tridiag
        from lowmach.presets import example1_eos, example1_grid, example1_state
        loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
        assert not loaded, f"import lowmach loaded {loaded}"
        grid = example1_grid(20)
        params = lowmach.SchemeParams(epsilon=0.3, alpha=1.0)
        steps = {variant: lambda s, v=variant: lowmach.step_ap_1d(s, example1_eos(), params, v,
                                                                  0.01, grid.dx)
                 for variant in ("ld", "l", "nl")}
        steps["ice"] = lambda s: lowmach.step_ice_1d(s, example1_eos(), params, 0.01, grid.dx)
        for name, step in steps.items():
            tridiag._dgtsv = None
            step(example1_state(grid, 0.3))
            assert tridiag._dgtsv is not None, f"a {name} step did not load dgtsv"
        assert "scipy.linalg" not in sys.modules, "a 1D solve loaded scipy.linalg"
    """)


def test_standalone_dgtsv_is_scipy_linalg_lapack_dgtsv():
    _run_fresh("""
        import numpy as np
        from lowmach import tridiag
        tridiag.solve_periodic_tridiagonal(np.ones(4), np.full(4, 4.0), np.ones(4), np.arange(4.0))
        import scipy.linalg.lapack
        assert tridiag._dgtsv is scipy.linalg.lapack.dgtsv
    """)


def test_dgtsv_fallback_gives_the_same_routine_and_solution(monkeypatch):
    from scipy.linalg.lapack import dgtsv

    rng = np.random.default_rng(5)
    n = 16
    bands = (rng.uniform(-1, 1, n), 3.0 + rng.uniform(0, 1, n), rng.uniform(-1, 1, n),
             rng.standard_normal(n))
    monkeypatch.setattr(tridiag, "_dgtsv", None)
    x, resid = solve_periodic_tridiagonal(*bands)
    monkeypatch.setattr(tridiag, "_flapack_spec", lambda: None)
    assert tridiag._load_dgtsv() is dgtsv
    x_fallback, resid_fallback = solve_periodic_tridiagonal(*bands)
    assert np.array_equal(x, x_fallback) and resid == resid_fallback
