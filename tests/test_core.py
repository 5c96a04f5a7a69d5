"""Core types: equation of state, grids, states, parameter validation,
and the package's exception types."""

import inspect
import pickle

import numpy as np
import pytest

from lowmach import errors
from lowmach import (
    DtPolicy,
    EquationOfState,
    FluidState1D,
    FluidState2D,
    Grid1D,
    Grid2D,
    InvalidStateError,
    ParamError,
    SchemeParams,
    validate_params,
)


def test_pressure_values():
    assert EquationOfState(1.0, 2.0).pressure(2.0) == 4.0
    assert EquationOfState(1.0, 2.0).pressure(1.0) == 1.0
    assert EquationOfState(1.0, 1.4).pressure(1.0) == 1.0


def test_pressure_derivative_values():
    assert EquationOfState(1.0, 2.0).pressure_derivative(1.0) == 2.0
    assert EquationOfState(1.0, 2.0).pressure_derivative(3.0) == 6.0
    assert EquationOfState(1.0, 1.4).pressure_derivative(1.0) == pytest.approx(1.4)


def test_pressure_rejects_nonpositive_density():
    eos = EquationOfState(1.0, 2.0)
    with pytest.raises(InvalidStateError):
        eos.pressure(0.0)
    with pytest.raises(InvalidStateError):
        eos.pressure_derivative(-1.0)


@pytest.mark.parametrize("lam", [1.0, 0.7])
@pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0, 3.0])
def test_pressure_forms_equal_the_power_law_bit_for_bit(gamma, lam):
    # The evaluators pick a square, a multiply or no multiply where the
    # exponent or the coefficient allows; the floats must be the power's.
    eos = EquationOfState(lam, gamma)
    rng = np.random.default_rng(7)
    arrays = [np.exp(rng.uniform(-200.0, 200.0, 257)), np.linspace(0.5, 2.0, 102),
              np.array(1.7), np.array(3.0e-50)]
    for rho in arrays:
        rho.flags.writeable = False
        for got, want in ((eos._pressure(rho), lam * rho**gamma),
                          (eos._pressure_derivative(rho), lam * gamma * rho ** (gamma - 1.0)),
                          (eos.pressure(rho), lam * rho**gamma),
                          (eos.pressure_derivative(rho), lam * gamma * rho ** (gamma - 1.0))):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            # The steppers write into the result.
            assert not np.shares_memory(got, rho)


@pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0])
@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0, 5.0])
def test_pressure_derivative_matches_finite_differences(gamma, rho):
    eos = EquationOfState(1.0, gamma)
    h = 1e-6 * rho
    fd = (eos.pressure(rho + h) - eos.pressure(rho - h)) / (2 * h)
    assert fd == pytest.approx(eos.pressure_derivative(rho), rel=1e-6)


def test_eos_invariants():
    with pytest.raises(InvalidStateError):
        EquationOfState(lambda_coeff=0.0)
    with pytest.raises(InvalidStateError):
        EquationOfState(gamma=0.9)
    EquationOfState(gamma=1.0)  # linear pressure is allowed


def test_grid1d_centers():
    g = Grid1D(a=0.0, b=1.0, m=10)
    assert g.dx == pytest.approx(0.1)
    x = g.cell_centers()
    assert x[0] == pytest.approx(0.05)
    assert x[-1] == pytest.approx(0.95)


def test_grid2d_invariants():
    g = Grid2D(m1=8, m2=4)
    assert g.dx == pytest.approx(1 / 8)
    assert g.dy == pytest.approx(1 / 4)
    with pytest.raises(InvalidStateError):
        Grid2D(m1=3, m2=8)


def test_state_positivity_enforced():
    with pytest.raises(InvalidStateError):
        FluidState1D(rho=np.array([1.0, 0.0, 1.0]), q=np.zeros(3))
    with pytest.raises(InvalidStateError):
        FluidState1D(rho=np.array([1.0, np.nan]), q=np.zeros(2))
    with pytest.raises(InvalidStateError):
        FluidState2D(rho=np.array([[1.0, -1.0]] * 4), q1=np.zeros((4, 2)), q2=np.zeros((4, 2)))


def test_state_arrays_frozen():
    st = FluidState1D(rho=np.ones(4), q=np.zeros(4))
    with pytest.raises(ValueError):
        st.rho[0] = 2.0


def test_validate_params_examples():
    validate_params(SchemeParams(epsilon=0.1, alpha=1.0))
    with pytest.raises(ParamError) as err:
        validate_params(SchemeParams(epsilon=0.1, alpha=101.0))
    assert err.value.code == "alpha-exceeds-bound"
    validate_params(SchemeParams(epsilon=0.05, alpha=0.0, sigma=0.5))
    # the boundary alpha = 1/eps^2 is allowed
    validate_params(SchemeParams(epsilon=0.5, alpha=4.0))


def test_validate_params_named_errors():
    cases = [
        (SchemeParams(epsilon=-1.0), "epsilon-not-positive"),
        (SchemeParams(epsilon=1e-170), "epsilon-scale-not-finite"),  # eps^2 underflows to 0
        (SchemeParams(epsilon=1e-160), "epsilon-scale-not-finite"),  # 1/eps^2 overflows
        (SchemeParams(epsilon=1e155, alpha=0.0), "epsilon-scale-not-finite"),  # eps^2 overflows
        (SchemeParams(epsilon=0.1, alpha=-0.5), "alpha-negative"),
        (SchemeParams(epsilon=0.1, sigma=1.5), "sigma-out-of-range"),
        (SchemeParams(epsilon=0.1, dt_policy=DtPolicy(kind="fixed", dt=-1.0)), "dt-not-positive"),
    ]
    for params, code in cases:
        with pytest.raises(ParamError) as err:
            validate_params(params)
        assert err.value.code == code


def test_dt_policy_constructors():
    fixed = DtPolicy.fixed(0.01)
    assert fixed.kind == "fixed" and fixed.dt == 0.01
    assert DtPolicy.adaptive().dt is None


ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(cls, errors.LowMachError)]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_errors_survive_pickle_roundtrip(cls):
    # Sweep workers send their exceptions back to the parent process.
    if cls is errors.ParamError:
        err = cls("alpha-exceeds-bound", "alpha too large")
    elif cls is errors.PositivityError:
        err = cls((3, 5), "density lost positivity at cell (3, 5)")
    else:
        err = cls("something went wrong")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert getattr(back, "code", None) == getattr(err, "code", None)
    assert getattr(back, "index", None) == getattr(err, "index", None)
