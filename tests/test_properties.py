"""The stepper contract as a property: on every valid input, each stepper
returns a finite state with positive density, or raises a NumericsError.

Valid means what the public constructors and ``validate_params`` accept:
any positive density, any equation of state, any epsilon down to 1e-154
with alpha in [0, 1/eps^2], any dt > 0.  The examples are generated
deterministically (``derandomize``) and no example database is written.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lowmach import (
    EquationOfState,
    FluidState1D,
    FluidState2D,
    NumericsError,
    SchemeParams,
    step_ap_1d,
    step_ap_2d,
    step_explicit_llf_1d,
    step_ice_1d,
)

STEPPERS_1D = ("nl", "l", "ld", "explicit_llf", "ice")
STENCILS_2D = ("wide", "reduced")


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def _params(draw):
    eps = draw(_log_uniform(-154.0, 0.0))
    bound = 1.0 / eps**2
    alpha = draw(st.one_of(st.sampled_from([0.0, 1.0, bound]),
                           st.floats(0.0, 1.0).map(lambda f: f * bound)))
    return SchemeParams(epsilon=eps, alpha=alpha)


def _step(stepper, m, seed, eos, params, dt):
    """One step from a random state on m cells (m x m in 2D) of the unit
    interval or square: rho = 10^U(-1, 1), each momentum U(-3, 3)."""
    rng = np.random.default_rng(seed)
    h = 1.0 / m
    if stepper in STENCILS_2D:
        shape = (m, m)
        rho = 10 ** rng.uniform(-1, 1, shape)
        state = FluidState2D(rho=rho, q1=rng.uniform(-3, 3, shape), q2=rng.uniform(-3, 3, shape))
        new, _ = step_ap_2d(state, eos, params, stepper, dt, h, h)
        return new.rho, (new.q1, new.q2)
    state = FluidState1D(rho=10 ** rng.uniform(-1, 1, m), q=rng.uniform(-3, 3, m))
    if stepper == "explicit_llf":
        new, _ = step_explicit_llf_1d(state, eos, params, dt, h)
    elif stepper == "ice":
        new, _ = step_ice_1d(state, eos, params, dt, h)
    else:
        new, _ = step_ap_1d(state, eos, params, stepper, dt, h)
    return new.rho, (new.q,)


# dt^2/eps^2 overflows: beta = inf.
@example(stepper="nl", m=6, seed=0, eos=EquationOfState(), dt=10.0,
         params=SchemeParams(epsilon=1e-154, alpha=1.0))
@example(stepper="ice", m=6, seed=0, eos=EquationOfState(), dt=10.0,
         params=SchemeParams(epsilon=1e-154, alpha=1.0))
# beta ~ 7e59: the preconditioned CG residual r.M^-1 r underflows to 0.
@example(stepper="reduced", m=4, seed=1, eos=EquationOfState(1.0, 1.125), dt=1.0,
         params=SchemeParams(epsilon=1.248098483599828e-38,
                             alpha=1.0 / 1.248098483599828e-38**2))
@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(stepper=st.sampled_from(STEPPERS_1D + STENCILS_2D),
       m=st.integers(3, 6).map(lambda k: 2 * k),
       seed=st.integers(0, 2**32 - 1),
       eos=st.builds(EquationOfState, lambda_coeff=_log_uniform(-1.0, 1.0),
                     gamma=st.floats(1.0, 3.0)),
       params=_params(),
       dt=_log_uniform(-6.0, 2.0))
def test_step_returns_valid_state_or_numerics_error(stepper, m, seed, eos, params, dt):
    # Extreme inputs overflow on the way to a NumericsError; the contract is
    # about what the step returns or raises, not its float warnings.
    with np.errstate(all="ignore"):
        try:
            rho, momenta = _step(stepper, m, seed, eos, params, dt)
        except NumericsError:
            return
    assert np.isfinite(rho).all() and (rho > 0.0).all()
    for q in momenta:
        assert np.isfinite(q).all()
