"""Relations between two runs of the scheme's own code, checked bit for bit.

A relation needs no second implementation: where it holds exactly, any
failure is a defect, not noise.  Homogeneity: with gamma = 1 (p = lambda
rho) every step is homogeneous of degree one in the state, so stepping s U
gives s times the step of U.  For s a power of two every scaling is exact,
so the relation holds to the bit, with the same iteration counts, wherever
nothing under- or overflows; in particular at densities whose squared norms
leave the float range, which the 2D CG solves at unit scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from lowmach import (
    EquationOfState,
    FluidState2D,
    SchemeParams,
    step_ap_1d,
    step_ap_2d,
    step_explicit_llf_1d,
    step_ice_1d,
)
from lowmach.presets import (example1_grid, example1_state, example3_eos, example3_grid,
                             example3_state)

LINEAR = EquationOfState(1.0, 1.0)
EXPONENTS = [-1000, -600, -540, -300, 300, 540, 900]


def _scaled(state, exponent):
    """The state with every field scaled by 2^exponent."""
    return type(state)(*(np.ldexp(getattr(state, name), exponent)
                         for name in state.__match_args__))


def _assert_homogeneous(step, state, exponent):
    """step(2^k U) is 2^k step(U) to the bit, report included: its totals and
    residual scale, its wave speed and iteration counts do not."""
    new, report = step(state)
    scaled_new, scaled_report = step(_scaled(state, exponent))
    for name in state.__match_args__:
        assert np.array_equal(getattr(scaled_new, name), np.ldexp(getattr(new, name), exponent))
    for field in ("mass_total", "momentum_total", "momentum2_total", "consistency_residual"):
        assert getattr(scaled_report, field) == np.ldexp(getattr(report, field), exponent)
    for field in ("max_wave_speed", "newton_iters", "linear_iters"):
        assert getattr(scaled_report, field) == getattr(report, field)
    return report


def _step_1d(stepper, alpha):
    params = SchemeParams(epsilon=0.3, alpha=alpha)
    if stepper == "ice":
        return lambda s: step_ice_1d(s, LINEAR, params, 1e-3, 1 / 40)
    if stepper == "explicit_llf":
        return lambda s: step_explicit_llf_1d(s, LINEAR, params, 1e-4, 1 / 40)
    return lambda s: step_ap_1d(s, LINEAR, params, stepper, 1e-3, 1 / 40)


@pytest.mark.parametrize("exponent", EXPONENTS)
@pytest.mark.parametrize("stepper, alpha", [("ld", 0.0), ("ld", 1.0), ("l", 0.0), ("l", 1.0),
                                            ("nl", 0.0), ("nl", 1.0), ("ice", 1.0),
                                            ("explicit_llf", 1.0)])
def test_1d_steps_are_homogeneous_at_gamma_one(stepper, alpha, exponent):
    _assert_homogeneous(_step_1d(stepper, alpha), example1_state(example1_grid(40), 0.3),
                        exponent)


@pytest.mark.parametrize("exponent", EXPONENTS)
@pytest.mark.parametrize("stencil", ["reduced", "wide"])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_2d_step_is_homogeneous_at_gamma_one(alpha, stencil, exponent):
    # At k <= -540 the right-hand side's squared norm is below the float
    # range: CG iterates only because it solves at unit scale.
    grid = example3_grid(16, 16)
    params = SchemeParams(epsilon=0.5, alpha=alpha)
    report = _assert_homogeneous(
        lambda s: step_ap_2d(s, LINEAR, params, stencil, 0.01, grid.dx, grid.dy),
        example3_state(grid, 0.5), exponent)
    assert report.linear_iters >= 1


@pytest.mark.parametrize("exponent", [-162, -200, -305])
@pytest.mark.parametrize("stencil", ["reduced", "wide"])
def test_2d_step_of_a_small_state_solves_and_conserves_mass(stencil, exponent):
    # example3 (gamma = 2) scaled by 10^k, whose right-hand side's squared
    # norm underflows: the solve still iterates, and the new density holds
    # the old mass.
    grid = example3_grid(16, 16)
    base = example3_state(grid, 0.5)
    scale = 10.0 ** exponent
    state = FluidState2D(rho=base.rho * scale, q1=base.q1 * scale, q2=base.q2 * scale)
    _, report = step_ap_2d(state, example3_eos(), SchemeParams(epsilon=0.5, alpha=0.0),
                           stencil, 0.01, grid.dx, grid.dy)
    mass = float(np.sum(state.rho)) * grid.dx * grid.dy
    assert report.linear_iters >= 1
    assert abs(report.mass_total - mass) <= 1e-12 * mass

