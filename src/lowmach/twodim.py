"""2D operators and the semi-implicit stepper on the periodic unit square.

Arrays are indexed [i, j] with i along x (axis 0) and j along y (axis 1).
The scheme is the dimension-by-dimension analogue of the 1D one: centered
flux derivatives plus per-direction LLF dissipation, an implicit new-time
momentum average in the density flux, and the stiff pressure gradient
implicit.  Eliminating the momentum updates from the density equation
leaves one elliptic solve for the new density (wide stride-2 stencil or
reduced 5-point stencil), then explicit momentum updates.

As in :func:`lowmach.onedim.step_ap_1d`, :func:`_explicit_terms` evaluates
the explicit terms of rho^n once per step: p and p' (unchecked: the state's
density is valid), the cell and interface speeds, and the eight flux and
dissipation differences that the elliptic right-hand side differentiates
once more and the momentum update sums.  :func:`step_ap_2d` sums each
momentum's explicit part before the solve and lets the eight terms and the
interface speeds go, so the solve runs on a smaller working set.  Shifts
are the two-slice :func:`lowmach.core._shift`, and each dissipation term
takes one difference, its backward difference being the shift of the
forward one.  The step ends through the 1D module's checked hand-off
(:func:`lowmach.onedim._check_new_density`, then
:func:`lowmach.onedim._finish_step`), as the three 1D steppers do.

Expression groupings below deliberately pair x/y swap partners so that the
assembled right-hand side is bitwise equivariant under transposition
(swap of axes, momentum components and cell counts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EquationOfState, FluidState2D, SchemeParams, _shift, _square, validate_params
from .elliptic import (
    _STENCIL_STRIDE,
    EllipticCoefficients,
    apply_elliptic_operator_2d,
    beta_coefficient,
    solve_elliptic_2d,
)
from .onedim import _check_new_density, _finish_step


@dataclass(frozen=True)
class DirectionalSpeeds:
    """Interface speeds: a_x[i, j] is A at interface (i+1/2, j), a_y[i, j]
    is A at (i, j+1/2); each is the max of the four candidate eigenvalue
    magnitudes of the two adjacent cells."""

    a_x: np.ndarray
    a_y: np.ndarray


def _cell_speeds(u1, u2, dp, alpha):
    """Largest eigenvalue magnitude per cell: max(|u1|, |u2|) + sqrt(alpha p')."""
    return np.maximum(np.abs(u1), np.abs(u2)) + np.sqrt(alpha * dp)


def _interface_speeds(cell_max) -> DirectionalSpeeds:
    return DirectionalSpeeds(a_x=np.maximum(cell_max, _shift(cell_max, -1, 0)),
                             a_y=np.maximum(cell_max, _shift(cell_max, -1, 1)))


def directional_speeds_2d(state: FluidState2D, eos: EquationOfState, alpha: float) -> DirectionalSpeeds:
    return _interface_speeds(_cell_speeds(*state.velocity(), eos._pressure_derivative(state.rho),
                                          alpha))


def _dc(u, h, axis):
    """Centered difference (u_{+1} - u_{-1}) / 2h along ``axis``."""
    return (_shift(u, -1, axis) - _shift(u, 1, axis)) / (2.0 * h)


def _diss(u, a, h, axis):
    """(1/2)(A_{-1/2} D- - A_{+1/2} D+) u along ``axis``, with a[i] the speed
    at interface i+1/2: minus the LLF diffusion; it enters the updates with
    the flux-divergence sign."""
    dp = (_shift(u, -1, axis) - u) / h
    dm = _shift(dp, 1, axis)
    return 0.5 * (_shift(a, 1, axis) * dm - a * dp)


def _explicit_terms(state: FluidState2D, eos: EquationOfState, alpha: float, dx: float, dy: float):
    """(p', cell speeds, interface speeds, dflux, diss) of rho^n, with
    dflux[k][d] the derivative along axis d of the flux (g1, w; w, g2) of
    momentum k and diss[k][d] the dissipation of q_k along axis d."""
    rho, q1, q2 = state.rho, state.q1, state.q2
    u1, u2 = state.velocity()
    dp = eos._pressure_derivative(rho)
    cell_max = _cell_speeds(u1, u2, dp, alpha)
    speeds = _interface_speeds(cell_max)
    p = eos._pressure(rho)
    w = rho * (u1 * u2)
    dflux = ((_dc(q1 * u1 + alpha * p, dx, 0), _dc(w, dy, 1)),
             (_dc(w, dx, 0), _dc(q2 * u2 + alpha * p, dy, 1)))
    diss = tuple((_diss(q, speeds.a_x, dx, 0), _diss(q, speeds.a_y, dy, 1)) for q in (q1, q2))
    return dp, cell_max, speeds, dflux, diss


def _dphi_from_terms(state: FluidState2D, speeds: DirectionalSpeeds, dflux, diss,
                     dt: float, dx: float, dy: float, literal: bool) -> np.ndarray:
    rho = state.rho
    first_order = (_dc(state.q1, dx, 0) + _dc(state.q2, dy, 1)) + (
        _diss(rho, speeds.a_x, dx, 0) + _diss(rho, speeds.a_y, dy, 1))
    t_axis = _dc(dflux[0][0], dx, 0) + _dc(dflux[1][1], dy, 1)
    t_mixed = _dc(dflux[0][1], dx, 0) + _dc(dflux[1][0], dy, 1)
    t_diss = _dc(diss[0][0], dx, 0) + _dc(diss[1][1], dy, 1)
    if literal:
        t_diss = t_diss + (_dc(diss[0][1], dx, 0) + _dc(diss[1][0], dy, 1))
    return rho - dt * first_order + _square(dt) * (t_axis + t_mixed + t_diss)


def assemble_dphi_2d(state: FluidState2D, eos: EquationOfState, params: SchemeParams,
                     dt: float, dx: float, dy: float, literal: bool = True) -> np.ndarray:
    """Right-hand side of the 2D elliptic equation from old-time data.

    ``literal`` keeps the mixed dissipation-correction pairings of the
    exact elimination (an outer y-derivative on the x-direction dissipation
    of q2 and vice versa); ``literal=False`` selects the symmetric variant
    where each momentum's dissipation is differentiated only along its own
    flux direction.  The two differ at O(dt^2 dx).
    """
    _, _, speeds, dflux, diss = _explicit_terms(state, eos, params.alpha, dx, dy)
    return _dphi_from_terms(state, speeds, dflux, diss, dt, dx, dy, literal)


def step_ap_2d(state: FluidState2D, eos: EquationOfState, params: SchemeParams,
               stencil: str, dt: float, dx: float, dy: float,
               dphi2_literal: bool = True):
    """One semi-implicit 2D step; returns (new_state, StepReport).

    The report's consistency_residual is the max-norm residual of the
    density row: the new density put through the stencil's elliptic
    operator, minus the right-hand side (in density units).  Unlike the 1D
    linear steps, which report their tridiagonal solve's tested residual,
    this re-applies the operator: CG's recursive residual can drift from
    the true one.
    """
    validate_params(params)
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if stencil not in _STENCIL_STRIDE:
        raise ValueError(f"unknown 2D stencil {stencil!r}")

    rho = state.rho
    # p'(rho^n) is both the sound speed and the mobility.
    dp, cell_max, speeds, dflux, diss = _explicit_terms(state, eos, params.alpha, dx, dy)
    # beta first: an overflowing dt^2 fails here, not in the right-hand side.
    coeff = EllipticCoefficients._of_step(beta_coefficient(params.epsilon, params.alpha, dt), dp)
    dphi = _dphi_from_terms(state, speeds, dflux, diss, dt, dx, dy, dphi2_literal)
    # Each momentum's explicit part, summed now so that the solve runs
    # without the interface speeds and the eight terms.
    explicit1 = (dflux[0][0] + dflux[0][1]) + (diss[0][0] + diss[0][1])
    explicit2 = (dflux[1][0] + dflux[1][1]) + (diss[1][0] + diss[1][1])
    del speeds, dflux, diss
    rho_new, cg_iters = solve_elliptic_2d(rho, dphi, coeff, dx, dy, stencil=stencil)

    mass = _check_new_density(rho_new)
    p_new = eos._pressure(rho_new)
    c = (1.0 - params.alpha * params.epsilon**2) / params.epsilon**2
    momenta = (state.q1 - dt * (explicit1 + c * _dc(p_new, dx, 0)),
               state.q2 - dt * (explicit2 + c * _dc(p_new, dy, 1)))
    r_density = apply_elliptic_operator_2d(stencil, rho_new, coeff, dx, dy) - dphi
    return _finish_step(FluidState2D, rho_new, mass, momenta, dx * dy, cell_max,
                        float(np.abs(r_density).max()), dt,
                        linear_iters=cg_iters)
