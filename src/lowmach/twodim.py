"""2D operators and the semi-implicit stepper on the periodic unit square.

Arrays are indexed [i, j] with i along x and j along y.  The scheme is the
dimension-by-dimension analogue of the 1D one: centered flux derivatives
plus per-direction LLF dissipation, an implicit new-time momentum average
in the density flux, and the stiff pressure gradient implicit.  Eliminating
the momentum updates from the density equation leaves one elliptic solve
for the new density (wide stride-2 stencil or reduced 5-point stencil),
then explicit momentum updates.

Expression groupings below deliberately pair x/y swap partners so that the
assembled right-hand side is bitwise equivariant under transposition
(swap of axes, momentum components and cell counts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EquationOfState, FluidState2D, SchemeParams, validate_params
from .elliptic import (
    EllipticCoefficients,
    apply_elliptic_operator_2d,
    beta_coefficient,
    solve_elliptic_2d,
)
from .errors import InstabilityError, PositivityError
from .onedim import StepReport


@dataclass(frozen=True)
class DirectionalSpeeds:
    """Interface speeds: a_x[i, j] is A at interface (i+1/2, j), a_y[i, j]
    is A at (i, j+1/2); each is the max of the four candidate eigenvalue
    magnitudes of the two adjacent cells."""

    a_x: np.ndarray
    a_y: np.ndarray


def _cell_speeds_2d(state: FluidState2D, eos: EquationOfState, alpha: float) -> np.ndarray:
    u1, u2 = state.velocity()
    s = np.sqrt(alpha * eos.pressure_derivative(state.rho))
    return np.maximum(np.abs(u1), np.abs(u2)) + s


def directional_speeds_2d(state: FluidState2D, eos: EquationOfState, alpha: float) -> DirectionalSpeeds:
    m = _cell_speeds_2d(state, eos, alpha)
    a_x = np.maximum(m, np.roll(m, -1, axis=0))
    a_y = np.maximum(m, np.roll(m, -1, axis=1))
    return DirectionalSpeeds(a_x=a_x, a_y=a_y)


def _dxc(u, dx):
    return (np.roll(u, -1, axis=0) - np.roll(u, 1, axis=0)) / (2.0 * dx)


def _dyc(u, dy):
    return (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)) / (2.0 * dy)


def _diss_x(u, a_x, dx):
    """(1/2)(A_{i-1/2,j} Dx- - A_{i+1/2,j} Dx+) u: minus the x-direction
    LLF diffusion; it enters the updates with the flux-divergence sign."""
    dm = (u - np.roll(u, 1, axis=0)) / dx
    dp = (np.roll(u, -1, axis=0) - u) / dx
    return 0.5 * (np.roll(a_x, 1, axis=0) * dm - a_x * dp)


def _diss_y(u, a_y, dy):
    dm = (u - np.roll(u, 1, axis=1)) / dy
    dp = (np.roll(u, -1, axis=1) - u) / dy
    return 0.5 * (np.roll(a_y, 1, axis=1) * dm - a_y * dp)


def assemble_dphi_2d(state: FluidState2D, eos: EquationOfState, params: SchemeParams,
                     dt: float, dx: float, dy: float, literal: bool = True) -> np.ndarray:
    """Right-hand side of the 2D elliptic equation from old-time data.

    ``literal`` keeps the mixed dissipation-correction pairings of the
    exact elimination (an outer y-derivative on the x-direction dissipation
    of q2 and vice versa); ``literal=False`` selects the symmetric variant
    where each momentum's dissipation is differentiated only along its own
    flux direction.  The two differ at O(dt^2 dx).
    """
    rho, q1, q2 = state.rho, state.q1, state.q2
    u1, u2 = state.velocity()
    alpha = params.alpha
    speeds = directional_speeds_2d(state, eos, alpha)
    a_x, a_y = speeds.a_x, speeds.a_y

    p = eos.pressure(rho)
    g1 = q1 * u1 + alpha * p
    g2 = q2 * u2 + alpha * p
    w = rho * (u1 * u2)

    first_order = (_dxc(q1, dx) + _dyc(q2, dy)) + (_diss_x(rho, a_x, dx) + _diss_y(rho, a_y, dy))

    t_axis = _dxc(_dxc(g1, dx), dx) + _dyc(_dyc(g2, dy), dy)
    t_mixed = _dxc(_dyc(w, dy), dx) + _dyc(_dxc(w, dx), dy)
    if literal:
        t_diss = (_dxc(_diss_x(q1, a_x, dx), dx) + _dyc(_diss_y(q2, a_y, dy), dy)) + (
            _dxc(_diss_y(q1, a_y, dy), dx) + _dyc(_diss_x(q2, a_x, dx), dy)
        )
    else:
        t_diss = _dxc(_diss_x(q1, a_x, dx), dx) + _dyc(_diss_y(q2, a_y, dy), dy)

    return rho - dt * first_order + dt**2 * (t_axis + t_mixed + t_diss)


def step_ap_2d(state: FluidState2D, eos: EquationOfState, params: SchemeParams,
               stencil: str, dt: float, dx: float, dy: float,
               dphi2_literal: bool = True):
    """One semi-implicit 2D step; returns (new_state, StepReport).

    The report's consistency_residual is the max-norm residual of the
    density row: the new density put through the stencil's elliptic
    operator, minus the right-hand side (in density units).
    """
    validate_params(params)
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if stencil not in ("wide", "reduced"):
        raise ValueError(f"unknown 2D stencil {stencil!r}")

    rho, q1, q2 = state.rho, state.q1, state.q2
    u1, u2 = state.velocity()
    alpha = params.alpha
    speeds = directional_speeds_2d(state, eos, alpha)
    a_x, a_y = speeds.a_x, speeds.a_y

    dphi = assemble_dphi_2d(state, eos, params, dt, dx, dy, literal=dphi2_literal)
    beta = beta_coefficient(params.epsilon, params.alpha, dt)
    coeff = EllipticCoefficients._of_step(beta, eos.pressure_derivative(rho))
    rho_new, cg_iters = solve_elliptic_2d(rho, dphi, coeff, dx, dy, stencil=stencil,
                                          linear_tol=params.linear_tol)

    if not np.all(np.isfinite(rho_new)):
        raise InstabilityError("non-finite density after step")
    if np.any(rho_new <= 0.0):
        bad = np.unravel_index(int(np.argmin(rho_new)), rho_new.shape)
        raise PositivityError(bad, f"density lost positivity at cell {bad}")

    p = eos.pressure(rho)
    p_new = eos.pressure(rho_new)
    c = (1.0 - alpha * params.epsilon**2) / params.epsilon**2
    g1 = q1 * u1 + alpha * p
    g2 = q2 * u2 + alpha * p
    w = rho * (u1 * u2)

    rhs1 = (_dxc(g1, dx) + _dyc(w, dy)) + (_diss_x(q1, a_x, dx) + _diss_y(q1, a_y, dy)) \
        + c * _dxc(p_new, dx)
    rhs2 = (_dxc(w, dx) + _dyc(g2, dy)) + (_diss_x(q2, a_x, dx) + _diss_y(q2, a_y, dy)) \
        + c * _dyc(p_new, dy)
    q1_new = q1 - dt * rhs1
    q2_new = q2 - dt * rhs2
    if not (np.all(np.isfinite(q1_new)) and np.all(np.isfinite(q2_new))):
        raise InstabilityError("non-finite momentum after step")

    r_density = apply_elliptic_operator_2d(stencil, rho_new, coeff, dx, dy) - dphi
    residual = float(np.max(np.abs(r_density)))

    cell_max = _cell_speeds_2d(state, eos, alpha)
    area = dx * dy
    new_state = FluidState2D(rho=rho_new, q1=q1_new, q2=q2_new)
    report = StepReport(
        max_wave_speed=float(np.max(cell_max)),
        mass_total=float(np.sum(rho_new) * area),
        momentum_total=float(np.sum(q1_new) * area),
        consistency_residual=residual,
        newton_iters=0,
        linear_iters=cg_iters,
        dt_used=dt,
        momentum2_total=float(np.sum(q2_new) * area),
    )
    return new_state, report
