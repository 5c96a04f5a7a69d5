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
density is valid), the cell and interface speeds, each momentum's flux
divergence and the four dissipation terms.  :func:`_explicit_parts` sums
each momentum's explicit part, its flux divergence plus both dissipations,
which the momentum update and the elliptic right-hand side both take:
eliminating the new-time momenta from the density flux leaves dt^2 times
the centered divergence of those parts, so the right-hand side
differentiates each momentum once.  :func:`step_ap_2d` lets the terms and
the interface speeds go before the solve, so the solve runs on a smaller
working set.  The centered difference and the dissipation write each result
into one new array from slice views of their input, the wrap row or column
apart, with the floats of the shifted-copy formulas.  The residual check
applies the face coefficients the solve built.  The step checks its inputs
and ends through the checked hand-off of :mod:`lowmach.handoff`
(:func:`~lowmach.handoff._check_new_density`, then
:func:`~lowmach.handoff._finish_step`), as the three 1D steppers do.

Expression groupings below deliberately pair x/y swap partners so that the
assembled right-hand side is bitwise equivariant under transposition
(swap of axes, momentum components and cell counts).
"""

from __future__ import annotations

import numpy as np

from .core import EquationOfState, FluidState2D, SchemeParams, _shift, _square
from .elliptic import (
    _STENCIL_STRIDE,
    EllipticCoefficients,
    _flux_operator,
    beta_coefficient,
    solve_elliptic_2d,
)
from .handoff import _check_new_density, _check_step_inputs, _finish_step


def _cell_speeds(u1, u2, dp, alpha):
    """Largest eigenvalue magnitude per cell: max(|u1|, |u2|) + sqrt(alpha p')."""
    return np.maximum(np.abs(u1), np.abs(u2)) + np.sqrt(alpha * dp)


def _interface_speeds(cell_max):
    """Interface speeds (a_x, a_y): a_x[i, j] is A at interface (i+1/2, j),
    a_y[i, j] is A at (i, j+1/2); each is the larger cell speed of the two
    adjacent cells."""
    return (np.maximum(cell_max, _shift(cell_max, -1, 0)),
            np.maximum(cell_max, _shift(cell_max, -1, 1)))


def _dc(u, h, axis):
    """Centered difference (u_{+1} - u_{-1}) / 2h along ``axis``, written
    into one new array from slice views, the two wrap rows (or columns)
    apart; their neighbours are indexed modulo the length n, so that n = 1
    reads 0."""
    out = np.empty_like(u)
    v, o = (u, out) if axis == 0 else (u.T, out.T)
    n = len(v)
    np.subtract(v[2:], v[:-2], out=o[1:-1])
    np.subtract(v[1 % n], v[-1], out=o[0])
    np.subtract(v[0], v[-2 % n], out=o[-1])
    out /= 2.0 * h
    return out


def _diss(u, a, h, axis):
    """(1/2)(A_{-1/2} D- - A_{+1/2} D+) u along ``axis``, with a[i] the speed
    at interface i+1/2: minus the LLF diffusion; it enters the updates with
    the flux-divergence sign.  With the interface flux f = a (u_{+1} - u) / h
    it is (f_{-1} - f) / 2, each of f and the result one new array written
    from slice views."""
    f = np.empty_like(u)
    v, g = (u, f) if axis == 0 else (u.T, f.T)
    np.subtract(v[1:], v[:-1], out=g[:-1])
    np.subtract(v[0], v[-1], out=g[-1])
    f /= h
    f *= a
    out = np.empty_like(f)
    o = out if axis == 0 else out.T
    np.subtract(g[:-1], g[1:], out=o[1:])
    np.subtract(g[-1], g[0], out=o[0])
    out *= 0.5
    return out


def _explicit_terms(state: FluidState2D, eos: EquationOfState, alpha: float, dx: float, dy: float):
    """(p', cell speeds, interface speeds, flux, diss) of rho^n, with
    flux[k] the divergence of row k of the momentum flux (g1, w; w, g2) and
    diss[k][d] the dissipation of q_k along axis d."""
    rho, q1, q2 = state.rho, state.q1, state.q2
    u1, u2 = state.velocity()
    dp = eos._pressure_derivative(rho)
    cell_max = _cell_speeds(u1, u2, dp, alpha)
    speeds = _interface_speeds(cell_max)
    p = eos._pressure(rho)
    w = rho * (u1 * u2)
    flux = (_dc(q1 * u1 + alpha * p, dx, 0) + _dc(w, dy, 1),
            _dc(w, dx, 0) + _dc(q2 * u2 + alpha * p, dy, 1))
    a_x, a_y = speeds
    diss = tuple((_diss(q, a_x, dx, 0), _diss(q, a_y, dy, 1)) for q in (q1, q2))
    return dp, cell_max, speeds, flux, diss


def _explicit_parts(flux, diss):
    """The explicit part of each momentum's update: its flux divergence plus
    both dissipations."""
    return tuple(f + (d[0] + d[1]) for f, d in zip(flux, diss))


def _dphi(state: FluidState2D, speeds, e, dt: float, dx: float, dy: float) -> np.ndarray:
    """rho - dt (div q + dissipation of rho) + dt^2 div(e1, e2), with
    ``speeds`` the interface speeds (a_x, a_y): the O(dt^2) term
    differentiates each momentum's explicit part ``e`` once."""
    rho = state.rho
    a_x, a_y = speeds
    first_order = (_dc(state.q1, dx, 0) + _dc(state.q2, dy, 1)) + (
        _diss(rho, a_x, dx, 0) + _diss(rho, a_y, dy, 1))
    return rho - dt * first_order + _square(dt) * (_dc(e[0], dx, 0) + _dc(e[1], dy, 1))


def assemble_dphi_2d(state: FluidState2D, eos: EquationOfState, params: SchemeParams,
                     dt: float, dx: float, dy: float) -> np.ndarray:
    """Right-hand side of the 2D elliptic equation from old-time data.

    rho - dt (div q + dissipation of rho) + dt^2 div(e1, e2), with e_k the
    explicit part of momentum k's update, which the exact elimination of
    the new-time momenta leaves in the density flux: its flux divergence
    and its dissipations along both directions (so the x-direction
    dissipation of q2 takes an outer y-derivative, and vice versa).
    """
    _, _, speeds, flux, diss = _explicit_terms(state, eos, params.alpha, dx, dy)
    return _dphi(state, speeds, _explicit_parts(flux, diss), dt, dx, dy)


def step_ap_2d(state: FluidState2D, eos: EquationOfState, params: SchemeParams,
               stencil: str, dt: float, dx: float, dy: float):
    """One semi-implicit 2D step; returns (new_state, StepReport).

    The report's consistency_residual is the max-norm residual of the
    density row: the new density put through the stencil's elliptic
    operator, minus the right-hand side (in density units).  Unlike the 1D
    linear steps, which report their tridiagonal solve's tested residual,
    this re-applies the operator, from the face coefficients the solve
    built: CG's recursive residual can drift from the true one.
    """
    _check_step_inputs(params, dt, "2D stencil", stencil, _STENCIL_STRIDE)

    # p'(rho^n) is both the sound speed and the mobility.
    dp, cell_max, speeds, flux, diss = _explicit_terms(state, eos, params.alpha, dx, dy)
    # beta first: an overflowing dt^2 fails here, not in the right-hand side.
    coeff = EllipticCoefficients._of_step(beta_coefficient(params.epsilon, params.alpha, dt), dp)
    # Each momentum's explicit part, summed now so that the solve runs
    # without the interface speeds and the flux and dissipation terms.
    explicit = _explicit_parts(flux, diss)
    dphi = _dphi(state, speeds, explicit, dt, dx, dy)
    del speeds, flux, diss
    rho_new, cg_iters, faces = solve_elliptic_2d(dphi, coeff, dx, dy, stencil=stencil)

    mass = _check_new_density(rho_new)
    p_new = eos._pressure(rho_new)
    c = (1.0 - params.alpha * params.epsilon**2) / params.epsilon**2
    momenta = (state.q1 - dt * (explicit[0] + c * _dc(p_new, dx, 0)),
               state.q2 - dt * (explicit[1] + c * _dc(p_new, dy, 1)))
    r_density = _flux_operator(rho_new, _STENCIL_STRIDE[stencil], faces) - dphi
    return _finish_step(FluidState2D, rho_new, mass, momenta, dx * dy, cell_max,
                        float(np.abs(r_density).max()), dt,
                        linear_iters=cg_iters)
