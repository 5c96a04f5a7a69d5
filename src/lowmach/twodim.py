"""2D operators and the semi-implicit stepper on the periodic unit square.

Arrays are indexed [i, j] with i along x (axis 0) and j along y (axis 1).
The scheme is the dimension-by-dimension analogue of the 1D one: centered
flux derivatives plus per-direction LLF dissipation, an implicit new-time
momentum average in the density flux, and the stiff pressure gradient
implicit.  Eliminating the momentum updates from the density equation
leaves one elliptic solve for the new density (wide stride-2 stencil or
reduced 5-point stencil), then explicit momentum updates.

As in :func:`lowmach.onedim.step_ap_1d`, the explicit terms of rho^n are
evaluated once per step: :func:`_speeds_2d` evaluates the velocities, p'
(unchecked: the state's density is valid) and the cell speeds, which a run
on the CFL rule evaluates for its time step and hands to the step, and
:func:`_explicit_terms` p, the interface speeds, each momentum's flux
divergence and the four dissipation terms.  :func:`_explicit_parts` sums
each momentum's explicit part, its flux divergence plus both dissipations,
which the momentum update and the elliptic right-hand side both take:
eliminating the new-time momenta from the density flux leaves dt^2 times
the centered divergence of those parts, so the right-hand side
differentiates each momentum once.

The step and its solve work in the calling thread's scratch set for the
grid's shape (:func:`lowmach.elliptic._grid_buffers`, 12 grid arrays and
two complex ones of rfft2's shape, kept between steps): every temporary is
written into one of its arrays with ``out=``, so that a warm step allocates
only p and p' of rho^n, p of rho^{n+1}, and the arrays it hands back
(rho^{n+1} and both momenta), and takes no fresh pages from the allocator.
The terms and the cell speeds sit in the set's ``held`` arrays while the
solve uses its ``work`` arrays.  The speeds, the centered difference and
the dissipation take each periodic neighbour pair with
:func:`lowmach.core._pair`, with the floats of the shifted-copy formulas.
The step reports the residual its solve returns.  It checks its inputs and
ends through the checked hand-off of :mod:`lowmach.handoff`
(:func:`~lowmach.handoff._check_new_density`, then
:func:`~lowmach.handoff._finish_step`), as the three 1D steppers do.

Expression groupings below deliberately pair x/y swap partners so that the
assembled right-hand side is bitwise equivariant under transposition
(swap of axes, momentum components and cell counts).
"""

from __future__ import annotations

import numpy as np

from .core import EquationOfState, FluidState2D, SchemeParams, _pair, _square
from .elliptic import (
    _STENCIL_STRIDE,
    EllipticCoefficients,
    _grid_buffers,
    _momentum_coefficient,
    beta_coefficient,
    solve_elliptic_2d,
)
from .handoff import _check_new_density, _check_step_inputs, _finish_step, _Speeds


def _cell_speeds(u1, u2, dp, alpha, out, work):
    """Largest eigenvalue magnitude per cell: max(|u1|, |u2|) + sqrt(alpha p'),
    written into ``out`` with ``work`` as scratch."""
    np.maximum(np.abs(u1, out=out), np.abs(u2, out=work), out=out)
    np.multiply(alpha, dp, out=work)
    return np.add(out, np.sqrt(work, out=work), out=out)


def _interface_speeds(cell_max, a_x, a_y):
    """Interface speeds (a_x, a_y), written into the given C-contiguous
    arrays: a_x[i, j] is A at interface (i+1/2, j), a_y[i, j] is A at
    (i, j+1/2); each is the larger cell speed of the two adjacent cells."""
    for axis, a in enumerate((a_x, a_y)):
        _pair(np.maximum, cell_max, 0, 1, axis, a)
    return a_x, a_y


def _dc(u, h, axis, out=None):
    """Centered difference (u_{+1} - u_{-1}) / 2h along ``axis``, written
    into ``out`` (C-contiguous; a new array where None) by
    :func:`lowmach.core._pair`, whose neighbours are indexed modulo the
    length n, so that n = 1 reads 0."""
    out = _pair(np.subtract, u, 1, -1, axis, np.empty(u.shape) if out is None else out)
    out /= 2.0 * h
    return out


def _diss(u, a, h, axis, out, f):
    """(1/2)(A_{-1/2} D- - A_{+1/2} D+) u along ``axis``, with a[i] the speed
    at interface i+1/2: minus the LLF diffusion; it enters the updates with
    the flux-divergence sign.  With the interface flux f = a (u_{+1} - u) / h
    it is (f_{-1} - f) / 2, f written into ``f`` and the result into
    ``out`` (C-contiguous), each by :func:`lowmach.core._pair`."""
    _pair(np.subtract, u, 1, 0, axis, f)
    f /= h
    f *= a
    _pair(np.subtract, f, -1, 0, axis, out)
    out *= 0.5
    return out


def _speeds_2d(state: FluidState2D, eos: EquationOfState, alpha: float) -> _Speeds:
    """Wave speeds of the 2D step: (u1, u2), p' (a new array) and the cell
    speeds max(|u1|, |u2|) + sqrt(alpha p'), written into the thread's
    scratch set (:func:`_grid_buffers`), the velocities into ``work``
    arrays 0 and 1 and the cell speeds into ``held`` array 0, with ``work``
    array 2 as scratch: they are valid until the thread's next 2D step,
    solve or speeds of that shape."""
    rho = state.rho
    bufs = _grid_buffers(rho.shape)
    u1, u2, scratch = bufs.work[:3]
    np.divide(state.q1, rho, out=u1)
    np.divide(state.q2, rho, out=u2)
    dp = eos._pressure_derivative(rho)
    return _Speeds((u1, u2), dp, _cell_speeds(u1, u2, dp, alpha, bufs.held[0], scratch))


def _explicit_terms(state: FluidState2D, eos: EquationOfState, alpha: float, dx: float,
                    dy: float, speeds: _Speeds | None = None):
    """(speeds, interface speeds, flux, diss) of rho^n, with ``speeds`` its
    :func:`_speeds_2d` (evaluated here where None), flux[k] the divergence
    of row k of the momentum flux (g1, w; w, g2) and diss[k][d] the
    dissipation of q_k along axis d.  Apart from p' in ``speeds``, the
    arrays are the thread's scratch set (:func:`_grid_buffers`): the cell
    speeds and the fluxes in three of its ``held`` arrays, the interface
    speeds and the dissipations in its ``work`` arrays; the fourth ``held``
    array, which will hold the right-hand side, is scratch here."""
    rho, q1, q2 = state.rho, state.q1, state.q2
    if speeds is None:
        speeds = _speeds_2d(state, eos, alpha)
    bufs = _grid_buffers(rho.shape)
    _, flux0, flux1, scratch = bufs.held
    # The velocities are the speeds' work arrays 0 and 1, written over below.
    u1, u2 = speeds.velocity
    _, _, a_x, a_y, w, ap = bufs.work
    _interface_speeds(speeds.cell, a_x, a_y)
    p = eos._pressure(rho)
    np.multiply(rho, np.multiply(u1, u2, out=w), out=w)
    np.multiply(q1, u1, out=u1)
    u1 += np.multiply(alpha, p, out=ap)
    _dc(u1, dx, 0, flux0)
    flux0 += _dc(w, dy, 1, u1)
    _dc(w, dx, 0, u1)
    np.multiply(q2, u2, out=u2)
    u2 += ap
    np.add(u1, _dc(u2, dy, 1, flux1), out=flux1)
    diss = ((_diss(q1, a_x, dx, 0, u1, scratch), _diss(q1, a_y, dy, 1, u2, scratch)),
            (_diss(q2, a_x, dx, 0, w, scratch), _diss(q2, a_y, dy, 1, ap, scratch)))
    return speeds, (a_x, a_y), (flux0, flux1), diss


def _explicit_parts(flux, diss):
    """The explicit part of each momentum's update, its flux divergence plus
    both dissipations, summed into the flux arrays."""
    for f, (d0, d1) in zip(flux, diss):
        f += np.add(d0, d1, out=d0)
    return flux


def _dphi(state: FluidState2D, speeds, e, dt: float, dx: float, dy: float, out) -> np.ndarray:
    """rho - dt (div q + dissipation of rho) + dt^2 div(e1, e2), written into
    ``out``, with ``speeds`` the interface speeds (a_x, a_y): the O(dt^2)
    term differentiates each momentum's explicit part ``e`` once.  Its
    temporaries are the thread's ``work`` arrays 0, 1 and 4, which
    :func:`_explicit_parts` leaves free."""
    rho = state.rho
    a_x, a_y = speeds
    t0, t1, _, _, flux, _ = _grid_buffers(rho.shape).work
    _dc(state.q1, dx, 0, out)
    out += _dc(state.q2, dy, 1, t0)
    _diss(rho, a_x, dx, 0, t0, flux)
    t0 += _diss(rho, a_y, dy, 1, t1, flux)
    out += t0
    out *= dt
    np.subtract(rho, out, out=out)
    _dc(e[0], dx, 0, t0)
    t0 += _dc(e[1], dy, 1, t1)
    t0 *= _square(dt)
    out += t0
    return out


def assemble_dphi_2d(state: FluidState2D, eos: EquationOfState, params: SchemeParams,
                     dt: float, dx: float, dy: float) -> np.ndarray:
    """Right-hand side of the 2D elliptic equation from old-time data, as a
    new array.

    rho - dt (div q + dissipation of rho) + dt^2 div(e1, e2), with e_k the
    explicit part of momentum k's update, which the exact elimination of
    the new-time momenta leaves in the density flux: its flux divergence
    and its dissipations along both directions (so the x-direction
    dissipation of q2 takes an outer y-derivative, and vice versa).
    """
    _, interface, flux, diss = _explicit_terms(state, eos, params.alpha, dx, dy)
    return _dphi(state, interface, _explicit_parts(flux, diss), dt, dx, dy,
                 np.empty(state.shape))


def step_ap_2d(state: FluidState2D, eos: EquationOfState, params: SchemeParams,
               stencil: str, dt: float, dx: float, dy: float, *,
               speeds: _Speeds | None = None):
    """One semi-implicit 2D step; returns (new_state, StepReport).

    The report's consistency_residual is the max-norm residual of the
    density row that :func:`lowmach.elliptic.solve_elliptic_2d` returns:
    the new density put through the stencil's elliptic operator, minus the
    right-hand side (in density units).

    The new state's arrays are new; every temporary is an array of the
    thread's scratch set (:func:`lowmach.elliptic._grid_buffers`).
    ``speeds`` is this state's :func:`_speeds_2d`, evaluated since the
    thread's last 2D step, where the caller has evaluated them (for its CFL
    rule); the step evaluates them where None.
    """
    _check_step_inputs(params, dt, "2D stencil", stencil, _STENCIL_STRIDE)

    speeds, interface, flux, diss = _explicit_terms(state, eos, params.alpha, dx, dy, speeds)
    # p'(rho^n) is both the sound speed and the mobility.  beta first: an
    # overflowing dt^2 fails here, not in the right-hand side.
    coeff = EllipticCoefficients._of_step(beta_coefficient(params.epsilon, params.alpha, dt),
                                          speeds.dp)
    explicit = _explicit_parts(flux, diss)
    bufs = _grid_buffers(state.shape)
    dphi = _dphi(state, interface, explicit, dt, dx, dy, bufs.held[3])
    rho_new, cg_iters, residual = solve_elliptic_2d(dphi, coeff, dx, dy, stencil=stencil)

    mass = _check_new_density(rho_new)
    p_new = eos._pressure(rho_new)
    c = _momentum_coefficient(params.epsilon, params.alpha)
    g = bufs.work[0]
    momenta = []
    for q, e, h, axis in ((state.q1, explicit[0], dx, 0), (state.q2, explicit[1], dy, 1)):
        _dc(p_new, h, axis, g)
        g *= c
        np.add(e, g, out=g)
        g *= dt
        momenta.append(q - g)
    return _finish_step(FluidState2D, rho_new, mass, momenta, dx * dy, speeds.cell, residual,
                        linear_iters=cg_iters)
