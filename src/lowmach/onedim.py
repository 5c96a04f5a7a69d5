"""1D spatial operators and time steppers on periodic grids.

All three steppers use one first-order local Lax-Friedrichs kernel,
:func:`_llf_fluxes`, and differ only in the per-cell sound speed and the
pressure term of the momentum flux they pass it:

* :func:`step_ap_1d` -- semi-implicit scheme, sqrt(alpha p') and alpha p:
  the density flux carries the new-time momentum average and the stiff
  pressure gradient is implicit, which after elimination yields one
  elliptic solve for the new density (variant nl, l or ld) followed by an
  explicit momentum update;
* :func:`step_explicit_llf_1d` -- fully explicit LLF for the unsplit
  system, sqrt(p')/eps and p/eps^2;
* :func:`step_ice_1d` -- predictor/corrector baseline: pressureless LLF
  predictor (0 and 0), then an implicit pressure correction solved on the
  three-point stencil.

Interface speeds always use old-time values.  All steppers are pure
(state in, state out) and conservative under the periodic wrap.

The kernel works on the periodic extension of each field by one cell on
either side, x_{n-1}, x_0 ... x_{n-1}, x_0, made by one concatenation
(:func:`lowmach.core._periodic`): p and p' are evaluated on the extended
density, and every neighbour of the kernel and of the differences below is
a slice view of an extension rather than a shifted copy.  The fluxes are
computed in place, with the operands and order of the plain formulas, so
they are the same floats.  Every step takes what it needs of its solve
from the solve's return value.  The ``nl`` step takes p(rho^{n+1}) on the
two-cell extension and the max-norm residual of the density row from the
Newton solve.  The ``ld`` and ``l`` steps and the ICE corrector report the
max-norm residual that their linear solve returns, the one its cyclic
tridiagonal solves have tested (for ``l`` the larger of the two residue
classes'), and apply no operator after the solve; their tridiagonal bands
come from one periodic extension of the mobility (:mod:`lowmach.elliptic`).
The three steps check their inputs and hand their results back through
:mod:`lowmach.handoff`, as :func:`lowmach.twodim.step_ap_2d` does.
:func:`max_stable_dt_scan`, Table 1's bisection, runs any ``step(state,
dt)``; ``lowmach.runner`` builds that step from a config, as for every
verb.
"""

from __future__ import annotations

from math import ceil, inf

import numpy as np

from .core import EquationOfState, FluidState1D, SchemeParams, _periodic, _square
from .diagnostics import total_variation
from .elliptic import (
    _VARIANT_STRIDE,
    EllipticCoefficients,
    beta_coefficient,
    solve_elliptic_l_1d,
    solve_elliptic_ld_1d,
    solve_elliptic_nl_1d,
)
from .errors import InstabilityError, NoStableDtError, NumericsError
from .handoff import (_check_new_density, _check_step_inputs, _finish_step, check_dt_advances,
                      check_step_count, float_error_boundary)


def _llf_fluxes(rho, q, sound, pressure_flux):
    """LLF fluxes at the n+1 interfaces of the periodic extensions ``rho``
    and ``q`` (n+2 cells); index k holds interface k-1/2, so index 0 and
    index n are both the wrap interface.  ``sound`` and ``pressure_flux``
    are given on the extension too, or as scalars.

    f1 = (q_j + q_{j+1})/2 - A/2 (rho_{j+1} - rho_j)
    f2 = (g_j + g_{j+1})/2 - A/2 (q_{j+1} - q_j),  g = rho u^2 + pressure_flux

    with A the larger of the cell speeds |u| + sound on either side.
    Returns (f1, f2, cell speeds of the n cells).
    """
    u = q / rho
    cell_max = np.abs(u)
    cell_max += sound
    half_a = np.maximum(cell_max[:-1], cell_max[1:])
    half_a *= 0.5
    g = np.multiply(q, u, out=u)
    g += pressure_flux
    f1 = q[:-1] + q[1:]
    f1 *= 0.5
    jump = rho[1:] - rho[:-1]
    jump *= half_a
    f1 -= jump
    # Halved before the sum, which then holds any two finite g: the same
    # floats as (g_j + g_{j+1})/2 wherever g is a normal float.
    g *= 0.5
    f2 = g[:-1] + g[1:]
    np.subtract(q[1:], q[:-1], out=jump)
    jump *= half_a
    f2 -= jump
    return f1, f2, cell_max[1:-1]


def _ap_fluxes(state: FluidState1D, eos, alpha):
    """Explicit fluxes of the semi-implicit scheme: sound speed sqrt(alpha p')
    and the explicit pressure part alpha p.  Returns (f1, f2, cell speeds,
    p' of the n cells), the state's density having been validated by its
    constructor.  alpha = 1, the usual splitting, multiplies nothing."""
    rho = _periodic(state.rho)
    dp = eos._pressure_derivative(rho)
    alpha_dp, alpha_p = dp, eos._pressure(rho)
    if alpha != 1.0:
        alpha_dp = alpha * dp
        alpha_p *= alpha
    f1, f2, cell_max = _llf_fluxes(rho, _periodic(state.q), np.sqrt(alpha_dp), alpha_p)
    return f1, f2, cell_max, dp[1:-1]


def _difference(f):
    """f_{j+1/2} - f_{j-1/2} of interface values in the layout of
    :func:`_llf_fluxes`."""
    return f[1:] - f[:-1]


def _conservative_update(v, f, dt, dx):
    """v_j - dt/dx (f_{j+1/2} - f_{j-1/2}); InstabilityError where dt/dx
    overflows, as it can on a valid grid with a tiny dx."""
    ratio = dt / dx
    if not ratio < inf:
        raise InstabilityError(f"dt/dx = {dt:.3g}/{dx:.3g} is not finite")
    d = _difference(f)
    d *= ratio
    return np.subtract(v, d, out=d)


def _flux_derivative(f, dx):
    """Df_j = (f_{j+1/2} - f_{j-1/2}) / dx."""
    d = _difference(f)
    d /= dx
    return d


def _centered_difference(v):
    """v_{j+1} - v_{j-1}."""
    ext = _periodic(v)
    return ext[2:] - ext[:-2]


def _dphi_from_fluxes(rho, f1, df2, dt, dx):
    """The right-hand side; InstabilityError where dt^2/(2 dx) overflows."""
    explicit = _conservative_update(rho, f1, dt, dx)
    scale = _square(dt) / (2.0 * dx)
    if not scale < inf:
        raise InstabilityError(f"dt^2/(2 dx) = {dt:.3g}^2/(2 * {dx:.3g}) is not finite")
    return explicit + scale * _centered_difference(df2)


def _momentum_from_fluxes(q, df2, p_jump, coeff_c, dt, dx):
    """The momentum update, with ``p_jump`` p(rho^{n+1})_{j+1} - p(rho^{n+1})_{j-1}."""
    return q - dt * df2 - coeff_c * (dt / (2.0 * dx)) * p_jump


def step_ap_1d(state: FluidState1D, eos: EquationOfState, params: SchemeParams,
               variant, dt: float, dx: float):
    """One semi-implicit step; returns (new_state, StepReport).

    The report's consistency_residual is the max-norm residual of the
    density row (in density units): the Newton solve's G at the new density
    for ``nl``, and for ``l`` and ``ld`` the residual the linear solve
    returns, which its tridiagonal solves have tested.
    ``variant`` is "nl", "l" or "ld".
    """
    _check_step_inputs(params, dt, "variant", variant, _VARIANT_STRIDE)

    rho, q = state.rho, state.q
    # p'(rho^n) is both the sound speed and the mobility.
    f1, f2, cell_max, dp = _ap_fluxes(state, eos, params.alpha)
    # beta first: an overflowing dt^2 fails here, as in the ICE step.
    coeff = EllipticCoefficients._of_step(beta_coefficient(params.epsilon, params.alpha, dt), dp)
    df2 = _flux_derivative(f2, dx)
    dphi = _dphi_from_fluxes(rho, f1, df2, dt, dx)

    newton_iters = 0
    if variant == "nl":
        # p on the two-cell extension of rho^{n+1}, and max|G(rho^{n+1})|.
        rho_new, newton_iters, residual, p_new = solve_elliptic_nl_1d(rho, dphi, coeff, eos, dx)
        mass = _check_new_density(rho_new)
        p_jump = p_new[3:-1] - p_new[1:-3]
    else:
        solve = solve_elliptic_ld_1d if variant == "ld" else solve_elliptic_l_1d
        rho_new, residual = solve(dphi, coeff, dx)
        mass = _check_new_density(rho_new)
        p_jump = _centered_difference(eos._pressure(rho_new))
    c = (1.0 - params.alpha * params.epsilon**2) / params.epsilon**2
    q_new = _momentum_from_fluxes(q, df2, p_jump, c, dt, dx)
    return _finish_step(FluidState1D, rho_new, mass, (q_new,), dx, cell_max, residual,
                        newton_iters=newton_iters)


def step_explicit_llf_1d(state: FluidState1D, eos: EquationOfState, params: SchemeParams,
                         dt: float, dx: float):
    """Fully explicit LLF step for the unsplit system; wave speeds and the
    momentum flux carry the full 1/eps^2 pressure."""
    _check_step_inputs(params, dt)
    eps = params.epsilon

    rho = _periodic(state.rho)
    sound = np.sqrt(eos._pressure_derivative(rho))
    sound /= eps
    pressure_flux = eos._pressure(rho)
    pressure_flux /= eps**2
    f1, f2, cell_max = _llf_fluxes(rho, _periodic(state.q), sound, pressure_flux)
    rho_new = _conservative_update(state.rho, f1, dt, dx)
    q_new = _conservative_update(state.q, f2, dt, dx)

    mass = _check_new_density(rho_new)
    return _finish_step(FluidState1D, rho_new, mass, (q_new,), dx, cell_max, 0.0)


def step_ice_1d(state: FluidState1D, eos: EquationOfState, params: SchemeParams,
                dt: float, dx: float):
    """Predictor/corrector step: pressureless LLF predictor, then the
    implicit pressure correction reduced to a three-point elliptic solve
    with coefficient dt^2/eps^2 and mobility p'(rho^n), followed by the
    centered explicit momentum correction."""
    _check_step_inputs(params, dt)
    eps = params.epsilon

    rho, q = state.rho, state.q
    # The predictor system carries no pressure; its wave speeds are u alone.
    f1, f2, cell_max = _llf_fluxes(_periodic(rho), _periodic(q), 0.0, 0.0)
    rho_star = _conservative_update(rho, f1, dt, dx)
    q_star = _conservative_update(q, f2, dt, dx)

    coeff = EllipticCoefficients._of_step(_square(dt) / eps**2, eos._pressure_derivative(rho))
    rho_new, residual = solve_elliptic_ld_1d(rho_star, coeff, dx)
    mass = _check_new_density(rho_new)

    q_new = q_star - (dt / eps**2) * _centered_difference(eos._pressure(rho_new)) / (2.0 * dx)
    return _finish_step(FluidState1D, rho_new, mass, (q_new,), dx, cell_max, residual)


def max_stable_dt_scan(initial: FluidState1D, step, T: float, dt_lo: float,
                       dt_hi: float) -> tuple:
    """Largest stable dt in [dt_lo, dt_hi] found by 12 bisection steps,
    with the largest ``max_wave_speed`` that ``step(state, dt) -> (state,
    StepReport)`` reported in the trial at that dt: (stable_dt, speed).

    A trial integrates to time T with fixed dt (final step overshooting)
    and counts as unstable on a float error, solver failure, or either conserved
    component exceeding 10x its initial scale.  (The momentum cap matters
    in the low Mach regime, where the implicit pressure keeps the density
    bounded while an unstable explicit part blows up the momentum.)  On top
    of the blow-up caps, a trial whose end-state total variation exceeds
    3x that of the dt_lo reference run is rejected: near the margin the
    scheme develops grid-scale oscillations long before they amplify to
    blow-up within T, and the usable time step is the non-oscillatory one.
    A dt_lo too small to advance t from T (T - dt_lo == T), or whose trial
    would take more than MAX_STEPS steps, is an InstabilityError, as in a
    run on the CFL rule.
    """
    if not dt_lo < dt_hi:
        raise ValueError("dt_lo must be < dt_hi")
    check_dt_advances(dt_lo, T, "dt_lo", "T")
    check_step_count(dt_lo, T, dt_name="dt_lo", t_name="T")
    rho_cap = 10.0 * float(initial.rho.max())
    q_cap = 10.0 * max(float(np.abs(initial.q).max()), float(initial.rho.max()))

    def run_trial(dt):
        """(total variation of rho, of q, largest reported speed) at the
        end of the trial at dt, or None where it blows up."""
        state = initial
        speed = 0.0
        try:
            with float_error_boundary():
                for _ in range(ceil(T / dt)):
                    state, report = step(state, dt)
                    speed = max(speed, report.max_wave_speed)
                    if float(state.rho.max()) > rho_cap:
                        return None
                    if float(np.abs(state.q).max()) > q_cap:
                        return None
        except NumericsError:
            return None
        return total_variation(state.rho), total_variation(state.q), speed

    reference = run_trial(dt_lo)
    if reference is None:
        raise NoStableDtError(f"dt_lo = {dt_lo} is already unstable")
    tv_rho_cap = 3.0 * reference[0]
    tv_q_cap = 3.0 * reference[1]

    def stable_speed(dt):
        """The trial's largest speed where the trial at dt is stable, else None."""
        trial = run_trial(dt)
        if trial is not None and trial[0] <= tv_rho_cap and trial[1] <= tv_q_cap:
            return trial[2]
        return None

    speed = stable_speed(dt_hi)
    if speed is not None:
        return dt_hi, speed
    lo, hi, speed = dt_lo, dt_hi, reference[2]
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        mid_speed = stable_speed(mid)
        if mid_speed is None:
            hi = mid
        else:
            lo, speed = mid, mid_speed
    return lo, speed
