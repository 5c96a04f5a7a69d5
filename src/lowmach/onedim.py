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
they are the same floats.  The ``nl`` step takes p(rho^{n+1}) and the
residual of the density row from the Newton solve where its last G test
accepted the new density, and evaluates them otherwise.  The ``ld`` and
``l`` steps and the ICE corrector report the max-norm residual that their
linear solve returns, the one its cyclic tridiagonal solves have tested
(for ``l`` the larger of the two residue classes'), and apply no operator
after the solve; their tridiagonal bands come from one periodic extension
of the mobility (:mod:`lowmach.elliptic`).

These three and :func:`lowmach.twodim.step_ap_2d` hand a step back the same
way: :func:`_check_new_density` on the new density, then
:func:`_finish_step`, which checks each new momentum, freezes the arrays
into the state without a copy, and builds the one :class:`StepReport`.
The checks ride on the sums the report needs: a valid field passes on its
sum (and, for the density, its minimum), and only a field that fails them
is searched for the error and the cell to report.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf, isfinite

import numpy as np

from .core import (EquationOfState, FluidState1D, SchemeParams, _cell_index, _periodic,
                   _square, validate_params)
from .diagnostics import total_variation
from .elliptic import (
    _VARIANT_STRIDE,
    EllipticCoefficients,
    _nl_pressure_and_residual,
    beta_coefficient,
    solve_elliptic_l_1d,
    solve_elliptic_ld_1d,
    solve_elliptic_nl_1d,
)
from .errors import InstabilityError, NoStableDtError, NumericsError, PositivityError


@dataclass(frozen=True)
class StepReport:
    """Per-step diagnostics (totals refer to the post-step state)."""

    max_wave_speed: float
    mass_total: float
    momentum_total: float
    consistency_residual: float
    newton_iters: int
    linear_iters: int
    dt_used: float
    momentum2_total: float = 0.0


def _check_new_density(rho_new):
    """First check of every stepper's output, 1D or 2D: the new density is
    finite and positive, else the error names the lowest cell.  Returns
    ``rho_new.sum()``, the report's mass before the cell size.  A valid
    density passes on its minimum and that sum: NaN and -inf fail the
    first, +inf the second, and either is diagnosed below."""
    total = rho_new.sum() if rho_new.min() > 0.0 else None
    if total is not None and isfinite(total):
        return total
    if not np.isfinite(rho_new).all():
        raise InstabilityError("non-finite density after step")
    if (rho_new <= 0.0).any():
        bad = _cell_index(rho_new.argmin(), rho_new.shape)
        raise PositivityError(bad, f"density lost positivity at cell {bad}")
    # Finite and positive: only the sum overflowed.
    return total


def _finish_step(state_cls, rho_new, mass, momenta, cell_size, cell_max, residual, dt,
                 newton_iters=0, linear_iters=0):
    """Hand-off of every stepper, 1D or 2D; returns (new_state, StepReport).

    ``rho_new`` has passed :func:`_check_new_density`, which returned its
    sum ``mass``.  Each array of ``momenta`` (q, or q1 and q2) must be
    finite: one whose sum is finite passes, any other is searched for a
    non-finite entry.  The arrays are frozen into a ``state_cls`` through
    its ``_trusted``.  The report's totals are sums times ``cell_size``
    (dx, or dx dy), its wave speed the max of ``cell_max``, and its
    consistency_residual ``residual``, the max-norm residual of the density
    row (0.0 for a step without a solve).
    """
    totals = []
    for q in momenta:
        total = q.sum()
        if not isfinite(total) and not np.isfinite(q).all():
            raise InstabilityError("non-finite momentum after step")
        totals.append(total)
    report = StepReport(
        max_wave_speed=float(cell_max.max()),
        mass_total=float(mass * cell_size),
        momentum_total=float(totals[0] * cell_size),
        consistency_residual=residual,
        newton_iters=newton_iters,
        linear_iters=linear_iters,
        dt_used=dt,
        momentum2_total=float(totals[1] * cell_size) if len(totals) > 1 else 0.0,
    )
    return state_cls._trusted(rho_new, *momenta), report


def wave_speeds(eos: EquationOfState, rho, u, alpha: float):
    """(u - sqrt(alpha p'), u + sqrt(alpha p')); equal to u when alpha = 0."""
    s = np.sqrt(alpha * eos.pressure_derivative(rho))
    return u - s, u + s


def interface_speed(lambda_cell_j, lambda_cell_j1):
    """Local maximal wave speed at the interface between two cells."""
    return np.maximum(lambda_cell_j, lambda_cell_j1)


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
    half_a = interface_speed(cell_max[:-1], cell_max[1:])
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


def llf_flux_pair(state: FluidState1D, eos: EquationOfState, alpha: float, j: int):
    """Explicit parts (f1, f2) of the numerical flux at interface j+1/2.

    The implicit new-time momentum average of the density flux is excluded;
    it is eliminated through the momentum update when assembling the
    elliptic system.
    """
    f1, f2, _, _ = _ap_fluxes(state, eos, alpha)
    k = j % state.m + 1
    return float(f1[k]), float(f2[k])


def _dphi_from_fluxes(rho, f1, df2, dt, dx):
    """The right-hand side; InstabilityError where dt^2/(2 dx) overflows."""
    explicit = _conservative_update(rho, f1, dt, dx)
    scale = _square(dt) / (2.0 * dx)
    if not scale < inf:
        raise InstabilityError(f"dt^2/(2 dx) = {dt:.3g}^2/(2 * {dx:.3g}) is not finite")
    return explicit + scale * _centered_difference(df2)


def assemble_dphi_1d(state: FluidState1D, eos: EquationOfState, params: SchemeParams,
                     dt: float, dx: float) -> np.ndarray:
    """Right-hand side of the per-step elliptic equation, from old-time fluxes."""
    f1, f2, _, _ = _ap_fluxes(state, eos, params.alpha)
    return _dphi_from_fluxes(state.rho, f1, _flux_derivative(f2, dx), dt, dx)


def _momentum_from_fluxes(q, df2, p_jump, coeff_c, dt, dx):
    """The momentum update, with ``p_jump`` p(rho^{n+1})_{j+1} - p(rho^{n+1})_{j-1}."""
    return q - dt * df2 - coeff_c * (dt / (2.0 * dx)) * p_jump


def momentum_update_1d(state_n: FluidState1D, rho_np1, eos: EquationOfState,
                       params: SchemeParams, dt: float, dx: float) -> np.ndarray:
    """q^{n+1} = q^n - dt Df2(old fluxes) - (1-alpha eps^2)/eps^2 * dt/(2dx) *
    (p(rho^{n+1})_{j+1} - p(rho^{n+1})_{j-1})."""
    rho_np1 = np.asarray(rho_np1, dtype=float)
    _, f2, _, _ = _ap_fluxes(state_n, eos, params.alpha)
    c = (1.0 - params.alpha * params.epsilon**2) / params.epsilon**2
    return _momentum_from_fluxes(state_n.q, _flux_derivative(f2, dx),
                                 _centered_difference(eos.pressure(rho_np1)), c, dt, dx)


def step_ap_1d(state: FluidState1D, eos: EquationOfState, params: SchemeParams,
               variant, dt: float, dx: float):
    """One semi-implicit step; returns (new_state, StepReport).

    The report's consistency_residual is the max-norm residual of the
    density row (in density units): the Newton solve's G at the new density
    for ``nl``, and for ``l`` and ``ld`` the residual the linear solve
    returns, which its tridiagonal solves have tested.
    ``variant`` is "nl", "l" or "ld".
    """
    if variant not in _VARIANT_STRIDE:
        raise ValueError(f"unknown variant {variant!r}")
    validate_params(params)
    if not dt > 0.0:
        raise ValueError("dt must be positive")

    rho, q = state.rho, state.q
    # p'(rho^n) is both the sound speed and the mobility.
    f1, f2, cell_max, dp = _ap_fluxes(state, eos, params.alpha)
    # beta first: an overflowing dt^2 fails here, as in the ICE step.
    coeff = EllipticCoefficients._of_step(beta_coefficient(params.epsilon, params.alpha, dt), dp)
    df2 = _flux_derivative(f2, dx)
    dphi = _dphi_from_fluxes(rho, f1, df2, dt, dx)

    newton_iters = 0
    if variant == "ld":
        rho_new, residual = solve_elliptic_ld_1d(rho, dphi, coeff, dx, params.linear_tol)
    elif variant == "l":
        rho_new, residual = solve_elliptic_l_1d(rho, dphi, coeff, dx, params.linear_tol)
    else:
        rho_new, newton_iters = solve_elliptic_nl_1d(
            rho, dphi, coeff, eos, dx,
            newton_tol=params.newton_tol,
            newton_max_iter=params.newton_max_iter,
            linear_tol=params.linear_tol,
        )
    mass = _check_new_density(rho_new)

    if variant == "nl":
        # p on the two-cell extension of rho^{n+1}, and G(rho^{n+1}).
        p_new, g = _nl_pressure_and_residual(rho_new, dphi, coeff, eos, dx)
        p_jump = p_new[3:-1] - p_new[1:-3]
        residual = float(np.abs(g).max())
    else:
        p_jump = _centered_difference(eos._pressure(rho_new))
    c = (1.0 - params.alpha * params.epsilon**2) / params.epsilon**2
    q_new = _momentum_from_fluxes(q, df2, p_jump, c, dt, dx)
    return _finish_step(FluidState1D, rho_new, mass, (q_new,), dx, cell_max, residual, dt,
                        newton_iters=newton_iters)


def step_explicit_llf_1d(state: FluidState1D, eos: EquationOfState, params: SchemeParams,
                         dt: float, dx: float):
    """Fully explicit LLF step for the unsplit system; wave speeds and the
    momentum flux carry the full 1/eps^2 pressure."""
    validate_params(params)
    if not dt > 0.0:
        raise ValueError("dt must be positive")
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
    return _finish_step(FluidState1D, rho_new, mass, (q_new,), dx, cell_max, 0.0, dt)


def step_ice_1d(state: FluidState1D, eos: EquationOfState, params: SchemeParams,
                dt: float, dx: float):
    """Predictor/corrector step: pressureless LLF predictor, then the
    implicit pressure correction reduced to a three-point elliptic solve
    with coefficient dt^2/eps^2 and mobility p'(rho^n), followed by the
    centered explicit momentum correction."""
    validate_params(params)
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    eps = params.epsilon

    rho, q = state.rho, state.q
    # The predictor system carries no pressure; its wave speeds are u alone.
    f1, f2, cell_max = _llf_fluxes(_periodic(rho), _periodic(q), 0.0, 0.0)
    rho_star = _conservative_update(rho, f1, dt, dx)
    q_star = _conservative_update(q, f2, dt, dx)
    if not (np.isfinite(rho_star).all() and np.isfinite(q_star).all()):
        raise InstabilityError("non-finite predictor state")

    coeff = EllipticCoefficients._of_step(_square(dt) / eps**2, eos._pressure_derivative(rho))
    rho_new, residual = solve_elliptic_ld_1d(rho, rho_star, coeff, dx, params.linear_tol)
    mass = _check_new_density(rho_new)

    q_new = q_star - (dt / eps**2) * _centered_difference(eos._pressure(rho_new)) / (2.0 * dx)
    return _finish_step(FluidState1D, rho_new, mass, (q_new,), dx, cell_max, residual, dt)


def ap_stepper(variant):
    """Stepper callable for scans/runs: (state, eos, params, dt, dx) -> (state, report)."""

    def stepper(state, eos, params, dt, dx):
        return step_ap_1d(state, eos, params, variant, dt, dx)

    return stepper


def check_dt_advances(dt: float, t_end: float, dt_name: str = "dt",
                      t_name: str = "t_final") -> None:
    """InstabilityError where a step of ``dt`` cannot move t off ``t_end``
    (t_end - dt == t_end): steps of that dt would never reach it."""
    if t_end - dt == t_end:
        raise InstabilityError(f"time step {dt_name} = {dt:.3g} cannot advance t to "
                               f"{t_name} = {t_end:.6g}")


# The most steps a run, or one trial of a stability scan, may take: 26 times
# the 38,400 steps of the largest run a committed verb makes (the refine-4
# Table 2 reference at eps = 0.05).  A fixed step whose count t_end / dt
# exceeds it fails before the first step (check_step_count); a run on the
# CFL rule counts its steps.
MAX_STEPS = 1_000_000


def check_step_count(dt: float, t_end: float, error=InstabilityError, dt_name: str = "dt",
                     t_name: str = "t_final") -> None:
    """``error`` where steps of ``dt`` would take more than MAX_STEPS to reach
    ``t_end``.  A dt that cannot move t off ``t_end`` at all passes here:
    :func:`check_dt_advances` states that rule."""
    if t_end / dt > MAX_STEPS and t_end - dt != t_end:
        raise error(f"{t_name} / {dt_name} = {t_end:.6g} / {dt:.3g} needs more than the "
                    f"{MAX_STEPS} steps a run may take")


def max_stable_dt_scan(initial: FluidState1D, eos: EquationOfState, params: SchemeParams,
                       stepper, T: float, dt_lo: float, dt_hi: float, dx: float,
                       bisection_iters: int = 12) -> float:
    """Largest stable dt in [dt_lo, dt_hi] found by bisection.

    A trial integrates to time T with fixed dt (final step overshooting)
    and counts as unstable on NaN/Inf, solver failure, or either conserved
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
        state = initial
        try:
            for _ in range(ceil(T / dt)):
                state, _ = stepper(state, eos, params, dt, dx)
                if float(state.rho.max()) > rho_cap:
                    return None
                if float(np.abs(state.q).max()) > q_cap:
                    return None
        except NumericsError:
            return None
        return total_variation(state.rho), total_variation(state.q)

    reference = run_trial(dt_lo)
    if reference is None:
        raise NoStableDtError(f"dt_lo = {dt_lo} is already unstable")
    tv_rho_cap = 3.0 * reference[0]
    tv_q_cap = 3.0 * reference[1]

    def is_stable(dt):
        tv = run_trial(dt)
        return tv is not None and tv[0] <= tv_rho_cap and tv[1] <= tv_q_cap

    if is_stable(dt_hi):
        return dt_hi
    lo, hi = dt_lo, dt_hi
    for _ in range(bisection_iters):
        mid = 0.5 * (lo + hi)
        if is_stable(mid):
            lo = mid
        else:
            hi = mid
    return lo
