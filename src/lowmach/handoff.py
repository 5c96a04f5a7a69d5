"""The contract every stepper shares, 1D and 2D, and the step cap of runs
and scans.

:func:`lowmach.onedim.step_ap_1d`, :func:`lowmach.onedim.step_explicit_llf_1d`,
:func:`lowmach.onedim.step_ice_1d` and :func:`lowmach.twodim.step_ap_2d`
start with :func:`_check_step_inputs` and hand their step back the same
way: :func:`_check_new_density` on the new density, then
:func:`_finish_step`, which checks each new momentum, freezes the arrays
into the state without a copy, and builds the one :class:`StepReport`.
The checks ride on the sums the report needs: a valid field passes on its
sum (and, for the density, its minimum), and only a field that fails them
is searched for the error and the cell to report.

:func:`check_dt_advances`, :func:`check_step_count` and :data:`MAX_STEPS`
bound the steps of a run or a scan trial; :func:`float_error_boundary` its float errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .core import SchemeParams, _cell_index, validate_params
from .errors import InstabilityError, PositivityError


@dataclass(frozen=True)
class StepReport:
    """Per-step diagnostics (totals refer to the post-step state)."""

    max_wave_speed: float
    mass_total: float
    momentum_total: float
    consistency_residual: float
    newton_iters: int
    linear_iters: int
    momentum2_total: float = 0.0


def _check_step_inputs(params: SchemeParams, dt: float, kind: str | None = None, name=None,
                       names=()) -> None:
    """Input check of every stepper, before any work: where the step takes
    a ``kind`` of scheme (a variant or a stencil), ``name`` is one of
    ``names``, else ValueError; the parameters pass :func:`validate_params`
    (else ParamError); and dt > 0 (else ValueError, NaN included)."""
    if kind is not None and name not in names:
        raise ValueError(f"unknown {kind} {name!r}")
    validate_params(params)
    if not dt > 0.0:
        raise ValueError("dt must be positive")


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
    # Finite and positive: only the sum overflowed (in a verb, the boundary raised).
    return total


def _finish_step(state_cls, rho_new, mass, momenta, cell_size, cell_max, residual,
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
        momentum2_total=float(totals[1] * cell_size) if len(totals) > 1 else 0.0,
    )
    return state_cls._trusted(rho_new, *momenta), report


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


def float_error_boundary():
    """A fresh ``np.errstate`` (numpy 1.x's keeps its saved state on the instance):
    a numpy overflow, invalid value or divide by zero raises InstabilityError
    naming its kind, and underflow is ignored.  Entered once per verb step loop."""
    def fail(kind, flag):
        raise InstabilityError(f"float {kind} in a numpy operation")
    return np.errstate(over="call", invalid="call", divide="call", under="ignore", call=fail)
