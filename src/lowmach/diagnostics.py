"""Error norms, oscillation and limit diagnostics, and the admissibility
advisor for the pressure-splitting parameter."""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, log2

import numpy as np

from .core import FluidState1D, FluidState2D
from .errors import UnsupportedGridError
from .twodim import _dc


@dataclass(frozen=True)
class ErrorReport:
    """Relative L2 errors of density and momentum."""

    e_rho: float
    e_q: float


@dataclass(frozen=True)
class AlphaInterval:
    """Admissible window for sqrt(alpha): enough numerical diffusion at the
    bottom, the explicit-part CFL constraint at the top.  The raw bounds
    are stored; feasibility additionally clamps the lower end at 0 and
    respects the hard cap sqrt(alpha) <= 1/epsilon."""

    sqrt_alpha_lo: float
    sqrt_alpha_hi: float
    feasible: bool


def _sample_indices(m_coarse: int, m_fine: int) -> np.ndarray:
    """Fine-grid cell nearest each coarse cell center (left cell on ties)."""
    if m_fine % m_coarse != 0:
        raise UnsupportedGridError(
            f"reference grid ({m_fine}) must be an integer refinement of the coarse grid ({m_coarse})"
        )
    r = m_fine // m_coarse
    return (2 * np.arange(m_coarse) * r + r - 1) // 2


def _relative_l2(diff, ref_field, m, m_ref, name) -> float:
    # (1/M) sqrt(sum over the coarse grid) over (1/M_ref) sqrt(sum over the
    # reference grid); the 1/M prefactors (rather than 1/sqrt(M)) follow the
    # error norm the benchmark tables are stated in.
    num = np.sqrt(np.sum(np.asarray(diff) ** 2)) / m
    den = np.sqrt(np.sum(np.asarray(ref_field) ** 2)) / m_ref
    if den == 0.0:
        raise ValueError(f"the reference's {name} is identically zero: no relative error")
    return float(num / den)


def relative_l2_error(numeric: FluidState1D, reference: FluidState1D) -> ErrorReport:
    """Relative L2 error of a coarse solution against a finer reference,
    the reference sampled at the coarse cell centers (nearest fine cell).
    A reference field that is identically zero is a ValueError."""
    idx = _sample_indices(numeric.m, reference.m)
    e_rho = _relative_l2(numeric.rho - reference.rho[idx], reference.rho, numeric.m, reference.m,
                         "rho")
    e_q = _relative_l2(numeric.q - reference.q[idx], reference.q, numeric.m, reference.m, "q")
    return ErrorReport(e_rho=e_rho, e_q=e_q)


def total_variation(field) -> float:
    """Sum of |u_{j+1} - u_j| with periodic wrap (1D fields)."""
    field = np.asarray(field, dtype=float)
    if field.ndim != 1:
        raise ValueError("total_variation expects a 1D field")
    return float(np.sum(np.abs(np.diff(field, append=field[:1]))))


def convergence_order(errors):
    """From [(dx, e), ...] with dx halving, return ([ratios], [orders])
    where ratio_k = e_k / e_{k+1} and order_k = log2(ratio_k)."""
    dxs = [float(dx) for dx, _ in errors]
    es = [float(e) for _, e in errors]
    for k in range(len(dxs) - 1):
        if not np.isclose(dxs[k + 1], dxs[k] / 2.0, rtol=1e-9, atol=0.0):
            raise ValueError(f"dx sequence must halve: got {dxs[k]} -> {dxs[k + 1]}")
    ratios = []
    orders = []
    for k in range(len(es) - 1):
        if es[k + 1] == 0.0:
            raise ValueError("zero error makes the ratio undefined")
        ratios.append(es[k] / es[k + 1])
        orders.append(log2(ratios[-1]))
    return ratios, orders


def alpha_admissible(dx: float, dt: float, epsilon: float, sigma: float, umax: float) -> AlphaInterval:
    """Window from the diffusion requirement sqrt(alpha) >= dx/(2dt) - 1/eps
    and the explicit CFL cap sqrt(alpha) <= sigma dx/dt - umax.

    Feasibility also enforces the hard bound alpha < 1/eps^2: whenever
    dt <= eps dx / 4 the required lower bound reaches 1/eps and no
    admissible alpha exists regardless of the CFL headroom.  dt and epsilon
    must be > 0 (else ValueError).
    """
    for name, value in (("dt", dt), ("epsilon", epsilon)):
        if not value > 0.0:
            raise ValueError(f"{name} must be > 0, got {value}")
    lo = dx / (2.0 * dt) - 1.0 / epsilon
    hi = sigma * dx / dt - umax
    feasible = (max(lo, 0.0) <= hi) and (lo < 1.0 / epsilon)
    return AlphaInterval(sqrt_alpha_lo=lo, sqrt_alpha_hi=hi, feasible=feasible)


def ap_fluctuation(state, epsilon: float):
    """(mean density, max|rho - mean| / eps^2): the measured amplitude of
    the second-order density fluctuation around the constant limit.  An
    epsilon whose eps^2 or 1/eps^2 leaves float range is a ValueError; a
    fluctuation beyond it reads inf, with numpy's default overflow warning."""
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    eps2 = epsilon * epsilon
    if not (0.0 < eps2 < inf and 1.0 / eps2 < inf):
        raise ValueError(f"epsilon = {epsilon} puts epsilon^2 or 1/epsilon^2 out of float range")
    rho = state.rho if isinstance(state, (FluidState1D, FluidState2D)) else np.asarray(state)
    mean = float(np.mean(rho))
    fluct = float(np.max(np.abs(rho - mean)) / eps2)
    return mean, fluct


def discrete_divergence_2d(state: FluidState2D, dx: float, dy: float) -> np.ndarray:
    """Centered divergence (q1_{i+1,j} - q1_{i-1,j})/(2dx) + (q2_{i,j+1} -
    q2_{i,j-1})/(2dy) per cell."""
    return _dc(state.q1, dx, 0) + _dc(state.q2, dy, 1)
