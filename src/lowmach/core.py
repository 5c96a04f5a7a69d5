"""Core domain types: equation of state, grids, fluid states, scheme parameters.

All types are immutable after construction and safe to share between
threads.  States validate positivity/finiteness on construction; scheme
parameters are validated explicitly through :func:`validate_params` so that
invalid parameter sets can still be constructed and inspected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStateError, ParamError

# The most cells a float array can hold: its bytes must fit in an intp.
_MAX_CELLS = np.iinfo(np.intp).max // np.dtype(float).itemsize

# The largest alpha eps^2, in float, that validate_params accepts: 1 plus
# two units in the last place of 1.
_ALPHA_BOUND = 1.0 + 2 * math.ulp(1.0)


@dataclass(frozen=True)
class EquationOfState:
    """Power-law pressure p(rho) = lambda_coeff * rho**gamma.

    ``gamma = 1`` (linear pressure) is permitted.
    """

    lambda_coeff: float = 1.0
    gamma: float = 2.0

    def __post_init__(self):
        if not (self.lambda_coeff > 0.0 and np.isfinite(self.lambda_coeff)):
            raise InvalidStateError("lambda_coeff must be positive and finite")
        if not (self.gamma >= 1.0 and np.isfinite(self.gamma)):
            raise InvalidStateError("gamma must be >= 1")

    def pressure(self, rho):
        """Pressure at density rho (scalar or array); rho must be > 0."""
        rho = np.asarray(rho, dtype=float)
        if (rho <= 0.0).any() or not np.isfinite(rho).all():
            raise InvalidStateError("pressure requires strictly positive density")
        return self._pressure(rho)

    def pressure_derivative(self, rho):
        """dp/drho = lambda_coeff * gamma * rho**(gamma-1); rho must be > 0."""
        rho = np.asarray(rho, dtype=float)
        if (rho <= 0.0).any() or not np.isfinite(rho).all():
            raise InvalidStateError("pressure_derivative requires strictly positive density")
        return self._pressure_derivative(rho)

    # Unchecked evaluators, for float arrays already known to be positive and
    # finite (the density of a FluidState1D, or one that passed a stepper's
    # positivity check).  Each returns a new array, which the caller may
    # write.

    def _pressure(self, rho):
        return _power_law(rho, self.lambda_coeff, self.gamma)

    def _pressure_derivative(self, rho):
        return _power_law(rho, self.lambda_coeff * self.gamma, self.gamma - 1.0)


def _power_law(x, coeff: float, exponent: float):
    """``coeff * x**exponent`` as a new array, in the cheapest form that gives
    the same floats: x**2.0 equals a square and x**1.0 a copy of x, bit for
    bit, and a coefficient of 1 is no multiply.  Any other exponent is a
    power.  On 2,562 values numpy's scalar-power dispatch costs 2.1-3.4 us,
    a square 1.4-1.8 us and a copy 0.6 us (2-core x86 VM)."""
    if exponent == 1.0:
        return x.copy() if coeff == 1.0 else coeff * x
    out = np.square(x) if exponent == 2.0 else x**exponent
    if coeff != 1.0:
        out *= coeff
    return out


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic 1D grid on [a, b] with m cells.

    Cell centers sit at x_j = a + (j + 1/2) dx.
    """

    a: float
    b: float
    m: int

    def __post_init__(self):
        # b - a is not finite where an endpoint is not, or where it overflows.
        if not (self.b > self.a and math.isfinite(self.b - self.a)):
            raise InvalidStateError("grid requires b > a and a finite length b - a")
        if self.m < 1:
            raise InvalidStateError("grid requires at least one cell")
        if self.m > _MAX_CELLS:
            raise InvalidStateError(f"grid requires at most {_MAX_CELLS} cells, "
                                    f"the most a float array can hold")
        # (b - a) / m underflows to 0 where b - a is a few subnormals.
        if not self.dx > 0.0:
            raise InvalidStateError("grid requires a cell size (b - a) / m > 0")

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.m

    def cell_centers(self) -> np.ndarray:
        return self.a + (np.arange(self.m) + 0.5) * self.dx


@dataclass(frozen=True)
class Grid2D:
    """Uniform periodic grid on the unit square with m1 x m2 cells."""

    m1: int
    m2: int

    def __post_init__(self):
        if self.m1 < 4 or self.m2 < 4:
            raise InvalidStateError("2D grid requires m1, m2 >= 4")
        if self.m1 * self.m2 > _MAX_CELLS:
            raise InvalidStateError(f"2D grid requires m1 * m2 <= {_MAX_CELLS}, "
                                    f"the most a float array can hold")

    @property
    def dx(self) -> float:
        return 1.0 / self.m1

    @property
    def dy(self) -> float:
        return 1.0 / self.m2

    def cell_centers(self):
        x = (np.arange(self.m1) + 0.5) * self.dx
        y = (np.arange(self.m2) + 0.5) * self.dy
        return x, y


def _square(x):
    """x**2, or inf where that overflows: the square of a Python float
    raises OverflowError there, where a numpy float's reads inf."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _periodic(x, width=1):
    """The periodic extension of a 1D field by ``width`` <= len(x) cells on
    either side, x_{n-w} ... x_{n-1}, x_0 ... x_{n-1}, x_0 ... x_{w-1}, made
    by one concatenation: cell j sits at index j + width, and its neighbour
    at distance s <= width is a slice view."""
    return np.concatenate((x[-width:], x, x[:width]))


def _pair(op, x, a: int, b: int, axis: int, out):
    """``op(x[i+a], x[i+b], out=...)`` along ``axis`` of a 1D or 2D float
    array, indices taken modulo the axis length n, written into ``out`` (of
    x's shape, C-contiguous, not overlapping x); returns ``out``.

    The cells whose two neighbours both lie inside the axis take one ufunc
    pass over slices of the flat C-order row of x (a copy of x where x is
    not C-contiguous), in which neighbours along ``axis`` are the product
    of the later axes' lengths apart; along the last axis the pass also
    crosses each row's end.  Then one call per end writes the wrap band,
    the first max(0, -a, -b) or the last max(0, a, b) rows or columns,
    which overwrites those cells.  A flat pass runs at the speed of
    contiguous rows, where numpy copies slices of columns through its
    iteration buffers.  Offsets of one sign, and an axis shorter than its
    two bands, go through np.roll.  Every cell is ``op`` of the operands of
    the np.roll formula: the same float."""
    n = x.shape[axis]
    lo, hi = (-a if a < b else -b), (a if a > b else b)
    if lo < 0 or hi < 0 or lo + hi > n:
        return op(np.roll(x, -a, axis), np.roll(x, -b, axis), out=out)
    if x.ndim == 1:  # the one row of a 2D array, whose bands are columns
        _pair(op, x[None], a, b, 1, out[None])
        return out
    d = x.shape[1] if axis == 0 else 1
    xf, of = x.ravel(), out.ravel()
    start, stop = lo * d, of.size - hi * d
    op(xf[start + a * d:stop + a * d], xf[start + b * d:stop + b * d], out=of[start:stop])
    v, o = (x, out) if axis == 0 else (x.T, out.T)
    for j, w in ((0, lo), (n - hi, hi)):
        ja, jb = (j + a) % n, (j + b) % n
        if w == 1:  # one row (or column): numpy iterates it faster than a band of one
            op(v[ja], v[jb], out=o[j])
        elif w:
            op(v[ja:ja + w], v[jb:jb + w], out=o[j:j + w])
    return out


def _cell_index(flat: int, shape):
    """Cell of the flat index ``flat`` in an array of ``shape``: an int in 1D,
    a tuple of ints beyond."""
    if len(shape) == 1:
        return int(flat)
    return tuple(int(i) for i in np.unravel_index(flat, shape))


def _frozen_array(values, name):
    arr = np.array(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidStateError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


class _State:
    """Shared by the fluid states: :meth:`_trusted`, the constructor of
    checked stepper output."""

    @classmethod
    def _trusted(cls, *arrays):
        """State over float arrays, one per field in order, that the caller
        has checked (finite, positive density, equal shapes of the class's
        dimension), owns, and will not write again: they are frozen in
        place, without the copy and re-check of the constructor."""
        state = object.__new__(cls)
        for name, arr in zip(cls.__match_args__, arrays):
            arr.setflags(write=False)
            object.__setattr__(state, name, arr)
        return state


@dataclass(frozen=True)
class FluidState1D(_State):
    """Cell-centered density and momentum on a periodic 1D grid."""

    rho: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        rho = _frozen_array(self.rho, "rho")
        q = _frozen_array(self.q, "q")
        if rho.ndim != 1 or rho.shape != q.shape:
            raise InvalidStateError("rho and q must be 1D arrays of equal length")
        if np.any(rho <= 0.0):
            bad = int(np.argmin(rho))
            raise InvalidStateError(f"non-positive density at cell {bad}")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "q", q)

    @property
    def m(self) -> int:
        return self.rho.shape[0]

    def velocity(self) -> np.ndarray:
        return self.q / self.rho


@dataclass(frozen=True)
class FluidState2D(_State):
    """Cell-centered density and momentum components on a periodic 2D grid.

    Arrays are indexed [i, j] with i along x and j along y.
    """

    rho: np.ndarray
    q1: np.ndarray
    q2: np.ndarray

    def __post_init__(self):
        rho = _frozen_array(self.rho, "rho")
        q1 = _frozen_array(self.q1, "q1")
        q2 = _frozen_array(self.q2, "q2")
        if rho.ndim != 2 or rho.shape != q1.shape or rho.shape != q2.shape:
            raise InvalidStateError("rho, q1, q2 must be 2D arrays of equal shape")
        if np.any(rho <= 0.0):
            bad = _cell_index(np.argmin(rho), rho.shape)
            raise InvalidStateError(f"non-positive density at cell {bad}")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q2", q2)

    @property
    def shape(self):
        return self.rho.shape

    def velocity(self):
        return self.q1 / self.rho, self.q2 / self.rho


@dataclass(frozen=True)
class DtPolicy:
    """Time step policy: fixed dt, or adaptive from the explicit-part CFL
    condition dt = sigma * dx / max(|u| + sqrt(alpha p')).  Nothing in the
    library builds, checks or reads it: a step takes its ``dt`` from the
    caller, and a run's ``dt`` picks it (:class:`lowmach.config.RunConfig`)."""

    kind: str
    dt: float | None = None

    @classmethod
    def fixed(cls, dt: float) -> "DtPolicy":
        return cls(kind="fixed", dt=float(dt))

    @classmethod
    def adaptive(cls) -> "DtPolicy":
        return cls(kind="adaptive")


@dataclass(frozen=True)
class SchemeParams:
    """Knobs of the semi-implicit scheme.

    epsilon is the scaled Mach number; alpha the pressure-splitting
    parameter (alpha epsilon^2 <= 1 up to rounding, the equality giving a
    fully explicit pressure); sigma the Courant number for the explicit
    part; dt_policy a :class:`DtPolicy` that nothing in the library builds,
    checks or reads.
    The solves' tolerances are their own constants, not parameters.
    """

    epsilon: float
    alpha: float = 1.0
    sigma: float = 0.5
    dt_policy: DtPolicy = field(default_factory=DtPolicy.adaptive)


def validate_params(p: SchemeParams) -> None:
    """Raise :class:`ParamError` (with a stable ``code``) on the first
    violated invariant; return None when all hold."""
    if not (math.isfinite(p.epsilon) and p.epsilon > 0.0):
        raise ParamError("epsilon-not-positive", f"epsilon must be in (0, inf), got {p.epsilon}")
    # The steps divide by eps^2: it and 1/eps^2 must be finite and nonzero.
    # eps * eps overflows to inf where eps**2 would raise.
    eps2 = p.epsilon * p.epsilon
    if not (0.0 < eps2 < math.inf and 1.0 / eps2 < math.inf):
        raise ParamError("epsilon-scale-not-finite",
                         f"epsilon={p.epsilon} puts epsilon^2 or 1/epsilon^2 out of float range")
    if not (math.isfinite(p.alpha) and p.alpha >= 0.0):
        raise ParamError("alpha-negative", f"alpha must be >= 0, got {p.alpha}")
    # alpha eps^2 <= 1 up to rounding: a decimal alpha = 1/eps^2 lands up to
    # 2 ulp above 1 through the roundings of eps, alpha, eps^2 and the
    # product (0.8**2 rounds up, so 1.5625 * 0.8**2 is 1 + 1 ulp).  At that
    # bound beta is 0, the explicit limit (beta_coefficient clamps it).
    if not float(p.alpha) * eps2 <= _ALPHA_BOUND:
        raise ParamError(
            "alpha-exceeds-bound",
            f"alpha={p.alpha} exceeds 1/epsilon^2={1.0 / p.epsilon**2}",
        )
    if not (0.0 < p.sigma < 1.0):
        raise ParamError("sigma-out-of-range", f"sigma must be in (0,1), got {p.sigma}")
