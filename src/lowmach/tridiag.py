"""Periodic (cyclic) tridiagonal linear solves.

The per-step elliptic systems of the 1D schemes reduce to tridiagonal
systems with wrap-around corner couplings.  They are solved in O(N) by a
rank-one (Sherman-Morrison) correction of an ordinary tridiagonal solve:
one call of LAPACK ``dgtsv`` with two right-hand sides.

The 1D elliptic solves build their systems through
:meth:`PeriodicTridiagonalSystem._trusted`, which skips the public
constructor's conversions and keeps only its N >= 3 check; the solve itself
checks every system the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _shift
from .errors import SingularSystemError

# Near-zero threshold for the Sherman-Morrison denominator; a vanishing
# denominator means the cyclic matrix is singular even though the banded
# core is not (constant-nullspace Laplacians hit this).
_DENOM_RTOL = 1e-12

# LAPACK dgtsv, loaded on the first solve: only the 1D elliptic solves need
# scipy.linalg, and loading it about doubles the memory and the import time
# of the package.
_dgtsv = None


def _load_dgtsv():
    global _dgtsv
    from scipy.linalg.lapack import dgtsv

    _dgtsv = dgtsv
    return dgtsv


@dataclass(frozen=True)
class PeriodicTridiagonalSystem:
    """Rows  sub[i]*x[i-1] + diag[i]*x[i] + sup[i]*x[i+1] = rhs[i]
    with indices wrapping modulo N (sub[0] couples x[N-1], sup[N-1]
    couples x[0])."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        sub = np.asarray(self.sub, dtype=float)
        diag = np.asarray(self.diag, dtype=float)
        sup = np.asarray(self.sup, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float)
        _check_size(diag)
        if not (sub.shape == diag.shape == sup.shape == rhs.shape):
            raise ValueError("sub, diag, sup, rhs must share one length")
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "sup", sup)
        object.__setattr__(self, "rhs", rhs)

    @classmethod
    def _trusted(cls, sub, diag, sup, rhs) -> "PeriodicTridiagonalSystem":
        """System over four float arrays of one length that the caller has
        built: only N >= 3 is checked, without the constructor's conversions."""
        _check_size(diag)
        sys = object.__new__(cls)
        object.__setattr__(sys, "sub", sub)
        object.__setattr__(sys, "diag", diag)
        object.__setattr__(sys, "sup", sup)
        object.__setattr__(sys, "rhs", rhs)
        return sys

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.sub * _shift(x, 1) + self.diag * x + self.sup * _shift(x, -1)

    def dense(self) -> np.ndarray:
        """Dense matrix form, for oracle comparisons on small N."""
        n = self.n
        a = np.zeros((n, n))
        for i in range(n):
            a[i, (i - 1) % n] += self.sub[i]
            a[i, i] += self.diag[i]
            a[i, (i + 1) % n] += self.sup[i]
        return a


def _check_size(diag):
    if diag.shape[0] < 3:
        raise ValueError("periodic tridiagonal system requires N >= 3")


def solve_periodic_tridiagonal(sys: PeriodicTridiagonalSystem, linear_tol: float = 1e-11) -> np.ndarray:
    """Solve the cyclic system; raises SingularSystemError when the matrix
    is numerically singular or the residual check fails.

    Writes the cyclic matrix as T + u v^T with T tridiagonal and solves
    T for the rhs and for u in one ``dgtsv`` call.  The scalars of the
    rank-one correction are Python floats.
    """
    dgtsv = _dgtsv if _dgtsv is not None else _load_dgtsv()
    sub, diag, sup, rhs = sys.sub, sys.diag, sys.sup, sys.rhs
    n = diag.shape[0]
    diag0, sub0, sup_n = float(diag[0]), float(sub[0]), float(sup[-1])
    gamma = -diag0 if diag0 != 0.0 else -1.0
    sub0_g = sub0 / gamma

    # Tridiagonal core with the corners folded into rows 0 and N-1.  Where
    # sup[-1] * sub[0] overflows, the other grouping of the same product
    # still holds it.
    corner = sup_n * sub0 / gamma
    if not math.isfinite(corner):
        corner = sup_n * sub0_g
    d = diag.copy()
    d[0] -= gamma
    d[-1] -= corner

    # Right-hand sides rhs and u as the columns of a Fortran-ordered array,
    # which dgtsv overwrites with the solutions y and z.
    b = np.zeros((2, n))
    b[0] = rhs
    b[1, 0] = gamma
    b[1, -1] = sup_n

    _, _, _, yz, info = dgtsv(sub[1:], d, sup[:-1], b.T, overwrite_d=True, overwrite_b=True)
    if info != 0:
        raise SingularSystemError(f"tridiagonal core singular (dgtsv info {info})")
    if not np.isfinite(yz).all():
        raise SingularSystemError("tridiagonal core produced non-finite solution")
    (y0, z0), (y_n, z_n) = yz[0].tolist(), yz[-1].tolist()

    # x = y - z (v.y)/(1 + v.z) with v = (1, 0, ..., 0, sub[0]/gamma).
    vy = y0 + sub0_g * y_n
    vz = z0 + sub0_g * z_n
    denom = 1.0 + vz
    scale = 1.0 + abs(z0) + abs(sub0_g * z_n)
    if not math.isfinite(denom) or abs(denom) <= _DENOM_RTOL * scale:
        raise SingularSystemError("cyclic system is numerically singular")
    x = yz[:, 0] - yz[:, 1] * (vy / denom)

    resid = np.abs(sys.matvec(x) - rhs).max()
    rhs_scale = np.abs(rhs).max()
    if rhs_scale > 0.0 and resid > linear_tol * rhs_scale:
        raise SingularSystemError(
            f"residual {resid:.3e} exceeds {linear_tol:.1e} * ||rhs|| = {linear_tol * rhs_scale:.3e}"
        )
    if not np.isfinite(x).all():
        raise SingularSystemError("solution contains non-finite entries")
    return x
