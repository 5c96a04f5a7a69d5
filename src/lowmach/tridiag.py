"""Periodic (cyclic) tridiagonal linear solves.

The per-step elliptic systems of the 1D schemes reduce to tridiagonal
systems with wrap-around corner couplings.  They are solved in O(N) by a
rank-one (Sherman-Morrison) correction of an ordinary tridiagonal solve:
one call of LAPACK ``dgtsv`` with two right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _shift
from .errors import SingularSystemError

# Near-zero threshold for the Sherman-Morrison denominator; a vanishing
# denominator means the cyclic matrix is singular even though the banded
# core is not (constant-nullspace Laplacians hit this).
_DENOM_RTOL = 1e-12


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
        n = diag.shape[0]
        if n < 3:
            raise ValueError("periodic tridiagonal system requires N >= 3")
        if not (sub.shape == diag.shape == sup.shape == rhs.shape):
            raise ValueError("sub, diag, sup, rhs must share one length")
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "sup", sup)
        object.__setattr__(self, "rhs", rhs)

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


def solve_periodic_tridiagonal(sys: PeriodicTridiagonalSystem, linear_tol: float = 1e-11) -> np.ndarray:
    """Solve the cyclic system; raises SingularSystemError when the matrix
    is numerically singular or the residual check fails.

    Writes the cyclic matrix as T + u v^T with T tridiagonal and solves
    T for the rhs and for u in one ``dgtsv`` call.
    """
    # scipy.linalg is imported here, not at module level: only the 1D
    # elliptic solves need it, and loading it about doubles the memory and
    # the import time of the package.
    from scipy.linalg.lapack import dgtsv

    n = sys.n
    gamma = -sys.diag[0] if sys.diag[0] != 0.0 else -1.0

    # Tridiagonal core with the corners folded into rows 0 and N-1.
    d = sys.diag.copy()
    d[0] -= gamma
    d[-1] -= sys.sup[-1] * sys.sub[0] / gamma

    # Right-hand sides rhs and u as the columns of a Fortran-ordered array,
    # which dgtsv overwrites with the solutions y and z.
    b = np.zeros((2, n))
    b[0] = sys.rhs
    b[1, 0] = gamma
    b[1, -1] = sys.sup[-1]

    _, _, _, yz, info = dgtsv(sys.sub[1:], d, sys.sup[:-1], b.T,
                              overwrite_d=True, overwrite_b=True)
    if info != 0:
        raise SingularSystemError(f"tridiagonal core singular (dgtsv info {info})")
    y, z = yz[:, 0], yz[:, 1]
    if not np.isfinite(yz).all():
        raise SingularSystemError("tridiagonal core produced non-finite solution")

    # x = y - z (v.y)/(1 + v.z) with v = (1, 0, ..., 0, sub[0]/gamma).
    vy = y[0] + sys.sub[0] / gamma * y[-1]
    vz = z[0] + sys.sub[0] / gamma * z[-1]
    denom = 1.0 + vz
    scale = 1.0 + abs(z[0]) + abs(sys.sub[0] / gamma * z[-1])
    if not np.isfinite(denom) or abs(denom) <= _DENOM_RTOL * scale:
        raise SingularSystemError("cyclic system is numerically singular")
    x = y - z * (vy / denom)

    resid = np.abs(sys.matvec(x) - sys.rhs).max()
    rhs_scale = np.abs(sys.rhs).max()
    if rhs_scale > 0.0 and resid > linear_tol * rhs_scale:
        raise SingularSystemError(
            f"residual {resid:.3e} exceeds {linear_tol:.1e} * ||rhs|| = {linear_tol * rhs_scale:.3e}"
        )
    if not np.isfinite(x).all():
        raise SingularSystemError("solution contains non-finite entries")
    return x
