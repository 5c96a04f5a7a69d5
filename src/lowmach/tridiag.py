"""Periodic (cyclic) tridiagonal linear solves.

The per-step elliptic systems of the 1D schemes reduce to tridiagonal
systems with wrap-around corner couplings.  They are solved in O(N) by a
rank-one (Sherman-Morrison) correction of an ordinary tridiagonal solve:
one call of LAPACK ``dgtsv`` with two right-hand sides.

The solve takes the four bands as arrays and checks them in one place:
float arrays of one length N >= 3.  It writes x into its one-cell
periodic extension, whose slices are both neighbours of each unknown in
the residual check, and it returns the max norm of that residual with the
solution: the 1D linear steps report it instead of applying their
operator again.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os

import numpy as np

from .errors import SingularSystemError

# Near-zero threshold for the Sherman-Morrison denominator; a vanishing
# denominator means the cyclic matrix is singular even though the banded
# core is not (constant-nullspace Laplacians hit this).
_DENOM_RTOL = 1e-12

# Relative bound of the residual test: max|A x - rhs| <= _LINEAR_RTOL max|rhs|.
_LINEAR_RTOL = 1e-11

# LAPACK dgtsv, loaded on the first solve from scipy's compiled LAPACK
# extension alone: neither scipy/__init__ nor scipy.linalg/__init__ runs, and
# a process that never solves a 1D system never loads it.
_dgtsv = None


def _flapack_spec():
    """The spec of scipy's ``scipy.linalg._flapack`` extension, found without
    importing scipy, or None."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        return None
    linalg = os.path.join(scipy.submodule_search_locations[0], "linalg")
    return importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", [linalg])


def _load_dgtsv():
    global _dgtsv
    dgtsv = None
    try:
        spec = _flapack_spec()
        if spec is not None:
            flapack = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(flapack)
            dgtsv = flapack.dgtsv
    except ImportError:
        pass
    if dgtsv is None:
        # _flapack is a private name, and pyproject allows any scipy >= 1.10.
        from scipy.linalg.lapack import dgtsv
    _dgtsv = dgtsv
    return dgtsv


def solve_periodic_tridiagonal(sub, diag, sup, rhs):
    """Solve the cyclic system of rows

        sub[i] x[i-1] + diag[i] x[i] + sup[i] x[i+1] = rhs[i]

    with indices modulo N (sub[0] couples x[N-1], sup[N-1] couples x[0]).
    The four bands are read as float arrays of one length N >= 3 (else
    ValueError) and left unchanged.  Returns (x, max|A x - rhs|), the
    residual a float that passed the test max|A x - rhs| <= 1e-11 max|rhs|
    (``_LINEAR_RTOL``).  Raises SingularSystemError when the matrix is
    numerically singular or the residual test fails.

    Writes the cyclic matrix as T + u v^T with T tridiagonal and solves
    T for the rhs and for u in one ``dgtsv`` call.  The scalars of the
    rank-one correction are Python floats.
    """
    sub, diag, sup, rhs = (np.asarray(sub, dtype=float), np.asarray(diag, dtype=float),
                           np.asarray(sup, dtype=float), np.asarray(rhs, dtype=float))
    n = diag.shape[0]
    if n < 3:
        raise ValueError("periodic tridiagonal system requires N >= 3")
    if not sub.shape == diag.shape == sup.shape == rhs.shape:
        raise ValueError("sub, diag, sup, rhs must share one length")
    dgtsv = _dgtsv if _dgtsv is not None else _load_dgtsv()
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
    (y0, z0), (y_n, z_n) = yz[0].tolist(), yz[-1].tolist()

    # x = y - z (v.y)/(1 + v.z) with v = (1, 0, ..., 0, sub[0]/gamma).
    vy = y0 + sub0_g * y_n
    vz = z0 + sub0_g * z_n
    denom = 1.0 + vz
    scale = 1.0 + abs(z0) + abs(sub0_g * z_n)
    if not math.isfinite(denom) or abs(denom) <= _DENOM_RTOL * scale:
        raise SingularSystemError("cyclic system is numerically singular")
    # x is written into its one-cell periodic extension, whose slices are
    # the neighbours of the residual's rows.
    ext = np.empty(n + 2)
    x = np.subtract(yz[:, 0], yz[:, 1] * (vy / denom), out=ext[1:-1])
    ext[0], ext[-1] = x[-1], x[0]

    # Every row of the residual holds its unknown times a coefficient, so a
    # non-finite entry of x makes the residual inf or NaN, and the NaN-safe
    # test below fails it; a zero rhs passes only a zero residual.
    r = sub * ext[:-2]
    r += diag * x
    r += sup * ext[2:]
    r -= rhs
    resid = np.maximum.reduce(np.abs(r, out=r))
    rhs_scale = np.maximum.reduce(np.abs(rhs))
    if not resid <= _LINEAR_RTOL * rhs_scale or resid == math.inf:
        raise SingularSystemError(
            f"residual {resid:.3e} exceeds {_LINEAR_RTOL:.1e} * ||rhs|| = "
            f"{_LINEAR_RTOL * rhs_scale:.3e}"
        )
    return x, float(resid)
