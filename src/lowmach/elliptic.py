"""Per-step elliptic solves on periodic grids.

Each time step of the semi-implicit scheme requires the density at the new
time level from a screened-diffusion equation

    rho - beta * div(mobility * grad rho)  =  rhs,

with beta = (1 - alpha eps^2) dt^2 / eps^2 and mobility the pressure
derivative frozen at the old density (or, for the nonlinear variant, the
pressure itself under the second difference).

The linear operators, 1D and 2D, are one flux form at neighbour distance
(stride) s: along each axis the flux between cells i and i+s is
F_i = beta/(s h)^2 p'_{i+1} (rho_{i+s} - rho_i), and row i takes
F_i - F_{i-s}.  The 1D linear solves build their tridiagonal bands from one
periodic extension of the mobility scaled by -beta/(s dx)^2 (the
off-diagonals are slices of it) and return, with the solution, the max-norm
residual that the tridiagonal solve has already tested, which the steps
report; they apply no operator after the solve.  In 2D the CG solve builds
the face coefficients from the mobility once, and applies the operator once
more to its solution for the residual it returns (a real check there: CG's
recursive residual can drift from the true one).  Every solve hands its
results back by return value.  Three 1D variants:

* LD -- stride 1, one cyclic tridiagonal solve;
* L  -- stride 2; even and odd cells decouple into two cyclic tridiagonal
  solves (cell count must be even);
* NL -- nonlinear stride-2 system in p(rho), solved by Newton iteration
  with the exact power-law Jacobian, itself a stride-2 tridiagonal solve.
  Each iterate is extended by two cells on either side with one
  concatenation (:func:`lowmach.core._periodic`); p and p' are evaluated on
  the extension, and the Jacobian bands and the neighbours of the residual
  G are slice views of it.  The step hands the solve p and p' of rho^n on
  its extension, which it has evaluated for its fluxes and mobility, as the
  start iterate's.  The solve returns, with the solution, max|G| and p on
  the extension at the solution, which the step reports and differences
  instead of evaluating them again.

Each 1D tridiagonal system goes to
:func:`lowmach.tridiag.solve_periodic_tridiagonal` as its four bands,
which that solve checks.

The 2D solves (wide stride-2 or reduced five-point stencil) run one
conjugate-gradient iteration on the full grid, preconditioned by the
constant-mobility operator inverted with FFTs; in the low-Mach limit that
preconditioner is nearly exact, so a solve takes a few iterations, each at
unit scale (:func:`_cg`).  It writes every intermediate in place (``out=``,
the FFTs too) into the calling thread's scratch set (:func:`_grid_buffers`),
which it shares with the 2D step, and allocates only the solution it
returns.  The face
coefficients and the operator take each periodic difference with
:func:`lowmach.core._pair`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import EquationOfState, _cell_index, _pair, _periodic, _square
from .errors import (
    InstabilityError,
    NewtonDivergenceError,
    PositivityError,
    SolverFailureError,
    UnsupportedGridError,
)
from .tridiag import solve_periodic_tridiagonal

# CG stops at ||b - A x||_2 <= _CG_RTOL ||b||_2, tighter than the 1D solves'
# 1e-11, so that the telescoping conservation identities survive the linear
# solve at the 1e-12 level.
_CG_RTOL = 1e-13

# Newton stops where the increment's max norm is at most _NEWTON_TOL, or
# max|G| at most _NEWTON_TOL max(1, max|dphi|); an iterate that has passed
# neither after _NEWTON_MAX_ITER steps is a NewtonDivergenceError.
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 50

# Neighbour distance of each 1D variant's and each 2D stencil's operator.
_VARIANT_STRIDE = {"nl": 2, "l": 2, "ld": 1}
_STENCIL_STRIDE = {"wide": 2, "reduced": 1}


@dataclass(frozen=True)
class EllipticCoefficients:
    """beta >= 0 and the per-cell mobility p'(rho^n) > 0, held read-only."""

    beta: float
    mobility: np.ndarray

    def __post_init__(self):
        mob = np.array(self.mobility, dtype=float)
        if not (np.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if (mob <= 0.0).any() or not np.isfinite(mob).all():
            raise ValueError("mobility must be strictly positive and finite")
        mob.flags.writeable = False
        object.__setattr__(self, "mobility", mob)

    @classmethod
    def _of_step(cls, beta: float, mobility: np.ndarray) -> "EllipticCoefficients":
        """Coefficients of a time step, with beta >= 0 from valid parameters
        and mobility p'(rho^n), a float array of a valid density that the
        step owns and that is frozen here without a copy.  Either
        can still leave float range: beta = (1 - alpha eps^2) dt^2 / eps^2
        can overflow (InstabilityError), and p' can underflow to 0 or
        overflow (PositivityError naming the first such cell).  Both are
        numerical failures of the step; a negative beta is the caller's
        error (ValueError)."""
        if not math.isfinite(beta):
            raise InstabilityError(f"elliptic coefficient beta = {beta} is not finite")
        if beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {beta}")
        if not (np.minimum.reduce(mobility, axis=None) > 0.0
                and np.maximum.reduce(mobility, axis=None) < math.inf):
            cell = _cell_index(np.argmin((mobility > 0.0) & (mobility < math.inf)),
                               mobility.shape)
            raise PositivityError(
                cell, f"mobility p'(rho) = {mobility[cell]:.3g} is not positive and finite "
                      f"at cell {cell}")
        mobility.setflags(write=False)
        coeff = object.__new__(cls)
        object.__setattr__(coeff, "beta", beta)
        object.__setattr__(coeff, "mobility", mobility)
        return coeff


def beta_coefficient(epsilon: float, alpha: float, dt: float) -> float:
    """(1 - alpha eps^2) dt^2 / eps^2; zero at the fully explicit limit
    alpha = 1/eps^2."""
    return max((1.0 - alpha * epsilon**2), 0.0) * _square(dt) / epsilon**2


def _momentum_coefficient(epsilon: float, alpha: float) -> float:
    """(1 - alpha eps^2) / eps^2, the implicit pressure gradient's weight in
    the AP momentum updates, clamped at 0 as beta is."""
    return max(1.0 - alpha * epsilon**2, 0.0) / epsilon**2


# ---------------------------------------------------------------------------
# Flux-form operator, shared by the 1D and 2D linear solves

def _face_scale(beta: float, h2: float) -> float:
    """beta / h2, with h2 = (s h)^2 of a stencil; InstabilityError where it is
    not a finite number: the h2 of a valid grid can underflow to 0, and
    beta / h2 can overflow."""
    if h2 > 0.0 and beta / h2 < math.inf:
        return beta / h2
    raise InstabilityError(f"elliptic coefficient beta/(s h)^2 = {beta:.3g}/{h2:.3g} "
                           f"is not finite")


def _face_coefficients(stride: int, coeff: EllipticCoefficients, spacings, out=None):
    """Face coefficients beta/(s h)^2 p'_{i+1} of the stride-s flux form, one
    array per axis with h the spacing along that axis, written into ``out``
    (C-contiguous; new arrays where None) by :func:`lowmach.core._pair`;
    :func:`_linear_bands` restates them for the 1D linear solves."""
    mob = coeff.mobility
    faces = tuple(np.empty(mob.shape) for _ in spacings) if out is None else out
    for axis, (h, face) in enumerate(zip(spacings, faces)):
        scale = _face_scale(coeff.beta, _square(stride * h))
        # scale p'_{i+1}: the pair's second operand, p'_i, is not read.
        _pair(lambda m, _, out: np.multiply(scale, m, out=out), mob, 1, 0, axis, face)
    return faces


def _flux_operator(rho, stride: int, faces, out=None, work=None) -> np.ndarray:
    """rho - beta div(p' grad rho) in flux form: along each axis the flux
    between cells i and i+s is F_i = face_i (rho_{i+s} - rho_i), and row i
    takes F_i - F_{i-s}.  Written into ``out`` with the two arrays of
    ``work`` as scratch (C-contiguous; new arrays where None), each
    difference by :func:`lowmach.core._pair`: the floats of the
    shifted-copy formulas."""
    out = np.empty(rho.shape) if out is None else out
    flux, div = (np.empty(rho.shape), np.empty(rho.shape)) if work is None else work
    np.copyto(out, rho)
    for axis, face in enumerate(faces):
        _pair(np.subtract, rho, stride, 0, axis, flux)
        np.multiply(face, flux, out=flux)
        out -= _pair(np.subtract, flux, 0, -stride, axis, div)
    return out


# ---------------------------------------------------------------------------
# 1D solves

def _solve_strided_tridiagonal(sub, diag, sup, rhs, stride: int):
    """Solve rows sub_i x_{i-s} + diag_i x_i + sup_i x_{i+s} = rhs_i (indices
    modulo the length): each residue class mod s is an independent cyclic
    tridiagonal system.  Returns (x, the largest of the classes' max-norm
    residuals).  Stride 1 is one system, whose solution is returned without
    a copy."""
    if stride == 1:
        return solve_periodic_tridiagonal(sub, diag, sup, rhs)
    out = np.empty_like(rhs)
    resid = 0.0
    for p in range(stride):
        out[p::stride], r = solve_periodic_tridiagonal(sub[p::stride], diag[p::stride],
                                                       sup[p::stride], rhs[p::stride])
        resid = max(resid, r)
    return out, resid


def _linear_bands(coeff: EllipticCoefficients, dx: float, stride: int):
    """(sub, diag, sup) of the stride-s flux-form rows
    (1 + face_i + face_{i-s}) rho_i - face_i rho_{i+s} - face_{i-s} rho_{i-s},
    face_i = beta/(s dx)^2 p'_{i+1}.  One periodic extension of the mobility,
    scaled once by -beta/(s dx)^2, holds both off-diagonals as slices, and
    diag = 1 - sup - sub: the same floats as -face_{i-s}, 1 + face_i +
    face_{i-s} and -face_i from :func:`_face_coefficients`."""
    neg = _periodic(coeff.mobility)
    neg *= -_face_scale(coeff.beta, _square(stride * dx))
    sup = neg[2:]
    sub = neg[2 - stride:-stride]
    diag = np.subtract(1.0, sup)
    diag -= sub
    return sub, diag, sup


def _solve_linear_1d(dphi, coeff: EllipticCoefficients, dx: float, stride: int):
    """Solve the stride-s flux-form equation; returns (rho, the max-norm
    residual of the solve's systems)."""
    dphi = np.asarray(dphi, dtype=float)
    if dphi.shape[0] % stride != 0:
        raise UnsupportedGridError("stride-2 elliptic variant requires an even cell count")
    if coeff.beta == 0.0:
        return dphi.copy(), 0.0
    bands = _linear_bands(coeff, dx, stride)
    # Constants lie in the diffusion operator's kernel: solving for the
    # deviation from dphi[0] keeps exactly-constant inputs exact fixed
    # points (free-stream preservation to the bit).
    shift = dphi[0]
    out, resid = _solve_strided_tridiagonal(*bands, dphi - shift, stride)
    out += shift
    return out, resid


def solve_elliptic_ld_1d(dphi, coeff: EllipticCoefficients, dx: float):
    """Three-point variant:

    rho_j - (beta/dx^2) [ p'_{j+1} (rho_{j+1}-rho_j) - p'_j (rho_j-rho_{j-1}) ] = dphi_j

    Returns (rho, residual): the max norm of the cyclic system's residual,
    which the tridiagonal solve has tested against its fixed relative bound
    1e-11 (for the deviation from dphi[0]; 0 where beta = 0).
    """
    return _solve_linear_1d(dphi, coeff, dx, 1)


def solve_elliptic_l_1d(dphi, coeff: EllipticCoefficients, dx: float):
    """Five-point stride-2 variant:

    rho_j - (beta/(4 dx^2)) [ p'_{j+1} (rho_{j+2}-rho_j) - p'_{j-1} (rho_j-rho_{j-2}) ] = dphi_j

    Couples only same-parity cells; requires an even cell count.  Returns
    (rho, residual), the residual the larger of the two residue classes'
    max norms, as in :func:`solve_elliptic_ld_1d`.
    """
    return _solve_linear_1d(dphi, coeff, dx, 2)


def _nl_operator(rho, p_ext, beta: float, dx: float) -> np.ndarray:
    """rho - beta (p_{j+2} - 2 p_j + p_{j-2}) / (4 dx^2), periodic, for
    ``p_ext`` p(rho) on the two-cell periodic extension of rho.  The second
    difference is taken halved, p_{j+2}/2 - p_j + p_{j-2}/2, which no finite
    p >= 0 overflows: the same floats wherever p/2 is a normal float."""
    half = p_ext * 0.5
    out = half[4:] - p_ext[2:-2]
    out += half[:-4]
    out /= 2.0 * _square(dx)
    out *= beta
    return np.subtract(rho, out, out=out)


def _check_newton_iterate(rho, what: str):
    """Raise PositivityError naming a cell unless rho is positive and finite."""
    if np.minimum.reduce(rho) > 0.0 and np.maximum.reduce(rho) < np.inf:
        return
    finite = np.isfinite(rho)
    if finite.all():
        bad, kind = int(rho.argmin()), "non-positive"
    else:
        bad, kind = int(np.argmin(finite)), "non-finite"
    raise PositivityError(bad, f"Newton {what} {kind} at cell {bad}")


def solve_elliptic_nl_1d(rho_n, dphi, coeff: EllipticCoefficients, eos: EquationOfState,
                         dx: float, *, start=None):
    """Nonlinear stride-2 variant: find rho with

    G(rho) = rho - beta * (p(rho)_{j+2} - 2 p(rho)_j + p(rho)_{j-2})/(4 dx^2) - dphi = 0

    by Newton iteration started from rho_n.  Returns (rho, iterations,
    residual, pressure): ``residual`` is max|G(rho)|, ``pressure`` p(rho) on
    the two-cell periodic extension of rho.

    Each iterate is checked once (positive and finite, else PositivityError)
    and extended once by two cells on either side; p, G and, after the first
    step, max|G| are then evaluated once on it, unchecked.  The iteration
    stops at the iterate whose increment or max|G| passes its test (or at
    rho = dphi where beta = 0), and returns that iterate's p and max|G|; G
    is otherwise the next Newton step's right-hand side.  A solve that has
    passed neither test after 50 Newton steps is a NewtonDivergenceError.

    ``start``, from a step that has them, is (p, p') of rho_n on its
    two-cell periodic extension, rho_n a valid density: the start iterate
    is then neither checked nor extended, and takes p and its Jacobian's p'
    from ``start`` (read, not written).
    """
    rho_n = np.asarray(rho_n, dtype=float)
    dphi = np.asarray(dphi, dtype=float)
    m = dphi.shape[0]
    if m % 2 != 0:
        raise UnsupportedGridError("stride-2 elliptic variant requires an even cell count")
    beta = coeff.beta
    b4 = _face_scale(beta, 4.0 * _square(dx))
    scale = max(1.0, float(np.maximum.reduce(np.abs(dphi))))
    if beta == 0.0:
        rho, it, converged, start = dphi.copy(), 1, True, None
    else:
        rho, it, converged = rho_n, 0, False
    while True:
        if start is None:
            _check_newton_iterate(rho, "solution" if converged else "iterate")
            ext = _periodic(rho, 2)
            p, dp = eos._pressure(ext), None
        else:
            (p, dp), start = start, None
        g = _nl_operator(rho, p, beta, dx)
        g -= dphi
        if it:  # the starting iterate of a Newton solve is not tested
            residual = float(np.maximum.reduce(np.abs(g)))
            if converged or residual <= _NEWTON_TOL * scale:
                return rho, it, residual, p
            if it >= _NEWTON_MAX_ITER:
                raise NewtonDivergenceError(
                    f"Newton did not converge in {_NEWTON_MAX_ITER} iterations "
                    f"(last increment {np.max(np.abs(delta)):.3e})"
                )
        it += 1
        # Exact Jacobian of the power law, (I - b4 S2 diag(p'(rho))) with S2
        # the stride-2 second difference: p' sits at the stencil points of
        # the current iterate, and even/odd cells still decouple.
        if dp is None:
            dp = eos._pressure_derivative(ext)
        delta, _ = _solve_strided_tridiagonal(-b4 * dp[:-4], 1.0 + 2.0 * b4 * dp[2:-2],
                                              -b4 * dp[4:], -g, 2)
        rho = rho + delta
        converged = np.maximum.reduce(np.abs(delta)) <= _NEWTON_TOL


def apply_elliptic_operator_1d(variant: str, rho, coeff: EllipticCoefficients,
                               eos: EquationOfState, dx: float) -> np.ndarray:
    """Left-hand side of the variant's elliptic equation, for residual checks
    (the steps do not call it: every 1D solve returns its residual)."""
    rho = np.asarray(rho, dtype=float)
    if variant == "nl":
        return _nl_operator(rho, eos.pressure(_periodic(rho, 2)), coeff.beta, dx)
    if variant not in _VARIANT_STRIDE:
        raise ValueError(f"unknown variant {variant!r}")
    stride = _VARIANT_STRIDE[variant]
    return _flux_operator(rho, stride, _face_coefficients(stride, coeff, (dx,)))


# ---------------------------------------------------------------------------
# 2D solves

def _stride(stencil: str) -> int:
    """Neighbour distance of the 2D stencil: 1 (reduced) or 2 (wide)."""
    if stencil not in _STENCIL_STRIDE:
        raise ValueError(f"unknown 2D stencil {stencil!r}")
    return _STENCIL_STRIDE[stencil]


class _GridBuffers(NamedTuple):
    """A thread's scratch arrays for one 2D grid shape: 12 float arrays of
    the shape and two complex ones of rfft2's output shape.  ``faces`` hold
    a solve's face coefficients until the next solve; the solve iterates in
    ``work`` (CG's x, r and p, the result of its operator and
    preconditioner, and the operator's scratch), which a step also uses
    before and after its solve; ``held`` keeps what a step carries across
    its solve; ``spectra`` are the preconditioner's spectrum and symbol."""

    faces: tuple
    work: tuple
    held: tuple
    spectra: tuple


_THREAD = threading.local()


def _grid_buffers(shape) -> _GridBuffers:
    """The calling thread's scratch set for 2D grids of ``shape``, kept
    between calls so that a 2D step and its solve write into the same
    memory every step; made anew when the shape changes.  Nothing a step or
    a solve returns is one of its arrays or a writable view of one."""
    bufs = getattr(_THREAD, "grid_buffers", None)
    if bufs is None or bufs.faces[0].shape != shape:
        def grids(n):
            return tuple(np.empty(shape) for _ in range(n))

        # rfft2's output shape; the symbol's imaginary part stays 0.
        half = (shape[0], shape[1] // 2 + 1)
        bufs = _GridBuffers(grids(2), grids(6), grids(4),
                            tuple(np.zeros(half, dtype=complex) for _ in range(2)))
        _THREAD.grid_buffers = bufs
    return bufs


def _cg(matvec, precond, work, maxiter):
    """Conjugate gradients for an SPD operator, preconditioned by the SPD
    map ``precond``, for the b held in r of ``work`` = (x, r, p), arrays
    that the iteration writes in place; returns (x, iters).

    ``matvec`` and ``precond`` write into one array of their own, which then
    holds alpha A p and alpha p while r and x are updated.  The stopping
    test is on the unpreconditioned residual, ||b - A x|| <= _CG_RTOL ||b||,
    taken as soon as the residual is updated, so a solve of ``iters``
    iterations calls ``precond`` ``iters`` times; one that has not converged
    in ``maxiter`` is a SolverFailureError.  b is scaled by the power of two
    that puts max|b| in [0.5, 1), and x back: exact, so the iterates and
    their count are those of the unscaled solve wherever its norms stay in
    float range, and no norm leaves it at any scale of b.  A b that is not
    finite is an InstabilityError (it would pass the stopping test).
    """
    x, r, p = work
    bmax = float(np.abs(r, out=x).max())
    if not bmax < math.inf:
        raise InstabilityError(f"CG right-hand side is not finite (max|b| = {bmax})")
    x.fill(0.0)
    if bmax == 0.0:
        return x, 0
    exponent = math.frexp(bmax)[1]
    np.ldexp(r, -exponent, out=r)
    rr = float(np.vdot(r, r))
    bnorm = math.sqrt(rr)
    z = precond(r)
    np.copyto(p, z)
    rz = float(np.vdot(r, z))
    tol2 = (_CG_RTOL * bnorm) ** 2
    it = 0
    while rr > tol2:
        if it >= maxiter:
            raise SolverFailureError(
                f"CG failed to converge in {maxiter} iterations "
                f"(residual {np.sqrt(rr) / bnorm:.3e})"
            )
        if not rz > 0.0:
            # r.M^-1 r is not positive (it underflowed, or M lost
            # definiteness in floating point) while r is not yet small: the
            # next direction would divide by it.
            raise SolverFailureError(
                f"CG breakdown: r.M^-1 r = {rz:.3e} at residual {np.sqrt(rr) / bnorm:.3e}")
        ap = matvec(p)
        pap = float(np.vdot(p, ap))
        if pap <= 0.0 or not np.isfinite(pap):
            raise SolverFailureError("CG breakdown: operator not positive definite")
        alpha = rz / pap
        r -= np.multiply(alpha, ap, out=ap)
        x += np.multiply(alpha, p, out=ap)
        rr = float(np.vdot(r, r))
        it += 1
        if not rr > tol2:
            break
        z = precond(r)
        rz_new = float(np.vdot(r, z))
        p *= rz_new / rz
        p += z
        rz = rz_new
    return np.ldexp(x, exponent, out=x), it


def _fft_preconditioner(stride, coeff: EllipticCoefficients, dx: float, dy: float, out,
                        spectra):
    """Inverse of the stencil's operator with the mobility frozen at its mean.

    That operator is circulant, so rfft2 diagonalizes it with the symbol
    1 + mean(p') (b_x 4 sin^2(pi s k1/m1) + b_y 4 sin^2(pi s k2/m2)), s the
    stride and b_x = beta/(s dx)^2.  In the low-Mach limit p'(rho) is
    constant up to O(eps^2) and the preconditioner is close to exact
    (Strang 1986; T. Chan 1988).  The map writes into ``out``, through
    ``spectra`` = (spectrum, symbol), complex arrays of rfft2's output
    shape.  The inverse symbol sits in the real part of the second (its
    imaginary part is 0): the complex product a real symbol is cast to,
    without numpy's cast buffer.  The inverse transform is irfft2's two
    passes, the ifft over axis 0 in place and the irfft over axis 1.
    """
    m1, m2 = out.shape
    spectrum, symbol = spectra
    b_x = coeff.beta / _square(stride * dx)
    b_y = coeff.beta / _square(stride * dy)
    k1 = np.arange(m1)[:, None]
    k2 = np.arange(m2 // 2 + 1)[None, :]
    mean_mob = float(np.mean(coeff.mobility))
    top = 4.0 * (b_x + b_y)
    if not (top < math.inf and mean_mob * top < math.inf):
        raise InstabilityError(f"preconditioner symbol 1 + {mean_mob:.3g} * {top:.3g} "
                               f"is not finite")
    inv_symbol = symbol.real
    np.add(b_x * 4.0 * np.sin(np.pi * stride * k1 / m1) ** 2,
           b_y * 4.0 * np.sin(np.pi * stride * k2 / m2) ** 2, out=inv_symbol)
    np.multiply(mean_mob, inv_symbol, out=inv_symbol)
    np.add(1.0, inv_symbol, out=inv_symbol)
    np.divide(1.0, inv_symbol, out=inv_symbol)

    def precond(r):
        np.fft.rfft2(r, out=spectrum)
        np.multiply(spectrum, symbol, out=spectrum)
        np.fft.ifft(spectrum, m1, 0, out=spectrum)
        return np.fft.irfft(spectrum, m2, 1, out=out)

    return precond


def solve_elliptic_2d(dphi, coeff: EllipticCoefficients, dx: float, dy: float,
                      stencil: str = "reduced"):
    """Solve the 2D screened-diffusion system on a periodic grid.

    ``stencil`` is "wide" (stride-2 in each direction, requires even cell
    counts) or "reduced" (5-point).  Both run one FFT-preconditioned CG on
    the full grid with the operator of ``apply_elliptic_operator_2d``, for
    the deviation b of dphi from dphi[0, 0] at unit scale, and stop where
    the recursive residual has ||b - A x||_2 <= 1e-13 ||b||_2; a b that is
    not finite is an InstabilityError.  A solve that has not converged in
    m1 m2 iterations, the number of unknowns (CG's exact-arithmetic bound),
    is stagnating: a SolverFailureError.  Returns
    (rho, cg_iterations, residual): rho a new array, and residual
    max|A rho - dphi|, the operator applied again to rho (CG's recursive
    residual can drift from the true one; Greenbaum 1997, section 7.3);
    0.0 where beta = 0, whose operator is the identity.
    """
    dphi = np.asarray(dphi, dtype=float)
    m1, m2 = dphi.shape
    stride = _stride(stencil)
    if stride == 2 and (m1 % 2 != 0 or m2 % 2 != 0):
        raise UnsupportedGridError("wide 2D stencil requires even cell counts")
    if coeff.beta == 0.0:
        return dphi.copy(), 0, 0.0
    bufs = _grid_buffers(dphi.shape)
    x, r, p, w, flux, div = bufs.work
    # Deviation-from-constant solve: exact free-stream preservation.  The
    # right-hand side goes straight into CG's residual.
    shift = dphi.flat[0]
    np.subtract(dphi, shift, out=r)

    faces = _face_coefficients(stride, coeff, (dx, dy), bufs.faces)
    x, iters = _cg(lambda v: _flux_operator(v, stride, faces, w, (flux, div)),
                   _fft_preconditioner(stride, coeff, dx, dy, w, bufs.spectra), (x, r, p),
                   dphi.size)
    rho = x + shift
    resid = _flux_operator(rho, stride, faces, w, (flux, div))
    resid -= dphi
    return rho, iters, float(np.abs(resid, out=resid).max())


def apply_elliptic_operator_2d(stencil: str, rho, coeff: EllipticCoefficients,
                               dx: float, dy: float) -> np.ndarray:
    """Left-hand side rho - beta div(p' grad rho) of the 2D elliptic equation,
    for residual checks; the same operator the solve iterates on."""
    stride = _stride(stencil)
    return _flux_operator(np.asarray(rho, dtype=float), stride,
                          _face_coefficients(stride, coeff, (dx, dy)))
