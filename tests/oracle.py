"""The reference implementation the tests compare lowmach with.

Every scheme and every solve of the package, written again from the
paper's formulas: neighbours are ``np.roll`` shifts of whole fields, and an
elliptic operator is a dense matrix (:func:`dense_operator`) that
``np.linalg.solve`` inverts.  Interface values F_{j+1/2} sit at index j.

Import rule (checked by ``test_oracle.py``): this module may import from
lowmach, with ``from lowmach import``, only ``EquationOfState``,
``FluidState1D``, ``FluidState2D``, ``SchemeParams``, ``StepReport`` and
``solve_periodic_tridiagonal``, and it names nothing private.  The 1D steps
and the Newton solve go through ``solve_periodic_tridiagonal`` one residue
class at a time, with the operations of the formulas in the order the
package evaluates them, so that they reproduce the package's floats bit for
bit; that solve is checked against :func:`dense_tridiagonal`.  The 2D step
solves its dense operator and is compared within a tolerance.
"""

import numpy as np

from lowmach import (FluidState1D, FluidState2D, SchemeParams, StepReport,
                     solve_periodic_tridiagonal)

# Neighbour distance of each 1D variant's and each 2D stencil's operator.
STRIDE = {"ld": 1, "l": 2, "nl": 2, "reduced": 1, "wide": 2}

# Newton stops where max|delta| or max|G| / max(1, max|dphi|) is at most this.
NEWTON_TOL = 1e-12


def beta(params: SchemeParams, dt):
    """(1 - alpha eps^2) dt^2 / eps^2, the elliptic coefficient of an AP step."""
    eps = params.epsilon
    return max(1.0 - params.alpha * eps**2, 0.0) * dt**2 / eps**2


def pressure_factor(params: SchemeParams):
    """(1 - alpha eps^2) / eps^2, the implicit share of the pressure gradient."""
    eps = params.epsilon
    return (1.0 - params.alpha * eps**2) / eps**2


# ---------------------------------------------------------------------------
# Cyclic tridiagonal systems and the 1D elliptic solves


def tridiagonal_rows(sub, diag, sup, x):
    """sub_i x_{i-1} + diag_i x_i + sup_i x_{i+1}, indices modulo N."""
    return sub * np.roll(x, 1) + diag * x + sup * np.roll(x, -1)


def dense_tridiagonal(sub, diag, sup):
    """The matrix of :func:`tridiagonal_rows`."""
    east = shift_matrix(diag.shape, 1, 0)
    return sub[:, None] * east.T + np.diag(diag) + sup[:, None] * east


def strided_solve(sub, diag, sup, rhs, stride):
    """Rows sub_i x_{i-s} + diag_i x_i + sup_i x_{i+s} = rhs_i: one cyclic
    system per residue class mod s.  Returns (x, the largest residual)."""
    x = np.empty_like(rhs)
    residual = 0.0
    for k in range(stride):
        x[k::stride], r = solve_periodic_tridiagonal(sub[k::stride], diag[k::stride],
                                                     sup[k::stride], rhs[k::stride])
        residual = max(residual, r)
    return x, residual


def linear_solve_1d(dphi, mobility, beta, dx, stride):
    """rho - beta div(p' grad rho) = dphi on the stride-s flux form, face_i =
    beta/(s dx)^2 p'_{i+1}, solved for the deviation from dphi[0]; returns
    (rho, residual)."""
    if beta == 0.0:
        return dphi.copy(), 0.0
    face = beta / (stride * dx)**2 * np.roll(mobility, -1)
    west = np.roll(face, stride)
    x, residual = strided_solve(-west, 1.0 + face + west, -face, dphi - dphi[0], stride)
    return x + dphi[0], residual


def nl_residual(rho, dphi, beta, eos, dx):
    """G(rho) = rho - beta (p_{j+2} - 2 p_j + p_{j-2}) / (4 dx^2) - dphi, the
    second difference taken as p_{j+2}/2 - p_j + p_{j-2}/2 over 2 dx^2."""
    p = eos.pressure(rho)
    second = 0.5 * np.roll(p, -2) - p + 0.5 * np.roll(p, 2)
    return rho - beta * (second / (2.0 * dx**2)) - dphi


def newton_solve(rho_n, dphi, beta, eos, dx, max_iter=50):
    """Newton on G(rho) = 0 from rho_n with the exact Jacobian I - b4 S2
    diag(p'), b4 = beta / (4 dx^2); rho = dphi where beta = 0.  Returns
    (rho, iterations, max|G(rho)|, every iterate from the first)."""
    if beta == 0.0:
        rho = dphi.copy()
        return rho, 1, float(np.abs(nl_residual(rho, dphi, beta, eos, dx)).max()), [rho]
    b4 = beta / (4.0 * dx**2)
    scale = max(1.0, float(np.abs(dphi).max()))
    rho = rho_n
    iterates = [rho]
    g = nl_residual(rho, dphi, beta, eos, dx)
    for iteration in range(1, max_iter + 1):
        dp = eos.pressure_derivative(rho)
        delta = strided_solve(-b4 * np.roll(dp, 2), 1.0 + 2.0 * b4 * dp,
                              -b4 * np.roll(dp, -2), -g, 2)[0]
        rho = rho + delta
        iterates.append(rho)
        g = nl_residual(rho, dphi, beta, eos, dx)
        residual = float(np.abs(g).max())
        if np.abs(delta).max() <= NEWTON_TOL or residual <= NEWTON_TOL * scale:
            return rho, iteration, residual, iterates
    raise AssertionError(f"Newton did not converge in {max_iter} iterations")


# ---------------------------------------------------------------------------
# 1D steps


def llf_fluxes(rho, q, sound, pressure_flux):
    """LLF fluxes (f1, f2) at j+1/2 and the cell speeds |u| + sound, with
    A_{j+1/2} the larger cell speed and g = q u + pressure_flux."""
    u = q / rho
    speed = np.abs(u) + sound
    half_a = 0.5 * np.maximum(speed, np.roll(speed, -1))
    g = q * u + pressure_flux
    f1 = 0.5 * (q + np.roll(q, -1)) - half_a * (np.roll(rho, -1) - rho)
    f2 = (0.5 * g + 0.5 * np.roll(g, -1)) - half_a * (np.roll(q, -1) - q)
    return f1, f2, speed


def difference(f):
    """f_{j+1/2} - f_{j-1/2}."""
    return f - np.roll(f, 1)


def centered(v):
    """v_{j+1} - v_{j-1}."""
    return np.roll(v, -1) - np.roll(v, 1)


def report_1d(rho, q, speed, dx, residual, newton_iters=0):
    return StepReport(max_wave_speed=float(speed.max()), mass_total=float(rho.sum() * dx),
                      momentum_total=float(q.sum() * dx), consistency_residual=residual,
                      newton_iters=newton_iters, linear_iters=0)


def ap_rhs_1d(state: FluidState1D, eos, params, dt, dx):
    """(dphi, Df2, cell speeds, p'(rho^n)) of the semi-implicit step:
    dphi = rho - dt/dx (f1_{j+1/2} - f1_{j-1/2}) + dt^2/(2 dx) (Df2_{j+1} -
    Df2_{j-1}), with Df2 = (f2_{j+1/2} - f2_{j-1/2}) / dx and the LLF
    fluxes of sound speed sqrt(alpha p') and pressure flux alpha p."""
    rho, q, alpha = state.rho, state.q, params.alpha
    dp = eos.pressure_derivative(rho)
    f1, f2, speed = llf_fluxes(rho, q, np.sqrt(alpha * dp), alpha * eos.pressure(rho))
    df2 = difference(f2) / dx
    return rho - dt / dx * difference(f1) + dt**2 / (2.0 * dx) * centered(df2), df2, speed, dp


def ap_step_1d(state: FluidState1D, eos, params, variant, dt, dx):
    """The semi-implicit step: the elliptic solve of the variant for the new
    density, then the momentum with the implicit pressure gradient."""
    dphi, df2, speed, dp = ap_rhs_1d(state, eos, params, dt, dx)
    if variant == "nl":
        rho, iterations, residual = newton_solve(state.rho, dphi, beta(params, dt), eos, dx)[:3]
    else:
        iterations = 0
        rho, residual = linear_solve_1d(dphi, dp, beta(params, dt), dx, STRIDE[variant])
    q = (state.q - dt * df2
         - pressure_factor(params) * (dt / (2.0 * dx)) * centered(eos.pressure(rho)))
    return FluidState1D(rho=rho, q=q), report_1d(rho, q, speed, dx, residual, iterations)


def explicit_llf_step_1d(state: FluidState1D, eos, params, dt, dx):
    """Explicit LLF for the unsplit system: sound speed sqrt(p')/eps and
    pressure flux p/eps^2."""
    rho, q, eps = state.rho, state.q, params.epsilon
    f1, f2, speed = llf_fluxes(rho, q, np.sqrt(eos.pressure_derivative(rho)) / eps,
                               eos.pressure(rho) / eps**2)
    rho_new = rho - dt / dx * difference(f1)
    q_new = q - dt / dx * difference(f2)
    return FluidState1D(rho=rho_new, q=q_new), report_1d(rho_new, q_new, speed, dx, 0.0)


def ice_step_1d(state: FluidState1D, eos, params, dt, dx):
    """Pressureless LLF predictor, then rho - dt^2/eps^2 (p'(rho^n) rho_x)_x
    = rho* on the three-point flux form and q = q* - dt/eps^2 p(rho)_x."""
    rho, q, eps = state.rho, state.q, params.epsilon
    f1, f2, speed = llf_fluxes(rho, q, 0.0, 0.0)
    rho_star = rho - dt / dx * difference(f1)
    q_star = q - dt / dx * difference(f2)
    rho_new, residual = linear_solve_1d(rho_star, eos.pressure_derivative(rho), dt**2 / eps**2,
                                        dx, 1)
    q_new = q_star - dt / eps**2 * centered(eos.pressure(rho_new)) / (2.0 * dx)
    return FluidState1D(rho=rho_new, q=q_new), report_1d(rho_new, q_new, speed, dx, residual)


# ---------------------------------------------------------------------------
# Dense flux-form operators and the 2D step


def shift_matrix(shape, s, axis):
    """S with (S v)_i = v_{i+s} along ``axis`` of a field of ``shape``,
    indices modulo the length, on the row-major flattened field."""
    n = int(np.prod(shape))
    return np.roll(np.eye(n).reshape(*shape, n), -s, axis).reshape(n, n)


def face_coefficients(mobility, beta, spacings, stride):
    """face_i = beta/(s h)^2 p'_{i+1} along each axis, h its spacing."""
    return tuple(beta / (stride * h)**2 * np.roll(mobility, -1, axis)
                 for axis, h in enumerate(spacings))


def flux_form(rho, faces, stride):
    """rho - beta div(p' grad rho) in flux form, applied: along each axis the
    flux F = face (rho_{+s} - rho), and rho loses F - F_{-s}."""
    out = rho.copy()
    for axis, face in enumerate(faces):
        flux = face * (np.roll(rho, -stride, axis) - rho)
        out -= flux - np.roll(flux, stride, axis)
    return out


def dense_operator(mobility, beta, spacings, stride):
    """rho - beta div(p' grad rho) in flux form as a matrix: I + sum over the
    axes of (I - S)^T diag(face) (I - S), S the stride-s shift along the axis
    and face its :func:`face_coefficients`."""
    n = mobility.size
    a = np.eye(n)
    for axis, face in enumerate(face_coefficients(mobility, beta, spacings, stride)):
        jump = np.eye(n) - shift_matrix(mobility.shape, stride, axis)
        a += jump.T @ (face.reshape(n, 1) * jump)
    return a


def centered_2d(v, h, axis):
    """(v_{+1} - v_{-1}) / 2h along ``axis``."""
    return (np.roll(v, -1, axis) - np.roll(v, 1, axis)) / (2.0 * h)


def dissipation_2d(v, a, h, axis):
    """(a_{-1/2} (v - v_{-1}) - a_{+1/2} (v_{+1} - v)) / 2h along ``axis``,
    a[i] the speed at i+1/2: minus the LLF diffusion of v."""
    flux = a * ((np.roll(v, -1, axis) - v) / h)
    return 0.5 * (np.roll(flux, 1, axis) - flux)


def speeds_2d(state: FluidState2D, eos, alpha):
    """(cell speeds max(|u1|, |u2|) + sqrt(alpha p'), (a_x, a_y)), a_x at
    (i+1/2, j) and a_y at (i, j+1/2) the larger speed of the two cells."""
    speed = (np.maximum(np.abs(state.q1 / state.rho), np.abs(state.q2 / state.rho))
             + np.sqrt(alpha * eos.pressure_derivative(state.rho)))
    return speed, tuple(np.maximum(speed, np.roll(speed, -1, axis)) for axis in (0, 1))


def ap_rhs_2d(state: FluidState2D, eos, params, dt, dx, dy):
    """(dphi, (e1, e2), cell speeds): e_k = div(row k of the momentum flux
    (rho u1^2 + alpha p, rho u1 u2; rho u1 u2, rho u2^2 + alpha p)) plus both
    dissipations of q_k, and dphi = rho - dt (div q + dissipation of rho) +
    dt^2 div(e1, e2), the density row after the new-time momenta are
    eliminated from it."""
    rho, q1, q2, alpha = state.rho, state.q1, state.q2, params.alpha
    speed, (a_x, a_y) = speeds_2d(state, eos, alpha)
    u1, u2 = q1 / rho, q2 / rho
    p = eos.pressure(rho)
    w = rho * u1 * u2

    def ddx(v):
        return centered_2d(v, dx, 0)

    def ddy(v):
        return centered_2d(v, dy, 1)

    def diss(v):
        return dissipation_2d(v, a_x, dx, 0) + dissipation_2d(v, a_y, dy, 1)

    e1 = ddx(rho * u1 * u1 + alpha * p) + ddy(w) + diss(q1)
    e2 = ddx(w) + ddy(rho * u2 * u2 + alpha * p) + diss(q2)
    dphi = rho - dt * (ddx(q1) + ddy(q2) + diss(rho)) + dt**2 * (ddx(e1) + ddy(e2))
    return dphi, (e1, e2), speed


def ap_step_2d(state: FluidState2D, eos, params, stencil, dt, dx, dy):
    """The 2D semi-implicit step with the stencil's dense operator solved
    exactly; the report's residual is that of the dense solve."""
    dphi, e, speed = ap_rhs_2d(state, eos, params, dt, dx, dy)
    b = beta(params, dt)
    spacings = (dx, dy)
    a = dense_operator(eos.pressure_derivative(state.rho), b, spacings, STRIDE[stencil])
    rho = np.linalg.solve(a, dphi.ravel()).reshape(dphi.shape)
    p = eos.pressure(rho)
    c = pressure_factor(params)
    q1, q2 = (qk - dt * (ek + c * centered_2d(p, spacings[axis], axis))
              for axis, (qk, ek) in enumerate(zip((state.q1, state.q2), e)))
    cell = dx * dy
    report = StepReport(max_wave_speed=float(speed.max()), mass_total=float(rho.sum() * cell),
                        momentum_total=float(q1.sum() * cell),
                        consistency_residual=float(np.abs(a @ rho.ravel() - dphi.ravel()).max()),
                        newton_iters=0, linear_iters=0, momentum2_total=float(q2.sum() * cell))
    return FluidState2D(rho=rho, q1=q1, q2=q2), report
