"""Per-step elliptic solves: manufactured solutions, dense oracles,
constant preservation, Newton behavior, 2D stencils."""

import numpy as np
import pytest

from lowmach import (
    EllipticCoefficients,
    EquationOfState,
    FluidState2D,
    NewtonDivergenceError,
    NumericsError,
    PositivityError,
    SchemeParams,
    SolverFailureError,
    UnsupportedGridError,
    beta_coefficient,
    solve_elliptic_2d,
    solve_elliptic_l_1d,
    solve_elliptic_ld_1d,
    solve_elliptic_nl_1d,
    step_ap_2d,
)
from lowmach.elliptic import apply_elliptic_operator_1d, apply_elliptic_operator_2d
from lowmach.presets import example3_eos, example3_grid, example3_state

EOS2 = EquationOfState(1.0, 2.0)


def dense_matrix_1d(variant, mob, beta, dx, m):
    """Dense assembly of the linear 1D operators (oracle)."""
    a = np.eye(m)
    if variant == "ld":
        b = beta / dx**2
        for j in range(m):
            jp, jm = (j + 1) % m, (j - 1) % m
            a[j, jp] += -b * mob[jp]
            a[j, j] += b * (mob[jp] + mob[j])
            a[j, jm] += -b * mob[j]
    elif variant == "l":
        b4 = beta / (4.0 * dx**2)
        for j in range(m):
            jp, jm = (j + 1) % m, (j - 1) % m
            jp2, jm2 = (j + 2) % m, (j - 2) % m
            a[j, jp2] += -b4 * mob[jp]
            a[j, j] += b4 * (mob[jp] + mob[jm])
            a[j, jm2] += -b4 * mob[jm]
    else:
        raise ValueError(variant)
    return a


def _ones_but(shape, cell, value):
    mobility = np.ones(shape)
    mobility[cell] = value
    return mobility


@pytest.mark.parametrize("mobility, cell", [(np.array([1.0, 1.0, 0.0, 0.0]), 2),
                                           (np.array([1.0, np.inf, 1.0, 1.0]), 1),
                                           (_ones_but(4, 3, np.nan), 3),
                                           (_ones_but(4, 0, -0.0), 0),
                                           (_ones_but(4, 2, -1.0), 2),
                                           (_ones_but((3, 4), (1, 0), np.nan), (1, 0)),
                                           (_ones_but((3, 4), (2, 3), 0.0), (2, 3))])
def test_step_coefficients_name_the_bad_mobility_cell(mobility, cell):
    # Direct construction keeps rejecting bad input as ValueError; inside a
    # step the same mobility is a numerical failure that names the cell.
    with pytest.raises(ValueError):
        EllipticCoefficients(beta=1.0, mobility=mobility)
    with pytest.raises(PositivityError, match="at cell") as err:
        EllipticCoefficients._of_step(1.0, mobility)
    assert err.value.index == cell and f"cell {cell}" in str(err.value)
    with pytest.raises(ValueError):
        EllipticCoefficients._of_step(-1.0, np.ones(4))
    # A beta that left float range (dt^2/eps^2 overflows) fails the step.
    for beta in (np.inf, np.nan):
        with pytest.raises(NumericsError, match="beta"):
            EllipticCoefficients._of_step(beta, np.ones(4))


def test_beta_coefficient():
    assert beta_coefficient(0.1, 1.0, 0.01) == pytest.approx((1 - 0.01) * 1e-4 / 0.01)
    assert beta_coefficient(0.5, 4.0, 0.01) == 0.0  # alpha = 1/eps^2


def test_beta_zero_is_identity():
    rng = np.random.default_rng(0)
    dphi = 1 + 0.2 * rng.random(16)
    coeff = EllipticCoefficients(beta=0.0, mobility=np.ones(16))
    for solver in (solve_elliptic_ld_1d, solve_elliptic_l_1d):
        assert solver(dphi, coeff, 1 / 16)[1] == 0.0
        assert np.array_equal(solver(dphi, coeff, 1 / 16)[0], dphi)
    rho, iters, residual, _ = solve_elliptic_nl_1d(np.ones(16), dphi, coeff, EOS2, 1 / 16)
    assert np.array_equal(rho, dphi) and iters == 1
    assert residual == 0.0


def test_constant_dphi_gives_constant_solution():
    m = 24
    mob = 1.0 + 0.5 * np.random.default_rng(5).random(m)
    coeff = EllipticCoefficients(beta=0.03, mobility=mob)
    dphi = np.full(m, 1.7)
    for solver in (solve_elliptic_ld_1d, solve_elliptic_l_1d):
        out, _ = solver(dphi, coeff, 1 / m)
        assert np.array_equal(out, dphi)
    rho, *_ = solve_elliptic_nl_1d(np.full(m, 1.7), dphi, coeff, EOS2, 1 / m)
    assert np.allclose(rho, 1.7, rtol=0, atol=1e-13)


def test_ld_manufactured_solution():
    m = 64
    x = (np.arange(m) + 0.5) / m
    rho_star = 1 + 0.1 * np.sin(2 * np.pi * x)
    coeff = EllipticCoefficients(beta=0.01, mobility=np.ones(m))
    dphi = apply_elliptic_operator_1d("ld", rho_star, coeff, EOS2, 1 / m)
    out, _ = solve_elliptic_ld_1d(dphi, coeff, 1 / m)
    assert np.max(np.abs(out - rho_star)) <= 1e-10


def test_l_matches_dense_oracle():
    rng = np.random.default_rng(11)
    m = 8
    mob = 0.5 + rng.random(m)
    dphi = 1 + 0.3 * rng.standard_normal(m)
    coeff = EllipticCoefficients(beta=0.02, mobility=mob)
    out, _ = solve_elliptic_l_1d(dphi, coeff, 1 / m)
    oracle = np.linalg.solve(dense_matrix_1d("l", mob, 0.02, 1 / m, m), dphi)
    assert np.max(np.abs(out - oracle)) <= 1e-12


@pytest.mark.parametrize("variant,solver", [("ld", solve_elliptic_ld_1d), ("l", solve_elliptic_l_1d)])
def test_linear_solvers_match_dense_oracle_randomized(variant, solver):
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = int(rng.choice([8, 12, 16, 32, 64]))
        mob = 0.3 + 2.0 * rng.random(m)
        beta = float(10.0 ** rng.uniform(-4, -0.5))
        dphi = 1 + 0.5 * rng.standard_normal(m)
        coeff = EllipticCoefficients(beta=beta, mobility=mob)
        out, _ = solver(dphi, coeff, 1 / m)
        dense = dense_matrix_1d(variant, mob, beta, 1 / m, m)
        oracle = np.linalg.solve(dense, dphi)
        assert np.max(np.abs(out - oracle)) <= 1e-10 * max(1.0, np.max(np.abs(oracle)))
        # The residual check applies the same operator the solve inverts.
        applied = apply_elliptic_operator_1d(variant, dphi, coeff, EOS2, 1 / m)
        assert np.max(np.abs(applied - dense @ dphi)) <= 1e-13 * max(1.0, np.max(np.abs(dense @ dphi)))


def test_l_requires_even_m():
    m = 9
    coeff = EllipticCoefficients(beta=0.01, mobility=np.ones(m))
    with pytest.raises(UnsupportedGridError):
        solve_elliptic_l_1d(np.ones(m), coeff, 1 / m)
    with pytest.raises(UnsupportedGridError):
        solve_elliptic_nl_1d(np.ones(m), np.ones(m), coeff, EOS2, 1 / m)


def test_nl_gamma1_converges_in_one_iteration_and_equals_l():
    eos1 = EquationOfState(1.0, 1.0)
    rng = np.random.default_rng(8)
    m = 32
    rho_n = 0.5 + rng.random(m)
    dphi = 1 + 0.05 * rng.standard_normal(m)
    coeff = EllipticCoefficients(beta=0.02, mobility=eos1.pressure_derivative(rho_n))
    out_nl, iters, *_ = solve_elliptic_nl_1d(rho_n, dphi, coeff, eos1, 1 / m)
    out_l, _ = solve_elliptic_l_1d(dphi, coeff, 1 / m)
    assert iters == 1
    assert np.max(np.abs(out_nl - out_l)) <= 1e-12


def test_nl_manufactured_solution_few_iterations():
    m = 64
    x = (np.arange(m) + 0.5) / m
    rho_star = 1 + 0.1 * np.sin(2 * np.pi * x)
    coeff = EllipticCoefficients(beta=0.01, mobility=EOS2.pressure_derivative(np.ones(m)))
    dphi = apply_elliptic_operator_1d("nl", rho_star, coeff, EOS2, 1 / m)
    out, iters, *_ = solve_elliptic_nl_1d(np.ones(m), dphi, coeff, EOS2, 1 / m)
    assert np.max(np.abs(out - rho_star)) <= 1e-10
    assert iters <= 6


def test_nl_residual_contract():
    rng = np.random.default_rng(13)
    m = 32
    rho_n = 0.8 + 0.4 * rng.random(m)
    dphi = rho_n + 0.02 * rng.standard_normal(m)
    coeff = EllipticCoefficients(beta=0.05, mobility=EOS2.pressure_derivative(rho_n))
    out, *_ = solve_elliptic_nl_1d(rho_n, dphi, coeff, EOS2, 1 / m)
    resid = apply_elliptic_operator_1d("nl", out, coeff, EOS2, 1 / m) - dphi
    assert np.max(np.abs(resid)) <= 1e-11


def test_nl_divergence_reported():
    # An absurd rhs far from any positive solution must not be patched over.
    m = 8
    coeff = EllipticCoefficients(beta=10.0, mobility=np.ones(m))
    dphi = np.array([1e6, -1e6] * 4, dtype=float)
    with pytest.raises((NewtonDivergenceError, PositivityError)):
        solve_elliptic_nl_1d(np.ones(m), dphi, coeff, EOS2, 1 / m, newton_max_iter=4)


def test_ld_reflection_symmetry_constant_mobility():
    # The one-sided mobility placement p'(rho_{j+1}), p'(rho_j) makes the
    # operator commute with index reflection only when the interface
    # mobilities are reflection-symmetric; constant mobility is the case
    # where that holds exactly (see the decisions ledger).
    m = 16
    x = (np.arange(m) + 0.5) / m
    dphi = 1 + 0.1 * np.cos(4 * np.pi * x)
    dphi = np.minimum(dphi, dphi[::-1])  # exactly reflection symmetric
    assert np.array_equal(dphi, dphi[::-1])
    coeff = EllipticCoefficients(beta=0.02, mobility=np.full(m, 1.7))
    out, _ = solve_elliptic_ld_1d(dphi, coeff, 1 / m)
    assert np.max(np.abs(out - out[::-1])) <= 1e-12


def test_ld_one_sided_mobility_maps_to_mirror_operator():
    # Reflecting data and mobility turns the right-biased operator into the
    # left-biased one: solving the reflected system with mobility shifted by
    # one cell reproduces the reflected solution.
    rng = np.random.default_rng(21)
    m = 16
    rho_n = 0.8 + 0.4 * rng.random(m)
    dphi = 1 + 0.1 * rng.standard_normal(m)
    mob = EOS2.pressure_derivative(rho_n)
    coeff = EllipticCoefficients(beta=0.02, mobility=mob)
    out, _ = solve_elliptic_ld_1d(dphi, coeff, 1 / m)
    mirrored = EllipticCoefficients(beta=0.02, mobility=np.roll(mob[::-1], 1))
    out_mirror, _ = solve_elliptic_ld_1d(dphi[::-1], mirrored, 1 / m)
    assert np.max(np.abs(out[::-1] - out_mirror)) <= 1e-11


# ---------------------------------------------------------------------------
# 2D


def dense_matrix_2d(stencil, mob, beta, dx, dy):
    m1, m2 = mob.shape
    n = m1 * m2
    a = np.eye(n)

    def k(i, j):
        return (i % m1) * m2 + (j % m2)

    for i in range(m1):
        for j in range(m2):
            row = k(i, j)
            if stencil == "reduced":
                bx, by = beta / dx**2, beta / dy**2
                a[row, k(i + 1, j)] += -bx * mob[(i + 1) % m1, j]
                a[row, k(i - 1, j)] += -bx * mob[i, j]
                a[row, row] += bx * (mob[(i + 1) % m1, j] + mob[i, j])
                a[row, k(i, j + 1)] += -by * mob[i, (j + 1) % m2]
                a[row, k(i, j - 1)] += -by * mob[i, j]
                a[row, row] += by * (mob[i, (j + 1) % m2] + mob[i, j])
            else:
                bx, by = beta / (4 * dx**2), beta / (4 * dy**2)
                a[row, k(i + 2, j)] += -bx * mob[(i + 1) % m1, j]
                a[row, k(i - 2, j)] += -bx * mob[(i - 1) % m1, j]
                a[row, row] += bx * (mob[(i + 1) % m1, j] + mob[(i - 1) % m1, j])
                a[row, k(i, j + 2)] += -by * mob[i, (j + 1) % m2]
                a[row, k(i, j - 2)] += -by * mob[i, (j - 1) % m2]
                a[row, row] += by * (mob[i, (j + 1) % m2] + mob[i, (j - 1) % m2])
    return a


@pytest.mark.parametrize("stencil", ["wide", "reduced"])
def test_2d_beta_zero_identity_and_constant(stencil):
    rng = np.random.default_rng(3)
    dphi = 1 + 0.1 * rng.random((8, 8))
    out, iters, faces = solve_elliptic_2d(dphi, EllipticCoefficients(0.0, np.ones((8, 8))),
                                          1 / 8, 1 / 8, stencil=stencil)
    assert np.array_equal(out, dphi) and iters == 0 and faces == ()
    const = np.full((8, 8), 2.5)
    out, _, _ = solve_elliptic_2d(const, EllipticCoefficients(0.04, np.ones((8, 8))),
                                  1 / 8, 1 / 8, stencil=stencil)
    assert np.array_equal(out, const)


@pytest.mark.parametrize("stencil", ["wide", "reduced"])
def test_2d_matches_dense_oracle(stencil):
    rng = np.random.default_rng(17)
    for _ in range(10):
        m1, m2 = 8, 8
        mob = 0.5 + rng.random((m1, m2))
        beta = float(10.0 ** rng.uniform(-4, -1))
        dphi = 1 + 0.4 * rng.standard_normal((m1, m2))
        coeff = EllipticCoefficients(beta=beta, mobility=mob)
        out, _, _ = solve_elliptic_2d(dphi, coeff, 1 / m1, 1 / m2, stencil=stencil)
        oracle = np.linalg.solve(dense_matrix_2d(stencil, mob, beta, 1 / m1, 1 / m2), dphi.ravel())
        assert np.max(np.abs(out.ravel() - oracle)) <= 1e-10 * max(1.0, np.max(np.abs(oracle)))


def test_2d_rectangular_grid():
    from lowmach import elliptic

    rng = np.random.default_rng(23)
    m1, m2 = 6, 10
    mob = 0.5 + rng.random((m1, m2))
    dphi = 1 + 0.2 * rng.standard_normal((m1, m2))
    coeff = EllipticCoefficients(beta=0.01, mobility=mob)
    for stencil in ("wide", "reduced"):
        out, _, faces = solve_elliptic_2d(dphi, coeff, 1 / m1, 1 / m2, stencil=stencil)
        applied = apply_elliptic_operator_2d(stencil, out, coeff, 1 / m1, 1 / m2)
        # The faces the solve hands back apply the same operator.
        stride = elliptic._STENCIL_STRIDE[stencil]
        assert np.array_equal(elliptic._flux_operator(out, stride, faces), applied)
        assert np.max(np.abs(applied - dphi)) <= 1e-11 * np.max(np.abs(dphi))


@pytest.mark.parametrize("stencil", ["wide", "reduced"])
def test_2d_solve_scales_a_right_hand_side_whose_norm_overflows(stencil):
    # ||2^1000 dphi||^2 >= 2^2000 overflows: the solve runs on the right-hand
    # side scaled by a power of two, so its solution and iteration count are
    # those of the same system at a small scale.
    rng = np.random.default_rng(41)
    mob = 0.5 + rng.random((8, 8))
    dphi = 1 + 0.4 * rng.standard_normal((8, 8))
    coeff = EllipticCoefficients(beta=0.01, mobility=mob)
    small, iters, _ = solve_elliptic_2d(dphi, coeff, 1 / 8, 1 / 8, stencil=stencil)
    big = np.ldexp(dphi, 1000)
    out, big_iters, _ = solve_elliptic_2d(big, coeff, 1 / 8, 1 / 8, stencil=stencil)
    assert big_iters == iters >= 2 and np.array_equal(out, np.ldexp(small, 1000))


def test_2d_wide_requires_even_cells():
    coeff = EllipticCoefficients(beta=0.01, mobility=np.ones((7, 8)))
    with pytest.raises(UnsupportedGridError):
        solve_elliptic_2d(np.ones((7, 8)), coeff, 1 / 7, 1 / 8, stencil="wide")


def test_2d_solve_checks_its_stencil_at_beta_zero():
    # beta = 0 makes the operator the identity, but the input is checked
    # first, as the 1D solves check their cell count.
    coeff = EllipticCoefficients(0.0, np.ones((5, 5)))
    with pytest.raises(ValueError, match="unknown 2D stencil 'bogus'"):
        solve_elliptic_2d(np.ones((5, 5)), coeff, 0.2, 0.2, stencil="bogus")
    with pytest.raises(UnsupportedGridError):
        solve_elliptic_2d(np.ones((5, 5)), coeff, 0.2, 0.2, stencil="wide")


def test_2d_wide_anisotropic_matches_dense_oracle():
    # m1 != m2 and dx != dy.  With constant mobility the FFT preconditioner
    # is the exact inverse, so one iteration (two, with rounding at large
    # beta) must suffice: a stride-2 symbol with an axis's length or spacing
    # wrong takes many more.
    rng = np.random.default_rng(31)
    m1, m2 = 6, 10
    dx, dy = 0.7 / m1, 1.9 / m2
    for k in range(6):
        constant = k == 0
        mob = np.full((m1, m2), 1.3) if constant else 0.5 + rng.random((m1, m2))
        beta = 1.0 if constant else float(10.0 ** rng.uniform(-3, 0))
        dphi = 1 + 0.4 * rng.standard_normal((m1, m2))
        coeff = EllipticCoefficients(beta=beta, mobility=mob)
        out, iters, _ = solve_elliptic_2d(dphi, coeff, dx, dy, stencil="wide")
        oracle = np.linalg.solve(dense_matrix_2d("wide", mob, beta, dx, dy), dphi.ravel())
        assert np.max(np.abs(out.ravel() - oracle)) <= 1e-10 * max(1.0, np.max(np.abs(oracle)))
        if constant:
            assert iters <= 2


@pytest.mark.parametrize("stencil", ["wide", "reduced"])
def test_2d_low_mach_solve_takes_few_iterations(stencil):
    # example3 at eps = 0.005 on a mesh that does not resolve eps: plain CG
    # needs hundreds of iterations here; the FFT preconditioner a handful.
    eps = 0.005
    grid = example3_grid(64, 64)
    params = SchemeParams(epsilon=eps, alpha=0.0)
    _, report = step_ap_2d(example3_state(grid, eps), example3_eos(), params, stencil,
                           1 / 512, grid.dx, grid.dy)
    assert 1 <= report.linear_iters <= 10


def test_2d_iteration_cap_reports_failure():
    from lowmach import SolverFailureError

    rng = np.random.default_rng(29)
    dphi = 1 + 0.3 * rng.standard_normal((8, 8))
    coeff = EllipticCoefficients(beta=0.5, mobility=0.5 + rng.random((8, 8)))
    with pytest.raises(SolverFailureError):
        solve_elliptic_2d(dphi, coeff, 1 / 8, 1 / 8, stencil="reduced", maxiter=1)


def test_2d_wide_iteration_cap_reports_failure():
    rng = np.random.default_rng(29)
    dphi = 1 + 0.3 * rng.standard_normal((8, 8))
    coeff = EllipticCoefficients(beta=0.5, mobility=0.5 + rng.random((8, 8)))
    with pytest.raises(SolverFailureError):
        solve_elliptic_2d(dphi, coeff, 1 / 8, 1 / 8, stencil="wide", maxiter=1)


@pytest.mark.parametrize("cap", [0, -1, -3])
def test_iteration_cap_below_one_is_a_value_error(cap, monkeypatch):
    # A cap below 1 is the caller's error, raised before any work, and not
    # a numerical failure (NewtonDivergenceError or SolverFailureError).
    from lowmach import elliptic

    def no_work(*args):
        raise AssertionError("the solve started")

    monkeypatch.setattr(elliptic, "_check_newton_iterate", no_work)
    monkeypatch.setattr(elliptic, "_face_coefficients", no_work)
    rng = np.random.default_rng(29)
    m = 16
    coeff = EllipticCoefficients(beta=0.01, mobility=EOS2.pressure_derivative(np.ones(m)))
    with pytest.raises(ValueError, match=f"newton_max_iter must be >= 1, got {cap}") as err:
        solve_elliptic_nl_1d(np.ones(m), 1 + 0.1 * rng.standard_normal(m), coeff, EOS2, 1 / m,
                             newton_max_iter=cap)
    assert not isinstance(err.value, NumericsError)
    coeff = EllipticCoefficients(beta=0.5, mobility=0.5 + rng.random((8, 8)))
    for stencil in ("reduced", "wide"):
        with pytest.raises(ValueError, match=f"maxiter must be >= 1, got {cap}") as err:
            solve_elliptic_2d(1 + 0.3 * rng.standard_normal((8, 8)), coeff, 1 / 8, 1 / 8,
                              stencil=stencil, maxiter=cap)
        assert not isinstance(err.value, NumericsError)


def test_2d_unknown_stencil_rejected():
    coeff = EllipticCoefficients(beta=0.01, mobility=np.ones((8, 8)))
    with pytest.raises(ValueError):
        solve_elliptic_2d(np.ones((8, 8)), coeff, 1 / 8, 1 / 8, stencil="bogus")


def test_2d_cg_vanishing_preconditioned_residual_reports_failure():
    # beta ~ 7e59 (alpha = 1/eps^2 leaves 1 - alpha eps^2 at round-off):
    # the FFT preconditioner scales the residual by ~1e-60 and r.M^-1 r
    # underflows to 0 while r is still large.  That is a solver failure,
    # not a division by zero.
    rng = np.random.default_rng(1)
    rho = 10 ** rng.uniform(-1, 1, (4, 4))
    state = FluidState2D(rho=rho, q1=rng.uniform(-3, 3, (4, 4)), q2=rng.uniform(-3, 3, (4, 4)))
    eps = 1.248098483599828e-38
    params = SchemeParams(epsilon=eps, alpha=1 / eps**2)
    with pytest.raises(SolverFailureError, match="breakdown"):
        step_ap_2d(state, EquationOfState(1.0, 1.125), params, "reduced", 1.0, 0.25, 0.25)


def test_2d_stagnating_solve_fails_within_the_unknown_count(monkeypatch):
    # beta = 1e40 on a 10 x 10 wide stencil with mobility spread over two
    # decades: CG stagnates near residual 1.  The default cap is m1 m2, the
    # exact-arithmetic bound of CG; an explicit maxiter still sets the cap.
    from lowmach import elliptic

    rng = np.random.default_rng(0)
    mob = 10 ** rng.uniform(-1, 1, (10, 10))
    dphi = 1 + rng.random((10, 10))
    coeff = EllipticCoefficients(beta=1e40, mobility=mob)
    applied = []
    operator = elliptic._flux_operator

    def counting(*args):
        applied.append(args)
        return operator(*args)

    monkeypatch.setattr(elliptic, "_flux_operator", counting)
    with pytest.raises(SolverFailureError, match="in 100 iterations"):
        solve_elliptic_2d(dphi, coeff, 0.1, 0.1, stencil="wide")
    assert len(applied) == 100
    applied.clear()
    with pytest.raises(SolverFailureError, match="in 300 iterations"):
        solve_elliptic_2d(dphi, coeff, 0.1, 0.1, stencil="wide", maxiter=300)
    assert len(applied) == 300


@pytest.mark.parametrize("stencil", ["wide", "reduced"])
def test_2d_solve_preconditions_each_iteration_once(stencil, monkeypatch):
    # CG tests the residual right after updating it, so the converged
    # residual is never preconditioned: n iterations apply the
    # preconditioner n times (not n + 1).
    from lowmach import elliptic

    rng = np.random.default_rng(3)
    coeff = EllipticCoefficients(beta=0.05, mobility=0.5 + rng.random((16, 16)))
    dphi = 1 + 0.3 * rng.standard_normal((16, 16))
    build = elliptic._fft_preconditioner
    calls = []

    def counting_build(*args):
        precond = build(*args)

        def counting(r):
            calls.append(1)
            return precond(r)

        return counting

    monkeypatch.setattr(elliptic, "_fft_preconditioner", counting_build)
    _, iters, _ = solve_elliptic_2d(dphi, coeff, 1 / 16, 1 / 16, stencil=stencil)
    assert iters >= 2 and len(calls) == iters


@pytest.mark.parametrize("eps, stencil, expected", [
    (0.8, "reduced", [9, 9, 8, 8]),
    (0.8, "wide", [7, 7, 7, 7]),
    (0.005, "reduced", [3, 2, 2, 2]),
    (0.005, "wide", [3, 2, 2, 2]),
])
def test_2d_cg_iteration_counts_are_pinned(eps, stencil, expected):
    # example3 at 32^2, four steps: skipping the preconditioner on the
    # converged residual leaves every solve's iteration count as it was.
    grid = example3_grid(32, 32)
    state = example3_state(grid, eps)
    params = SchemeParams(epsilon=eps, alpha=1.0)
    iters = []
    for _ in range(4):
        state, report = step_ap_2d(state, example3_eos(), params, stencil, 0.25 * grid.dx,
                                   grid.dx, grid.dy)
        iters.append(report.linear_iters)
    assert iters == expected


@pytest.mark.parametrize("stencil", ["wide", "reduced"])
def test_2d_cg_stops_at_its_relative_residual_bound(stencil):
    # CG stops at the first iterate whose residual has ||b - A x||_2 <=
    # 1e-13 ||b||_2, for b the deviation of dphi from dphi[0, 0]: the solve
    # meets that bound, and one iteration fewer is still above it.
    rng = np.random.default_rng(31)
    m = 16
    dphi = 1 + 0.2 * rng.standard_normal((m, m))
    coeff = EllipticCoefficients(beta=0.01, mobility=0.5 + rng.random((m, m)))
    out, iters, _ = solve_elliptic_2d(dphi, coeff, 1 / m, 1 / m, stencil=stencil)
    b_norm = np.linalg.norm(dphi - dphi[0, 0])
    residual = dphi - apply_elliptic_operator_2d(stencil, out, coeff, 1 / m, 1 / m)
    assert np.linalg.norm(residual) <= 1e-13 * b_norm
    assert iters >= 2
    with pytest.raises(SolverFailureError, match=f"in {iters - 1} iterations") as err:
        solve_elliptic_2d(dphi, coeff, 1 / m, 1 / m, stencil=stencil, maxiter=iters - 1)
    assert float(str(err.value).split("residual ")[1].rstrip(")")) > 1e-13
