"""Per-step elliptic solves: every solve against the reference in
``oracle.py`` on hypothesis-drawn input (the 1D solves bit for bit and
against dense solves, the 2D solves against dense solves), manufactured
solutions, constant preservation, Newton behavior, 2D stencils."""

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import oracle
from lowmach import (
    EllipticCoefficients,
    EquationOfState,
    FluidState2D,
    InstabilityError,
    NewtonDivergenceError,
    NumericsError,
    PositivityError,
    SchemeParams,
    SingularSystemError,
    SolverFailureError,
    UnsupportedGridError,
    beta_coefficient,
    solve_elliptic_2d,
    solve_elliptic_l_1d,
    solve_elliptic_ld_1d,
    solve_elliptic_nl_1d,
    step_ap_2d,
)
from lowmach.elliptic import _flux_operator, apply_elliptic_operator_1d, apply_elliptic_operator_2d
from lowmach.presets import example3_eos, example3_grid, example3_state

EOS2 = EquationOfState(1.0, 2.0)


SOLVE_SETTINGS = settings(max_examples=20, derandomize=True, database=None, deadline=None)


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


@pytest.mark.parametrize("variant,solver", [("ld", solve_elliptic_ld_1d), ("l", solve_elliptic_l_1d)])
@SOLVE_SETTINGS
@given(m=st.integers(3, 32).map(lambda k: 2 * k), seed=st.integers(0, 2**32 - 1),
       log_beta=st.floats(-4.0, -0.5))
def test_linear_solvers_match_dense_oracle_randomized(variant, solver, m, seed, log_beta):
    # The reference's residue-class solves bit for bit, residual included,
    # and the dense solve within 1e-10; the operator the residual check
    # applies is the dense one within 1e-13.  (The steps' draws reach
    # beta = 0.)
    rng = np.random.default_rng(seed)
    mob = 0.3 + 2.0 * rng.random(m)
    beta = 10.0**log_beta
    dphi = 1 + 0.5 * rng.standard_normal(m)
    coeff = EllipticCoefficients(beta=beta, mobility=mob)
    stride = oracle.STRIDE[variant]
    out, residual = solver(dphi, coeff, 1 / m)
    expected, expected_residual = oracle.linear_solve_1d(dphi, mob, beta, 1 / m, stride)
    assert np.array_equal(out, expected) and residual == expected_residual
    dense = oracle.dense_operator(mob, beta, (1 / m,), stride)
    exact = np.linalg.solve(dense, dphi)
    assert np.max(np.abs(out - exact)) <= 1e-10 * max(1.0, np.max(np.abs(exact)))
    applied = apply_elliptic_operator_1d(variant, dphi, coeff, EOS2, 1 / m)
    assert np.max(np.abs(applied - dense @ dphi)) <= 1e-13 * max(1.0, np.max(np.abs(dense @ dphi)))


# beta = 10: G's round-off exceeds the G test; Newton stops on its increment.
@example(m=32, seed=0, gamma=2.0, log_beta=1.0)
@SOLVE_SETTINGS
@given(m=st.integers(3, 32).map(lambda k: 2 * k), seed=st.integers(0, 2**32 - 1),
       gamma=st.sampled_from([1.0, 1.4, 2.0, 3.0]),
       log_beta=st.floats(-4.0, 0.0))
def test_nl_solve_matches_oracle(m, seed, gamma, log_beta):
    # The reference's Newton loop bit for bit: the solution, the iteration
    # count, max|G| and p on the two-cell periodic extension; lambda
    # U(0.5, 2), rho^n U(0.5, 1.5) and dphi rho^n + 0.05 N(0, 1) from seed.
    rng = np.random.default_rng(seed)
    eos = EquationOfState(rng.uniform(0.5, 2.0), gamma)
    rho_n = rng.uniform(0.5, 1.5, m)
    dphi = rho_n + 0.05 * rng.standard_normal(m)
    beta = 10.0**log_beta
    coeff = EllipticCoefficients(beta=beta, mobility=eos.pressure_derivative(rho_n))
    try:
        expected, iterations, residual, _ = oracle.newton_solve(rho_n, dphi, beta, eos, 1 / m)
    except SingularSystemError:
        reject()
    rho, iters, resid, pressure = solve_elliptic_nl_1d(rho_n, dphi, coeff, eos, 1 / m)
    assert np.array_equal(rho, expected) and (iters, resid) == (iterations, residual)
    assert np.array_equal(pressure, np.pad(eos.pressure(rho), 2, mode="wrap"))


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


def test_nl_divergence_reported(monkeypatch):
    # An absurd rhs far from any positive solution must not be patched over.
    from lowmach import elliptic

    monkeypatch.setattr(elliptic, "_NEWTON_MAX_ITER", 4)
    m = 8
    coeff = EllipticCoefficients(beta=10.0, mobility=np.ones(m))
    dphi = np.array([1e6, -1e6] * 4, dtype=float)
    with pytest.raises((NewtonDivergenceError, PositivityError)):
        solve_elliptic_nl_1d(np.ones(m), dphi, coeff, EOS2, 1 / m)


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


@pytest.mark.parametrize("stencil", ["wide", "reduced"])
def test_2d_beta_zero_identity_and_constant(stencil):
    rng = np.random.default_rng(3)
    dphi = 1 + 0.1 * rng.random((8, 8))
    out, iters, residual = solve_elliptic_2d(dphi, EllipticCoefficients(0.0, np.ones((8, 8))),
                                             1 / 8, 1 / 8, stencil=stencil)
    assert np.array_equal(out, dphi) and iters == 0 and residual == 0.0
    const = np.full((8, 8), 2.5)
    out, _, _ = solve_elliptic_2d(const, EllipticCoefficients(0.04, np.ones((8, 8))),
                                  1 / 8, 1 / 8, stencil=stencil)
    assert np.array_equal(out, const)


# Grids with m1 != m2 (the wide stencil takes even counts).
SHAPES = [(4, 6), (6, 4), (4, 10), (8, 6), (6, 10), (10, 8)]


_KERNEL_SHAPES = [(8,), (2,), (6, 4), (2, 6), (4, 2), (10, 8), (1, 6)]


@pytest.mark.parametrize("shape, stride", [(shape, s) for s in (1, 2) for shape in _KERNEL_SHAPES
                                           if not any(n % s for n in shape)])
def test_flux_form_kernels_equal_np_roll_formulas(shape, stride):
    # The face coefficients and the operator write from slices of flat
    # rows, into new arrays or into given ones (filled with NaN here, so
    # that a cell left unwritten shows); the reference's np.roll formulas
    # are their floats, bit for bit, along every axis, also where the
    # length equals the stride.
    from lowmach import elliptic

    rng = np.random.default_rng(len(shape) * 100 + shape[-1] * 10 + stride)
    spacings = tuple(rng.uniform(0.05, 0.3, len(shape)))
    for _ in range(5):
        coeff = EllipticCoefficients(float(10.0 ** rng.uniform(-4, 0)), 0.5 + rng.random(shape))
        rho = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
        faces = oracle.face_coefficients(coeff.mobility, coeff.beta, spacings, stride)
        expected = oracle.flux_form(rho, faces, stride)
        dirty = [np.full(shape, np.nan) for _ in range(5)]
        for built in (elliptic._face_coefficients(stride, coeff, spacings),
                      elliptic._face_coefficients(stride, coeff, spacings, tuple(dirty[:len(shape)]))):
            assert all(np.array_equal(f, want) for f, want in zip(built, faces))
        assert np.array_equal(_flux_operator(rho, stride, faces), expected)
        out = _flux_operator(rho, stride, faces, dirty[2], (dirty[3], dirty[4]))
        assert out is dirty[2] and np.array_equal(out, expected)


@pytest.mark.parametrize("stencil", ["wide", "reduced"])
@SOLVE_SETTINGS
@given(shape=st.sampled_from(SHAPES), seed=st.integers(0, 2**32 - 1),
       log_beta=st.floats(-4.0, -1.0))
def test_2d_matches_dense_oracle(stencil, shape, seed, log_beta):
    # dx != dy, U(0.05, 0.3) each from seed: the dense solve within 1e-10;
    # the residual the solve returns is that of the public operator applied
    # to its solution, to the bit, and that operator the dense one within
    # 1e-13.
    rng = np.random.default_rng(seed)
    mob = 0.5 + rng.random(shape)
    dphi = 1 + 0.4 * rng.standard_normal(shape)
    spacings = tuple(rng.uniform(0.05, 0.3, 2))
    beta = 10.0**log_beta
    coeff = EllipticCoefficients(beta=beta, mobility=mob)
    out, _, residual = solve_elliptic_2d(dphi, coeff, *spacings, stencil=stencil)
    dense = oracle.dense_operator(mob, beta, spacings, oracle.STRIDE[stencil])
    exact = np.linalg.solve(dense, dphi.ravel()).reshape(shape)
    assert np.max(np.abs(out - exact)) <= 1e-10 * max(1.0, np.max(np.abs(exact)))
    applied = apply_elliptic_operator_2d(stencil, out, coeff, *spacings)
    assert residual == np.max(np.abs(applied - dphi))
    assert np.max(np.abs(applied.ravel() - dense @ out.ravel())) <= 1e-13 * np.max(np.abs(applied))


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


@pytest.mark.parametrize("stencil", ["wide", "reduced"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_2d_non_finite_right_hand_side_is_instability(stencil, value):
    # A NaN or infinite squared norm would pass CG's stopping test at once
    # and return a density made up from dphi[0, 0]; it is a numerical
    # failure, as in the 1D solves.
    dphi = np.ones((8, 8))
    dphi[3, 4] = value
    with pytest.raises(InstabilityError, match="right-hand side is not finite"):
        solve_elliptic_2d(dphi, EllipticCoefficients(0.01, np.ones((8, 8))), 1 / 8, 1 / 8,
                          stencil=stencil)


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
        dense = oracle.dense_operator(mob, beta, (dx, dy), oracle.STRIDE["wide"])
        exact = np.linalg.solve(dense, dphi.ravel()).reshape(m1, m2)
        assert np.max(np.abs(out - exact)) <= 1e-10 * max(1.0, np.max(np.abs(exact)))
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


def _cap_cg(monkeypatch, cap):
    """Give every 2D solve's CG the iteration cap ``cap`` in place of the
    number of unknowns."""
    from lowmach import elliptic

    cg = elliptic._cg
    monkeypatch.setattr(elliptic, "_cg",
                        lambda matvec, precond, work, maxiter: cg(matvec, precond, work, cap))


def test_2d_iteration_cap_reports_failure(monkeypatch):
    from lowmach import SolverFailureError

    _cap_cg(monkeypatch, 1)
    rng = np.random.default_rng(29)
    dphi = 1 + 0.3 * rng.standard_normal((8, 8))
    coeff = EllipticCoefficients(beta=0.5, mobility=0.5 + rng.random((8, 8)))
    with pytest.raises(SolverFailureError):
        solve_elliptic_2d(dphi, coeff, 1 / 8, 1 / 8, stencil="reduced")


def test_2d_wide_iteration_cap_reports_failure(monkeypatch):
    _cap_cg(monkeypatch, 1)
    rng = np.random.default_rng(29)
    dphi = 1 + 0.3 * rng.standard_normal((8, 8))
    coeff = EllipticCoefficients(beta=0.5, mobility=0.5 + rng.random((8, 8)))
    with pytest.raises(SolverFailureError):
        solve_elliptic_2d(dphi, coeff, 1 / 8, 1 / 8, stencil="wide")


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
    # decades: CG stagnates near residual 1.  The cap is m1 m2, the
    # exact-arithmetic bound of CG, and CG stops at the cap it is given.
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
    _cap_cg(monkeypatch, 300)
    with pytest.raises(SolverFailureError, match="in 300 iterations"):
        solve_elliptic_2d(dphi, coeff, 0.1, 0.1, stencil="wide")
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
def test_2d_cg_stops_at_its_relative_residual_bound(stencil, monkeypatch):
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
    _cap_cg(monkeypatch, iters - 1)
    with pytest.raises(SolverFailureError, match=f"in {iters - 1} iterations") as err:
        solve_elliptic_2d(dphi, coeff, 1 / m, 1 / m, stencil=stencil)
    assert float(str(err.value).split("residual ")[1].rstrip(")")) > 1e-13
