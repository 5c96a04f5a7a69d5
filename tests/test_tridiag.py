"""Cyclic tridiagonal kernel against a dense Gaussian-elimination oracle."""

import numpy as np
import pytest

from lowmach import PeriodicTridiagonalSystem, SingularSystemError, solve_periodic_tridiagonal


def random_dominant_system(rng, n):
    sub = rng.uniform(-1.0, 1.0, n)
    sup = rng.uniform(-1.0, 1.0, n)
    diag = np.abs(sub) + np.abs(sup) + rng.uniform(0.5, 2.0, n)
    diag *= rng.choice([-1.0, 1.0], n)
    rhs = rng.standard_normal(n)
    return PeriodicTridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs)


def test_identity_system():
    rhs = np.array([3.0, -1.0, 2.0, 0.5])
    sys = PeriodicTridiagonalSystem(sub=np.zeros(4), diag=np.ones(4), sup=np.zeros(4), rhs=rhs)
    assert np.allclose(solve_periodic_tridiagonal(sys)[0], rhs, rtol=0, atol=1e-14)


def test_matches_dense_oracle_n6():
    rng = np.random.default_rng(42)
    sys = random_dominant_system(rng, 6)
    x, _ = solve_periodic_tridiagonal(sys)
    x_dense = np.linalg.solve(sys.dense(), sys.rhs)
    assert np.max(np.abs(x - x_dense)) <= 1e-12 * max(1.0, np.max(np.abs(x_dense)))


@pytest.mark.parametrize("n", [3, 4, 5, 8, 17, 64])
def test_matches_dense_oracle_sizes(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        sys = random_dominant_system(rng, n)
        x, _ = solve_periodic_tridiagonal(sys)
        x_dense = np.linalg.solve(sys.dense(), sys.rhs)
        assert np.max(np.abs(x - x_dense)) <= 1e-11 * max(1.0, np.max(np.abs(x_dense)))


def test_periodic_laplacian_is_singular():
    n = 8
    sys = PeriodicTridiagonalSystem(
        sub=np.full(n, -1.0), diag=np.full(n, 2.0), sup=np.full(n, -1.0), rhs=np.zeros(n)
    )
    with pytest.raises(SingularSystemError):
        solve_periodic_tridiagonal(sys)


def test_singular_detected_with_nonzero_rhs():
    n = 8
    sys = PeriodicTridiagonalSystem(
        sub=np.full(n, -1.0), diag=np.full(n, 2.0), sup=np.full(n, -1.0),
        rhs=np.ones(n),
    )
    with pytest.raises(SingularSystemError):
        solve_periodic_tridiagonal(sys)


def test_requires_three_unknowns():
    with pytest.raises(ValueError):
        PeriodicTridiagonalSystem(sub=np.zeros(2), diag=np.ones(2), sup=np.zeros(2), rhs=np.zeros(2))


def test_residual_contract():
    rng = np.random.default_rng(1)
    for _ in range(50):
        sys = random_dominant_system(rng, 32)
        x, returned = solve_periodic_tridiagonal(sys, linear_tol=1e-11)
        resid = np.max(np.abs(sys.matvec(x) - sys.rhs))
        # The returned residual is the one the solve tested.
        assert returned == resid
        assert resid <= 1e-11 * np.max(np.abs(sys.rhs))


@pytest.mark.parametrize("n", [3, 8, 64])
def test_zero_rhs_gives_exact_zeros(n):
    # A zero rhs passes the residual test only with a zero residual.
    sys = random_dominant_system(np.random.default_rng(n), n)
    sys = PeriodicTridiagonalSystem(sub=sys.sub, diag=sys.diag, sup=sys.sup, rhs=np.zeros(n))
    x, resid = solve_periodic_tridiagonal(sys)
    assert np.all(x == 0.0) and resid == 0.0


@pytest.mark.parametrize("where", [0, 5, 15])
def test_nan_rhs_is_a_singular_system_error(where):
    # A float error under errstate "raise" would escape the solve's contract.
    sys = random_dominant_system(np.random.default_rng(where), 16)
    rhs = sys.rhs.copy()
    rhs[where] = np.nan
    sys = PeriodicTridiagonalSystem(sub=sys.sub, diag=sys.diag, sup=sys.sup, rhs=rhs)
    with np.errstate(all="raise"), pytest.raises(SingularSystemError):
        solve_periodic_tridiagonal(sys)
