"""Cyclic tridiagonal kernel against a dense Gaussian-elimination oracle."""

import numpy as np
import pytest

from lowmach import SingularSystemError, solve_periodic_tridiagonal


def dense(sub, diag, sup):
    """Dense matrix of the cyclic rows sub[i] x[i-1] + diag[i] x[i] +
    sup[i] x[i+1], indices modulo N: the oracle's form of the system."""
    n = diag.shape[0]
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i - 1) % n] += sub[i]
        a[i, i] += diag[i]
        a[i, (i + 1) % n] += sup[i]
    return a


def matvec(sub, diag, sup, x):
    """The rows applied to x, in the order of the solve's residual check."""
    return sub * np.roll(x, 1) + diag * x + sup * np.roll(x, -1)


def random_dominant_system(rng, n):
    """(sub, diag, sup, rhs) of a diagonally dominant cyclic system."""
    sub = rng.uniform(-1.0, 1.0, n)
    sup = rng.uniform(-1.0, 1.0, n)
    diag = np.abs(sub) + np.abs(sup) + rng.uniform(0.5, 2.0, n)
    diag *= rng.choice([-1.0, 1.0], n)
    rhs = rng.standard_normal(n)
    return sub, diag, sup, rhs


def test_identity_system():
    rhs = np.array([3.0, -1.0, 2.0, 0.5])
    x, _ = solve_periodic_tridiagonal(np.zeros(4), np.ones(4), np.zeros(4), rhs)
    assert np.allclose(x, rhs, rtol=0, atol=1e-14)


def test_bands_may_be_lists():
    # The bands are read as float arrays; ints and lists are accepted.
    x, _ = solve_periodic_tridiagonal([0, 0, 0], [2, 2, 2], [0, 0, 0], [1, 2, 3])
    assert x.dtype == float and np.array_equal(x, [0.5, 1.0, 1.5])


def test_matches_dense_oracle_n6():
    rng = np.random.default_rng(42)
    sub, diag, sup, rhs = random_dominant_system(rng, 6)
    x, _ = solve_periodic_tridiagonal(sub, diag, sup, rhs)
    x_dense = np.linalg.solve(dense(sub, diag, sup), rhs)
    assert np.max(np.abs(x - x_dense)) <= 1e-12 * max(1.0, np.max(np.abs(x_dense)))


@pytest.mark.parametrize("n", [3, 4, 5, 8, 17, 64])
def test_matches_dense_oracle_sizes(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        sub, diag, sup, rhs = random_dominant_system(rng, n)
        x, _ = solve_periodic_tridiagonal(sub, diag, sup, rhs)
        x_dense = np.linalg.solve(dense(sub, diag, sup), rhs)
        assert np.max(np.abs(x - x_dense)) <= 1e-11 * max(1.0, np.max(np.abs(x_dense)))


def test_periodic_laplacian_is_singular():
    n = 8
    with pytest.raises(SingularSystemError):
        solve_periodic_tridiagonal(np.full(n, -1.0), np.full(n, 2.0), np.full(n, -1.0),
                                   np.zeros(n))


def test_singular_detected_with_nonzero_rhs():
    n = 8
    with pytest.raises(SingularSystemError):
        solve_periodic_tridiagonal(np.full(n, -1.0), np.full(n, 2.0), np.full(n, -1.0),
                                   np.ones(n))


def test_requires_three_unknowns():
    for n in (0, 1, 2):
        with pytest.raises(ValueError, match="N >= 3"):
            solve_periodic_tridiagonal(np.zeros(n), np.ones(n), np.zeros(n), np.zeros(n))


@pytest.mark.parametrize("short", range(4))
def test_bands_of_unequal_length_are_rejected(short):
    bands = [np.zeros(5), np.ones(5), np.zeros(5), np.ones(5)]
    bands[short] = bands[short][:4]
    with pytest.raises(ValueError, match="one length"):
        solve_periodic_tridiagonal(*bands)


def test_residual_contract():
    rng = np.random.default_rng(1)
    for _ in range(50):
        sub, diag, sup, rhs = random_dominant_system(rng, 32)
        x, returned = solve_periodic_tridiagonal(sub, diag, sup, rhs)
        resid = np.max(np.abs(matvec(sub, diag, sup, x) - rhs))
        # The returned residual is the one the solve tested.
        assert returned == resid
        assert resid <= 1e-11 * np.max(np.abs(rhs))


@pytest.mark.parametrize("n", [3, 8, 64])
def test_zero_rhs_gives_exact_zeros(n):
    # A zero rhs passes the residual test only with a zero residual.
    sub, diag, sup, _ = random_dominant_system(np.random.default_rng(n), n)
    x, resid = solve_periodic_tridiagonal(sub, diag, sup, np.zeros(n))
    assert np.all(x == 0.0) and resid == 0.0


@pytest.mark.parametrize("where", [0, 5, 15])
def test_nan_rhs_is_a_singular_system_error(where):
    # A float error under errstate "raise" would escape the solve's contract.
    sub, diag, sup, rhs = random_dominant_system(np.random.default_rng(where), 16)
    rhs[where] = np.nan
    with np.errstate(all="raise"), pytest.raises(SingularSystemError):
        solve_periodic_tridiagonal(sub, diag, sup, rhs)
