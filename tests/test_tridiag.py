"""Cyclic tridiagonal kernel against the dense solve of ``oracle.py``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from lowmach import SingularSystemError, solve_periodic_tridiagonal


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


@pytest.mark.parametrize("n", [3, 4, 5, 8, 17, 64])
@settings(max_examples=5, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_matches_dense_oracle_sizes(n, seed):
    # Within 1e-12 of the dense solve; the residual returned is the max norm
    # of the rows applied to x, the one the solve tested against 1e-11 max|rhs|.
    sub, diag, sup, rhs = random_dominant_system(np.random.default_rng(seed), n)
    x, returned = solve_periodic_tridiagonal(sub, diag, sup, rhs)
    x_dense = np.linalg.solve(oracle.dense_tridiagonal(sub, diag, sup), rhs)
    assert np.max(np.abs(x - x_dense)) <= 1e-12 * max(1.0, np.max(np.abs(x_dense)))
    assert returned == np.max(np.abs(oracle.tridiagonal_rows(sub, diag, sup, x) - rhs))
    assert returned <= 1e-11 * np.max(np.abs(rhs))


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
