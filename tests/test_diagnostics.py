"""Error norms, total variation, convergence orders, the alpha advisor,
fluctuation and divergence diagnostics."""

import numpy as np
import pytest

from lowmach import (
    FluidState1D,
    FluidState2D,
    UnsupportedGridError,
    alpha_admissible,
    ap_fluctuation,
    convergence_order,
    discrete_divergence_2d,
    relative_l2_error,
    total_variation,
)


def test_relative_error_identical_fields():
    st = FluidState1D(rho=np.linspace(1, 2, 8), q=np.linspace(-1, 1, 8))
    err = relative_l2_error(st, st)
    assert err.e_rho == 0.0 and err.e_q == 0.0
    # Two states at rest: the error relative to a zero momentum is undefined.
    at_rest = FluidState1D(rho=np.ones(8), q=np.zeros(8))
    with pytest.raises(ValueError, match="reference's q is identically zero"):
        relative_l2_error(at_rest, at_rest)


def test_relative_error_constant_offset():
    m = 16
    ref = FluidState1D(rho=np.full(m, 2.0), q=np.full(m, 4.0))
    num = FluidState1D(rho=np.full(m, 2.5), q=np.full(m, 3.0))
    err = relative_l2_error(num, ref)
    assert err.e_rho == pytest.approx(0.5 / 2.0)
    assert err.e_q == pytest.approx(1.0 / 4.0)


def test_relative_error_scale_covariance():
    rng = np.random.default_rng(0)
    coarse = FluidState1D(rho=1 + 0.2 * rng.random(10), q=rng.standard_normal(10))
    fine = FluidState1D(rho=1 + 0.2 * rng.random(40), q=rng.standard_normal(40) + 2)
    base = relative_l2_error(coarse, fine)
    scaled = relative_l2_error(
        FluidState1D(rho=3 * coarse.rho, q=3 * coarse.q),
        FluidState1D(rho=3 * fine.rho, q=3 * fine.q),
    )
    assert scaled.e_rho == pytest.approx(base.e_rho, rel=1e-12)
    assert scaled.e_q == pytest.approx(base.e_q, rel=1e-12)


def test_relative_error_incompatible_grids():
    a = FluidState1D(rho=np.ones(10), q=np.zeros(10))
    b = FluidState1D(rho=np.ones(25), q=np.zeros(25))
    with pytest.raises(UnsupportedGridError):
        relative_l2_error(a, b)


def test_relative_error_sampling_odd_ratio():
    # Odd refinement ratios align coarse centers exactly with fine centers.
    m, r = 8, 3
    fine_vals = np.arange(m * r, dtype=float) + 1.0
    coarse_idx = r * np.arange(m) + (r - 1) // 2
    num = FluidState1D(rho=fine_vals[coarse_idx], q=np.ones(m))
    ref = FluidState1D(rho=fine_vals, q=np.ones(m * r))
    assert relative_l2_error(num, ref).e_rho == 0.0


def test_total_variation_examples():
    assert total_variation(np.full(7, 3.3)) == 0.0
    pulse = np.zeros(10)
    pulse[4:7] = 2.0
    assert total_variation(pulse) == pytest.approx(4.0)  # up 2, down 2
    ramp = np.linspace(0.0, 3.0, 12)  # monotone rise r then wrap drop r
    assert total_variation(ramp) == pytest.approx(6.0)


def test_convergence_order_examples():
    ratios, orders = convergence_order([(0.1, 0.4), (0.05, 0.2)])
    assert ratios == [pytest.approx(2.0)] and orders == [pytest.approx(1.0)]
    ratios, _ = convergence_order([(0.05, 9.739e-1), (0.025, 5.959e-1)])
    assert ratios[0] == pytest.approx(1.634, abs=5e-3)
    _, orders = convergence_order([(0.1, 0.7), (0.05, 0.7)])
    assert orders[0] == 0.0


def test_convergence_order_exact_power():
    for p in (0.5, 1.0, 2.0):
        errs = [(2.0**-k, 3.0 * (2.0**-k) ** p) for k in range(5)]
        _, orders = convergence_order(errs)
        assert all(o == pytest.approx(p, rel=1e-12) for o in orders)


def test_convergence_order_requires_halving():
    with pytest.raises(ValueError):
        convergence_order([(0.1, 0.5), (0.03, 0.2)])


def test_alpha_admissible_examples():
    # large dt clamps the lower bound at zero
    ai = alpha_admissible(dx=0.01, dt=1.0, epsilon=0.5, sigma=0.9, umax=0.0)
    assert ai.sqrt_alpha_lo <= 0.0 and ai.feasible
    # table row values
    ai = alpha_admissible(dx=1 / 100, dt=1 / 340, epsilon=0.8, sigma=0.9, umax=1.25)
    assert ai.sqrt_alpha_lo == pytest.approx(0.45)
    assert ai.sqrt_alpha_hi == pytest.approx(1.81)
    assert ai.feasible
    # dt <= eps dx / 4 leaves no admissible alpha below the hard cap
    ai = alpha_admissible(dx=0.01, dt=0.5 * 0.01 * 0.25, epsilon=0.5, sigma=0.9, umax=0.0)
    assert not ai.feasible
    # 1/eps and dx/(2 dt) are undefined at eps = 0 and dt = 0.
    with pytest.raises(ValueError, match="epsilon must be > 0, got 0.0"):
        alpha_admissible(0.1, 0.01, 0.0, 0.5, 1.0)
    with pytest.raises(ValueError, match="dt must be > 0, got 0.0"):
        alpha_admissible(0.1, 0.0, 0.5, 0.5, 1.0)


def test_alpha_admissible_monotonicity():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        dx = 10.0 ** rng.uniform(-4, -1)
        dt = dx * 10.0 ** rng.uniform(-2, 1)
        eps = 10.0 ** rng.uniform(-3, 0.3)
        sigma = rng.uniform(0.05, 0.99)
        umax = rng.uniform(0.0, 5.0)
        base = alpha_admissible(dx, dt, eps, sigma, umax)
        if not base.feasible:
            continue
        # increasing 1/eps, increasing sigma, decreasing umax keep feasibility
        assert alpha_admissible(dx, dt, eps * 0.5, sigma, umax).feasible
        assert alpha_admissible(dx, dt, eps, min(0.999, sigma * 1.1), umax).feasible
        assert alpha_admissible(dx, dt, eps, sigma, umax * 0.5).feasible


def test_ap_fluctuation_examples():
    st = FluidState1D(rho=np.full(12, 1.7), q=np.zeros(12))
    mean, fluct = ap_fluctuation(st, 0.1)
    assert mean == pytest.approx(1.7) and fluct == 0.0

    m = 64
    x = (np.arange(m) + 0.5) / m
    eps = 0.05
    field = 1 + eps**2 * np.sin(2 * np.pi * x)
    st = FluidState1D(rho=field, q=np.zeros(m))
    _, fluct = ap_fluctuation(st, eps)
    assert fluct == pytest.approx(1.0, rel=1e-2)
    # eps^2 underflows to 0 at eps = 1e-170 and overflows at 1e200.
    for eps in (1e-170, 1e200):
        with pytest.raises(ValueError, match=r"epsilon = 1e.+ puts epsilon\^2"):
            ap_fluctuation(st, eps)


def test_ap_fluctuation_beyond_float_range_keeps_numpys_default():
    # A library call outside the verbs: the overflowing division reads inf,
    # with numpy's warning, and raises nothing of lowmach's.
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert ap_fluctuation(np.array([1.0, 1e300]), 1e-10)[1] == np.inf


def test_discrete_divergence_examples():
    m = 32
    x = (np.arange(m) + 0.5) / m
    xx, yy = np.meshgrid(x, x, indexing="ij")
    const = FluidState2D(rho=np.ones((m, m)), q1=np.full((m, m), 2.0), q2=np.full((m, m), -1.0))
    assert np.max(np.abs(discrete_divergence_2d(const, 1 / m, 1 / m))) == 0.0

    crossed = FluidState2D(rho=np.ones((m, m)), q1=np.sin(2 * np.pi * yy), q2=np.sin(2 * np.pi * xx))
    assert np.max(np.abs(discrete_divergence_2d(crossed, 1 / m, 1 / m))) <= 1e-13

    waved = FluidState2D(rho=np.ones((m, m)), q1=np.sin(2 * np.pi * xx), q2=np.zeros((m, m)))
    div = discrete_divergence_2d(waved, 1 / m, 1 / m)
    exact = 2 * np.pi * np.cos(2 * np.pi * xx)
    # centered differences are second-order accurate
    assert np.max(np.abs(div - exact)) <= 2 * np.pi**3 / m**2 * 2


def test_discrete_divergence_convergence_rate():
    errs = []
    for m in (16, 32, 64):
        x = (np.arange(m) + 0.5) / m
        xx, _ = np.meshgrid(x, x, indexing="ij")
        st = FluidState2D(rho=np.ones((m, m)), q1=np.sin(2 * np.pi * xx), q2=np.zeros((m, m)))
        div = discrete_divergence_2d(st, 1 / m, 1 / m)
        errs.append(np.max(np.abs(div - 2 * np.pi * np.cos(2 * np.pi * xx))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)
