"""2D operators and stepper: directional speeds, the elliptic right-hand
side against a term-by-term loop oracle, conservation, and symmetry."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import lowmach
from lowmach import (
    EquationOfState,
    FluidState2D,
    PositivityError,
    SchemeParams,
    assemble_dphi_2d,
    discrete_divergence_2d,
    step_ap_2d,
)
from lowmach.presets import example3_eos, example3_grid, example3_state
from lowmach.twodim import _explicit_terms
# The linear solves' residual tolerance, which bounds the step's residual.
from lowmach.tridiag import _LINEAR_RTOL as LINEAR_TOL

EOS2 = EquationOfState(1.0, 2.0)


def random_state_2d(rng, m1, m2, q_amp=0.4):
    rho = rng.uniform(0.6, 1.4, (m1, m2))
    q1 = q_amp * rng.standard_normal((m1, m2))
    q2 = q_amp * rng.standard_normal((m1, m2))
    return FluidState2D(rho=rho, q1=q1, q2=q2)


def directional_speeds(state, eos, alpha):
    """The step's interface speeds (a_x, a_y)."""
    return _explicit_terms(state, eos, alpha, 1.0, 1.0)[2]


def test_directional_speeds_examples():
    shape = (6, 6)
    at_rest = FluidState2D(rho=np.ones(shape), q1=np.zeros(shape), q2=np.zeros(shape))
    a_x, a_y = directional_speeds(at_rest, EOS2, 0.0)
    assert np.all(a_x == 0.0) and np.all(a_y == 0.0)

    moving = FluidState2D(rho=np.ones(shape), q1=np.full(shape, 3.0), q2=np.full(shape, -4.0))
    a_x, a_y = directional_speeds(moving, EOS2, 0.0)
    assert np.allclose(a_x, 4.0) and np.allclose(a_y, 4.0)

    a_x, a_y = directional_speeds(at_rest, EOS2, 1.0)
    assert np.allclose(a_x, np.sqrt(2)) and np.allclose(a_y, np.sqrt(2))


# ---------------------------------------------------------------------------
# Dphi oracle: pure loops, term by term


def dphi2_oracle(rho, q1, q2, eos, alpha, dt, dx, dy):
    m1, m2 = rho.shape
    u1, u2 = q1 / rho, q2 / rho
    p = eos.pressure(rho)
    s = np.sqrt(alpha * eos.pressure_derivative(rho))
    cell = np.maximum(np.abs(u1), np.abs(u2)) + s

    def ax(i, j):  # A at (i+1/2, j)
        return max(cell[i % m1, j % m2], cell[(i + 1) % m1, j % m2])

    def ay(i, j):
        return max(cell[i % m1, j % m2], cell[i % m1, (j + 1) % m2])

    def dxc(f, i, j):
        return (f((i + 1) % m1, j) - f((i - 1) % m1, j)) / (2 * dx)

    def dyc(f, i, j):
        return (f(i, (j + 1) % m2) - f(i, (j - 1) % m2)) / (2 * dy)

    def val(arr):
        return lambda i, j: arr[i % m1, j % m2]

    def diss_x(arr):
        def inner(i, j):
            dm = (arr[i % m1, j % m2] - arr[(i - 1) % m1, j % m2]) / dx
            dp = (arr[(i + 1) % m1, j % m2] - arr[i % m1, j % m2]) / dx
            return 0.5 * (ax(i - 1, j) * dm - ax(i, j) * dp)
        return inner

    def diss_y(arr):
        def inner(i, j):
            dm = (arr[i % m1, j % m2] - arr[i % m1, (j - 1) % m2]) / dy
            dp = (arr[i % m1, (j + 1) % m2] - arr[i % m1, j % m2]) / dy
            return 0.5 * (ay(i, j - 1) * dm - ay(i, j) * dp)
        return inner

    g1 = rho * u1**2 + alpha * p
    g2 = rho * u2**2 + alpha * p
    w = rho * u1 * u2

    out = np.empty((m1, m2))
    for i in range(m1):
        for j in range(m2):
            first = (
                dxc(val(q1), i, j) + dyc(val(q2), i, j)
                + diss_x(rho)(i, j) + diss_y(rho)(i, j)
            )
            second = (
                dxc(lambda a, b: dxc(val(g1), a, b), i, j)
                + dyc(lambda a, b: dyc(val(g2), a, b), i, j)
                + dxc(lambda a, b: dyc(val(w), a, b), i, j)
                + dyc(lambda a, b: dxc(val(w), a, b), i, j)
                + dxc(diss_x(q1), i, j)
                + dyc(diss_x(q2), i, j)
                + dxc(diss_y(q1), i, j)
                + dyc(diss_y(q2), i, j)
            )
            out[i, j] = rho[i, j] - dt * first + dt**2 * second
    return out


def test_dphi2_constant_state():
    shape = (6, 8)
    st = FluidState2D(rho=np.full(shape, 1.2), q1=np.zeros(shape), q2=np.zeros(shape))
    params = SchemeParams(epsilon=0.5, alpha=1.0)
    out = assemble_dphi_2d(st, EOS2, params, 0.01, 1 / 6, 1 / 8)
    assert np.array_equal(out, np.full(shape, 1.2))


def test_dphi2_dt_zero():
    rng = np.random.default_rng(0)
    st = random_state_2d(rng, 6, 6)
    params = SchemeParams(epsilon=0.5, alpha=1.0)
    out = assemble_dphi_2d(st, EOS2, params, 0.0, 1 / 6, 1 / 6)
    assert np.allclose(out, st.rho, rtol=0, atol=1e-15)


def test_dphi2_matches_oracle_benchmark():
    grid = example3_grid(20, 20)
    st = example3_state(grid, 0.8)
    params = SchemeParams(epsilon=0.8, alpha=0.0)
    out = assemble_dphi_2d(st, example3_eos(), params, 1 / 80, grid.dx, grid.dy)
    oracle = dphi2_oracle(st.rho, st.q1, st.q2, example3_eos(), 0.0, 1 / 80, grid.dx, grid.dy)
    assert np.max(np.abs(out - oracle)) <= 1e-12


def test_dphi2_matches_oracle_random():
    rng = np.random.default_rng(1)
    for _ in range(5):
        m1, m2 = int(rng.choice([6, 8])), int(rng.choice([6, 10]))
        st = random_state_2d(rng, m1, m2)
        alpha = float(rng.uniform(0, 1.5))
        params = SchemeParams(epsilon=0.7, alpha=alpha)
        dt = float(rng.uniform(0.001, 0.01))
        out = assemble_dphi_2d(st, EOS2, params, dt, 1 / m1, 1 / m2)
        oracle = dphi2_oracle(st.rho, st.q1, st.q2, EOS2, alpha, dt, 1 / m1, 1 / m2)
        assert np.max(np.abs(out - oracle)) <= 1e-12


# ---------------------------------------------------------------------------
# slice kernels


@pytest.mark.parametrize("shape", [(4, 4), (5, 7), (9, 4), (1, 6), (6, 2), (3, 1)])
def test_kernels_equal_np_roll_formulas(shape):
    # _dc and _diss write from slice views; the np.roll formulas they replace
    # are the reference, bit for bit, along both axes.
    from lowmach.twodim import _dc, _diss

    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    for _ in range(5):
        u = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
        a = rng.uniform(0.1, 5.0, shape)
        h = float(rng.uniform(0.01, 1.0))
        for axis in (0, 1):
            def roll(x, k):
                return np.roll(x, k, axis=axis)

            dc = (roll(u, -1) - roll(u, 1)) / (2.0 * h)
            dp = (roll(u, -1) - u) / h
            diss = 0.5 * (roll(a, 1) * roll(dp, 1) - a * dp)
            assert np.array_equal(_dc(u, h, axis), dc)
            assert np.array_equal(_diss(u, a, h, axis), diss)


# The ids say that the step's right-hand side is the literal elimination.
@pytest.mark.parametrize("stencil", ["wide", "reduced"], ids=["wide-literal", "reduced-literal"])
def test_step_2d_takes_ten_centered_differences(stencil, monkeypatch):
    # Four for the momentum flux divergences, two for div q, two for the
    # O(dt^2) term (one per momentum) and two for the pressure gradient.
    from lowmach import twodim

    calls = []
    dc = twodim._dc

    def counting(*args):
        calls.append(args[2])
        return dc(*args)

    monkeypatch.setattr(twodim, "_dc", counting)
    st = random_state_2d(np.random.default_rng(4), 8, 8)
    step_ap_2d(st, EOS2, SchemeParams(epsilon=0.3, alpha=1.0), stencil, 0.004, 1 / 8, 1 / 8)
    assert len(calls) == 10 and calls.count(0) == calls.count(1) == 5


# ---------------------------------------------------------------------------
# stepper


@pytest.mark.parametrize("stencil", ["wide", "reduced"])
def test_step_2d_free_stream_exact(stencil):
    shape = (8, 8)
    st = FluidState2D(rho=np.full(shape, 1.3), q1=np.zeros(shape), q2=np.zeros(shape))
    params = SchemeParams(epsilon=0.2, alpha=1.0)
    out, rep = step_ap_2d(st, EOS2, params, stencil, 0.005, 1 / 8, 1 / 8)
    assert np.array_equal(out.rho, st.rho)
    assert np.array_equal(out.q1, st.q1) and np.array_equal(out.q2, st.q2)
    assert rep.consistency_residual == 0.0


@pytest.mark.parametrize("stencil", ["wide", "reduced"])
def test_step_2d_conservation(stencil):
    rng = np.random.default_rng(7)
    for _ in range(10):
        st = random_state_2d(rng, 16, 16)
        eps = float(rng.uniform(0.1, 1.0))
        params = SchemeParams(epsilon=eps, alpha=min(1.0, 0.9 / eps**2))
        dt = 0.2 / (16 * 4.0)
        out, _ = step_ap_2d(st, EOS2, params, stencil, dt, 1 / 16, 1 / 16)
        assert abs(np.sum(out.rho) - np.sum(st.rho)) <= 1e-12 * np.sum(st.rho)
        assert abs(np.sum(out.q1) - np.sum(st.q1)) <= 1e-12 * max(1.0, abs(np.sum(st.q1)))
        assert abs(np.sum(out.q2) - np.sum(st.q2)) <= 1e-12 * max(1.0, abs(np.sum(st.q2)))


@pytest.mark.parametrize("stencil", ["wide", "reduced"])
def test_step_2d_consistency_residual(stencil):
    rng = np.random.default_rng(8)
    for _ in range(5):
        st = random_state_2d(rng, 12, 12, q_amp=0.3)
        eps = float(rng.uniform(0.05, 1.0))
        params = SchemeParams(epsilon=eps, alpha=0.0)
        dt = 0.2 / (12 * 4.0)
        out, rep = step_ap_2d(st, EOS2, params, stencil, dt, 1 / 12, 1 / 12)
        scale = max(1.0, float(np.max(out.rho)))
        assert rep.consistency_residual <= 10 * LINEAR_TOL * scale


def test_step_2d_flux_form_identity_linear_eos():
    # With a linear pressure law the frozen-mobility wide operator is exact,
    # so the returned pair must satisfy the flux-form density update with
    # the implicit momentum average: the literal elliptic right-hand side IS
    # the exact elimination of the coupled scheme.
    from lowmach.twodim import _diss

    rng = np.random.default_rng(5)
    m = 12
    eos1 = EquationOfState(1.0, 1.0)
    st = random_state_2d(rng, m, m, q_amp=0.3)
    params = SchemeParams(epsilon=0.4, alpha=1.0)
    dt, dx, dy = 0.002, 1 / m, 1 / m
    out, _ = step_ap_2d(st, eos1, params, "wide", dt, dx, dy)
    a_x, a_y = directional_speeds(st, eos1, params.alpha)
    flux_div = discrete_divergence_2d(out, dx, dy)
    diss = _diss(st.rho, a_x, dx, 0) + _diss(st.rho, a_y, dy, 1)
    resid = out.rho - st.rho + dt * (flux_div + diss)
    assert np.max(np.abs(resid)) <= 1e-12


def test_step_2d_transpose_symmetry():
    rng = np.random.default_rng(9)
    m = 12
    st = random_state_2d(rng, m, m)
    flipped = FluidState2D(rho=st.rho.T.copy(), q1=st.q2.T.copy(), q2=st.q1.T.copy())
    params = SchemeParams(epsilon=0.3, alpha=1.0)
    dt = 0.004
    dphi = assemble_dphi_2d(st, EOS2, params, dt, 1 / m, 1 / m)
    dphi_f = assemble_dphi_2d(flipped, EOS2, params, dt, 1 / m, 1 / m)
    assert np.array_equal(dphi.T, dphi_f)
    for stencil in ("wide", "reduced"):
        a, _ = step_ap_2d(st, EOS2, params, stencil, dt, 1 / m, 1 / m)
        b, _ = step_ap_2d(flipped, EOS2, params, stencil, dt, 1 / m, 1 / m)
        assert np.max(np.abs(a.rho.T - b.rho)) <= 1e-12
        assert np.max(np.abs(a.q1.T - b.q2)) <= 1e-12
        assert np.max(np.abs(a.q2.T - b.q1)) <= 1e-12


def test_step_2d_fluctuation_scaling():
    grid = example3_grid(20, 20)
    params_template = dict(alpha=0.0, sigma=0.9)
    for eps in (0.1, 0.01):
        st = example3_state(grid, eps)
        params = SchemeParams(epsilon=eps, **params_template)
        out, _ = step_ap_2d(st, example3_eos(), params, "reduced", 1 / 80, grid.dx, grid.dy)
        fluct = np.max(np.abs(out.rho - np.mean(out.rho))) / eps**2
        assert fluct <= 10.0


def test_step_2d_benchmark_run_divergence():
    grid = example3_grid(20, 20)
    st = example3_state(grid, 0.05)
    params = SchemeParams(epsilon=0.05, alpha=0.0)
    for _ in range(80):
        st, _ = step_ap_2d(st, example3_eos(), params, "reduced", 1 / 80, grid.dx, grid.dy)
    div = np.max(np.abs(discrete_divergence_2d(st, grid.dx, grid.dy)))
    # pinned regression: C * (dx*dt + eps^2) with C = 50
    assert div <= 50.0 * (grid.dx * (1 / 80) + 0.05**2)


def test_2d_path_does_not_load_scipy_linalg():
    # scipy.linalg and its LAPACK extension serve only the 1D tridiagonal
    # solves; neither the 2D step nor the explicit-LLF step may load them.
    code = textwrap.dedent("""
        import sys
        import lowmach
        from lowmach.presets import (example1_eos, example1_grid, example1_state,
                                     example3_eos, example3_grid, example3_state)
        grid = example3_grid(8, 8)
        params = lowmach.SchemeParams(epsilon=0.05, alpha=0.0)
        for stencil in ("reduced", "wide"):
            state = example3_state(grid, 0.05)
            lowmach.step_ap_2d(state, example3_eos(), params, stencil, 0.01, grid.dx, grid.dy)
        grid = example1_grid(20)
        lowmach.step_explicit_llf_1d(example1_state(grid, 0.3), example1_eos(),
                                     lowmach.SchemeParams(epsilon=0.3, alpha=0.0), 1e-3, grid.dx)
        for name in ("scipy.linalg", "scipy.linalg._flapack"):
            assert name not in sys.modules, f"{name} was imported"
    """)
    src = str(Path(lowmach.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_2d_positivity_error_carries_index():
    # 2D twin of test_positivity_error_carries_index: example3 at eps = 0.8
    # with a large dt loses positivity at step 3; the cell is a tuple of
    # Python ints and reads as such in the message.  Cells (3, 2) and (7, 6),
    # half a period apart, hold the same lowest density up to round-off, so
    # the last bit of the right-hand side decides which one is named.
    grid = example3_grid(8, 8)
    st = example3_state(grid, 0.8)
    params = SchemeParams(epsilon=0.8, alpha=1.0)
    with pytest.raises(PositivityError) as err:
        for _ in range(20):
            st, _ = step_ap_2d(st, example3_eos(), params, "reduced", 0.1, grid.dx, grid.dy)
    assert err.value.index == (3, 2)
    assert all(type(i) is int for i in err.value.index)
    assert "density lost positivity at cell (3, 2)" in str(err.value)


@pytest.mark.parametrize("stencil", ["wide", "reduced"])
def test_step_2d_peak_working_set(stencil):
    # The step sums each momentum's explicit part before the solve and drops
    # the interface speeds and the flux and dissipation terms: its traced
    # peak is ~19 arrays of m1 m2 floats at 64^2 (~25.8 while the terms were
    # held through the solve).
    import tracemalloc

    m = 64
    grid = example3_grid(m, m)
    eps = 0.005
    args = (example3_state(grid, eps), example3_eos(), SchemeParams(epsilon=eps, alpha=1.0),
            stencil, 0.2 * grid.dx, grid.dx, grid.dy)
    step_ap_2d(*args)  # warm-up: nothing cached on a first call is counted
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        step_ap_2d(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert (peak - base) / (m * m * 8) < 23.0
