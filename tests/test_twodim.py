"""2D operators and stepper: directional speeds, the elliptic right-hand
side and the step against the reference in ``oracle.py``, conservation,
and symmetry."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lowmach
import oracle
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
    return _explicit_terms(state, eos, alpha, 1.0, 1.0)[1]


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
# The right-hand side


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
    expected = oracle.ap_rhs_2d(st, example3_eos(), params, 1 / 80, grid.dx, grid.dy)[0]
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_dphi2_matches_oracle_random():
    rng = np.random.default_rng(1)
    for _ in range(5):
        m1, m2 = int(rng.choice([6, 8])), int(rng.choice([6, 10]))
        st = random_state_2d(rng, m1, m2)
        alpha = float(rng.uniform(0, 1.5))
        params = SchemeParams(epsilon=0.7, alpha=alpha)
        dt = float(rng.uniform(0.001, 0.01))
        out = assemble_dphi_2d(st, EOS2, params, dt, 1 / m1, 1 / m2)
        expected = oracle.ap_rhs_2d(st, EOS2, params, dt, 1 / m1, 1 / m2)[0]
        assert np.max(np.abs(out - expected)) <= 1e-12


# ---------------------------------------------------------------------------
# slice kernels


@pytest.mark.parametrize("shape", [(4, 4), (5, 7), (9, 4), (1, 6), (6, 2), (3, 1)])
def test_kernels_equal_np_roll_formulas(shape):
    # The speeds, _dc and _diss write from slices of flat rows, into new
    # arrays or into given ones (filled with NaN here, so that a cell left
    # unwritten shows); the reference's np.roll formulas are their floats,
    # bit for bit, along both axes.
    from lowmach.twodim import _cell_speeds, _dc, _diss, _interface_speeds

    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    for _ in range(5):
        u = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
        a = rng.uniform(0.1, 5.0, shape)
        h = float(rng.uniform(0.01, 1.0))
        dirty = [np.full(shape, np.nan) for _ in range(4)]
        for axis in (0, 1):
            assert np.array_equal(_dc(u, h, axis), oracle.centered_2d(u, h, axis))
            assert np.array_equal(_dc(u, h, axis, dirty[0]), oracle.centered_2d(u, h, axis))
            want = oracle.dissipation_2d(u, a, h, axis)
            assert np.array_equal(_diss(u, a, h, axis, dirty[1], dirty[2]), want)
        state = FluidState2D(rho=a, q1=u, q2=rng.standard_normal(shape))
        alpha = float(rng.choice([0.0, 1.0]))
        speed, speeds = oracle.speeds_2d(state, EOS2, alpha)
        cell = _cell_speeds(*state.velocity(), EOS2.pressure_derivative(a), alpha, *dirty[:2])
        assert np.array_equal(cell, speed)
        for got, want in zip(_interface_speeds(cell, *dirty[2:]), speeds):
            assert np.array_equal(got, want)


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
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(shape=st.sampled_from([(4, 6), (6, 4), (4, 10), (8, 6), (6, 10), (10, 8)]),
       seed=st.integers(0, 2**32 - 1), gamma=st.sampled_from([1.0, 1.4, 2.0, 3.0]),
       log_eps=st.floats(-2.0, 0.0), alpha=st.sampled_from([0.0, 1.0]))
def test_step_2d_matches_oracle(stencil, shape, seed, gamma, log_eps, alpha):
    # The reference solves its stencil's dense operator.  On m1 != m2 cells,
    # with lambda U(0.5, 2), rho U(0.5, 1.5), each momentum 0.5 N(0, 1) and
    # dt U(0.05, 0.9) times the explicit CFL step from seed: rho and both
    # momenta within 1e-10 of it (relative to max(1, max|field|)), the
    # totals and the residual within 1e-10, the wave speed the same float.
    rng = np.random.default_rng(seed)
    eos = EquationOfState(rng.uniform(0.5, 2.0), gamma)
    state = FluidState2D(rho=rng.uniform(0.5, 1.5, shape), q1=0.5 * rng.standard_normal(shape),
                         q2=0.5 * rng.standard_normal(shape))
    params = SchemeParams(epsilon=10.0**log_eps, alpha=alpha)
    dx, dy = 1 / shape[0], 1 / shape[1]
    speed = float(oracle.speeds_2d(state, eos, alpha)[0].max())
    dt = rng.uniform(0.05, 0.9) * min(dx, dy) / speed
    expected, expected_report = oracle.ap_step_2d(state, eos, params, stencil, dt, dx, dy)
    out, report = step_ap_2d(state, eos, params, stencil, dt, dx, dy)
    for name in ("rho", "q1", "q2"):
        want = getattr(expected, name)
        assert np.max(np.abs(getattr(out, name) - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))
    assert report.max_wave_speed == expected_report.max_wave_speed
    for name in ("mass_total", "momentum_total", "momentum2_total", "consistency_residual"):
        assert abs(getattr(report, name) - getattr(expected_report, name)) <= 1e-10
    assert report.newton_iters == 0 and (report.linear_iters > 0) == (oracle.beta(params, dt) > 0)


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


@pytest.mark.parametrize("eps, alpha", [(0.8, 1.5625), (0.1, 100.0), (0.05, 400.0)])
@pytest.mark.parametrize("stencil", ["wide", "reduced"])
def test_explicit_limit_drops_the_new_pressure_from_the_momentum(stencil, eps, alpha,
                                                                monkeypatch):
    # At the decimal alpha = 1/eps^2, where alpha * eps**2 rounds above 1
    # and (1 - alpha eps**2)/eps**2 to -3.5e-16, -2.2e-14 and -8.9e-14, the
    # implicit pressure gradient's coefficient c is exactly 0: with the new
    # density's pressure differences replaced by 2^1000, the new momenta
    # keep every bit.
    from lowmach import twodim

    grid = example3_grid(8, 8)
    state = example3_state(grid, eps)
    params = SchemeParams(epsilon=eps, alpha=alpha)
    new, _ = step_ap_2d(state, EOS2, params, stencil, 1e-3, grid.dx, grid.dy)
    solve, dc = twodim.solve_elliptic_2d, twodim._dc
    solved = []

    def noting_solve(*args, **kwargs):
        solved.append(1)
        return solve(*args, **kwargs)

    def huge_after_the_solve(u, h, axis, out=None):
        # After the solve, the step differences only p of the new density.
        if solved:
            out.fill(2.0**1000)
            return out
        return dc(u, h, axis, out)

    monkeypatch.setattr(twodim, "solve_elliptic_2d", noting_solve)
    monkeypatch.setattr(twodim, "_dc", huge_after_the_solve)
    probed, _ = step_ap_2d(state, EOS2, params, stencil, 1e-3, grid.dx, grid.dy)
    assert solved
    for name in ("rho", "q1", "q2"):
        assert np.array_equal(getattr(probed, name), getattr(new, name))


def test_step_2d_flux_form_identity_linear_eos():
    # With a linear pressure law the frozen-mobility wide operator is exact,
    # so the returned pair must satisfy the flux-form density update with
    # the implicit momentum average: the literal elliptic right-hand side IS
    # the exact elimination of the coupled scheme.
    rng = np.random.default_rng(5)
    m = 12
    eos1 = EquationOfState(1.0, 1.0)
    st = random_state_2d(rng, m, m, q_amp=0.3)
    params = SchemeParams(epsilon=0.4, alpha=1.0)
    dt, dx, dy = 0.002, 1 / m, 1 / m
    out, _ = step_ap_2d(st, eos1, params, "wide", dt, dx, dy)
    a_x, a_y = oracle.speeds_2d(st, eos1, params.alpha)[1]
    flux_div = discrete_divergence_2d(out, dx, dy)
    diss = oracle.dissipation_2d(st.rho, a_x, dx, 0) + oracle.dissipation_2d(st.rho, a_y, dy, 1)
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


def _scratch_set(shape):
    """Every array of the calling thread's 2D scratch set for ``shape``."""
    from lowmach.elliptic import _grid_buffers

    return [a for group in _grid_buffers(shape) for a in group]


@pytest.mark.parametrize("stencil", ["wide", "reduced"])
def test_step_2d_peak_working_set(stencil):
    # A step takes its temporaries from the thread's scratch set, which
    # outlives it: 12 arrays of m1 m2 floats and two complex ones of rfft2's
    # shape, ~14.2 arrays at 64^2 (<= 16).  A warm step then allocates p and
    # p' of rho^n, rho^{n+1}, p(rho^{n+1}) and the two new momenta: a traced
    # peak of ~5.26 arrays (~19 while every temporary was a new array).
    import tracemalloc

    m = 64
    grid = example3_grid(m, m)
    eps = 0.005
    args = (example3_state(grid, eps), example3_eos(), SchemeParams(epsilon=eps, alpha=1.0),
            stencil, 0.2 * grid.dx, grid.dx, grid.dy)
    small = example3_grid(8, 8)
    # An 8 x 8 step leaves the thread an 8 x 8 set, which the next step replaces.
    step_ap_2d(example3_state(small, eps), *args[1:4], 0.01, small.dx, small.dy)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        step_ap_2d(*args)  # warm-up: builds the 64 x 64 set
        retained, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        warm, _ = tracemalloc.get_traced_memory()
        step_ap_2d(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    array = m * m * 8
    assert (retained - base) / array <= 16.0
    assert (peak - warm) / array < 6.3


@pytest.mark.parametrize("stencil", ["wide", "reduced"])
def test_step_2d_hands_back_no_scratch_array(stencil):
    # The new state, a solve's rho and assemble_dphi_2d's right-hand side
    # are new arrays, none a view of the thread's scratch set.
    from lowmach import EllipticCoefficients, beta_coefficient, solve_elliptic_2d

    grid = example3_grid(16, 12)
    params = SchemeParams(epsilon=0.05, alpha=0.0)
    dt = 0.25 * grid.dx
    out, _ = step_ap_2d(example3_state(grid, 0.05), example3_eos(), params, stencil, dt,
                        grid.dx, grid.dy)
    dphi = assemble_dphi_2d(out, example3_eos(), params, dt, grid.dx, grid.dy)
    coeff = EllipticCoefficients(beta_coefficient(0.05, 0.0, dt),
                                 example3_eos().pressure_derivative(out.rho))
    rho, _, residual = solve_elliptic_2d(dphi, coeff, grid.dx, grid.dy, stencil=stencil)
    scratch = _scratch_set(out.shape)
    for arr in (out.rho, out.q1, out.q2, dphi, rho):
        assert not any(np.shares_memory(arr, a) for a in scratch)
    assert type(residual) is float


def test_step_2d_outputs_keep_their_bytes():
    # A state, a right-hand side and a solve's rho are unchanged by later
    # steps on the same shape and on another one, which replaces the
    # thread's scratch set, and back.
    from lowmach import EllipticCoefficients, solve_elliptic_2d

    eps, params = 0.05, SchemeParams(epsilon=0.05, alpha=0.0)
    grid = example3_grid(16, 16)
    state, _ = step_ap_2d(example3_state(grid, eps), example3_eos(), params, "wide",
                          0.25 * grid.dx, grid.dx, grid.dy)
    dphi = assemble_dphi_2d(state, example3_eos(), params, 0.25 * grid.dx, grid.dx, grid.dy)
    rho, _, _ = solve_elliptic_2d(dphi, EllipticCoefficients(0.01, np.ones((16, 16))),
                                  grid.dx, grid.dy)
    kept = [a.tobytes() for a in (state.rho, state.q1, state.q2, dphi, rho)]
    for g in (grid, example3_grid(8, 12), grid):
        later = example3_state(g, eps)
        for stencil in ("reduced", "wide"):
            later, _ = step_ap_2d(later, example3_eos(), params, stencil, 0.25 * g.dx, g.dx, g.dy)
    assert [a.tobytes() for a in (state.rho, state.q1, state.q2, dphi, rho)] == kept


def test_step_2d_reads_any_memory_layout():
    # The kernels read their inputs through flat C-order rows, which copy a
    # Fortran-ordered state: its right-hand side is the C-ordered state's to
    # the bit, and its step the same to round-off (CG then sums its dot
    # products in another order).
    rng = np.random.default_rng(12)
    fields = [rng.uniform(0.6, 1.4, (8, 6)), 0.4 * rng.standard_normal((8, 6)),
              0.4 * rng.standard_normal((8, 6))]
    c_state = FluidState2D(*fields)
    f_state = FluidState2D(*(np.asfortranarray(f) for f in fields))
    assert f_state.rho.flags.f_contiguous and not f_state.rho.flags.c_contiguous
    params = SchemeParams(epsilon=0.3, alpha=1.0)
    args = (EOS2, params, 0.01, 1 / 8, 1 / 6)
    assert np.array_equal(assemble_dphi_2d(f_state, *args), assemble_dphi_2d(c_state, *args))
    for stencil in ("wide", "reduced"):
        want, _ = step_ap_2d(c_state, EOS2, params, stencil, 0.01, 1 / 8, 1 / 6)
        got, _ = step_ap_2d(f_state, EOS2, params, stencil, 0.01, 1 / 8, 1 / 6)
        for name in ("rho", "q1", "q2"):
            assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= 1e-14


def _twenty_steps(m, stencil):
    grid = example3_grid(m, m)
    state = example3_state(grid, 0.05)
    params = SchemeParams(epsilon=0.05, alpha=0.0)
    reports = []
    for _ in range(20):
        state, report = step_ap_2d(state, example3_eos(), params, stencil, 0.25 * grid.dx,
                                   grid.dx, grid.dy)
        reports.append(report)
    return state, reports


def test_step_2d_threads_reproduce_serial_results():
    # Each thread has its own scratch set: four threads (more than a
    # two-core machine has), two stepping 32^2 and two 16^2, released
    # together and switching every microsecond, give the serial results
    # bit for bit.
    import threading

    cases = [(32, "wide"), (16, "reduced"), (32, "reduced"), (16, "wide")]
    serial = [_twenty_steps(*case) for case in cases]
    results = [[] for _ in cases]
    start = threading.Barrier(len(cases))

    def run(case, result):
        start.wait(timeout=60)
        result.append(_twenty_steps(*case))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(case, result))
                   for case, result in zip(cases, results)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for (state, reports), result in zip(serial, results):
        assert len(result) == 1
        got, got_reports = result[0]
        for name in ("rho", "q1", "q2"):
            assert np.array_equal(getattr(got, name), getattr(state, name))
        assert got_reports == reports
