"""End-to-end runs from the benchmark presets and the table commands."""

import json
import time

import numpy as np
import pytest

from lowmach import (ConfigError, FluidState1D, FluidState2D, Grid1D, Grid2D, InstabilityError,
                     NumericsError, onedim, runner)
from lowmach.cli import main
from lowmach.config import build_config
from lowmach.presets import example1_grid, example1_state
from lowmach.runner import (
    _case,
    _snapshot_writer,
    _write_csv,
    compare_ice,
    reference_solution,
    reproduce_table1,
    reproduce_table2,
    run_raw,
)


def test_run_example1_stable_preset(tmp_path):
    # a published stable step for this mesh: completes with one snapshot
    result = run_raw({
        "preset": "example1", "epsilon": 0.05, "m": 200, "dt": 1 / 490,
        "t_final": 0.1, "variant": "ld", "output_dir": str(tmp_path / "ex1"),
    })
    assert result.status == 0
    assert sum(1 for n in result.outputs if n.startswith("snapshot")) == 1


def test_run_example2_acoustic_collision(tmp_path):
    out = tmp_path / "ex2"
    result = run_raw({
        "preset": "example2", "epsilon": 0.1, "m": 100, "dt": 1 / 1000,
        "t_final": 0.02, "variant": "ld", "output_dir": str(out),
    })
    assert result.status == 0
    lines = (out / "steps.csv").read_text().splitlines()[1:]
    masses = [float(l.split(",")[4]) for l in lines]
    assert max(masses) - min(masses) <= 1e-12 * abs(masses[0])


def test_example2_collision_cycle():
    # the two pulses superpose into a density maximum around T = 0.04 (the
    # velocity nearly stalls), then separate again
    from lowmach.core import SchemeParams
    from lowmach.presets import example2_eos, example2_grid, example2_state

    eos = example2_eos()
    grid = example2_grid(100)
    st = example2_state(grid, 0.1)
    params = SchemeParams(epsilon=0.1, alpha=1.0)
    peak = {}
    speed = {}
    t = 0.0
    for _ in range(80):
        st, _ = onedim.step_ap_1d(st, eos, params, "ld", 1 / 1000, grid.dx)
        t += 1 / 1000
        for mark in (0.01, 0.04, 0.08):
            if abs(t - mark) < 1e-9:
                peak[mark] = float(np.max(st.rho))
                speed[mark] = float(np.max(np.abs(st.q / st.rho)))
    assert peak[0.04] > 1.15 > peak[0.01]
    assert peak[0.08] < 1.08
    assert speed[0.04] < 0.25 < speed[0.08]


def test_run_example3_2d_preset(tmp_path):
    result = run_raw({
        "preset": "example3", "epsilon": 0.05, "m1": 20, "m2": 20,
        "dt": 1 / 80, "t_final": 1.0, "stencil": "reduced", "alpha": 0.0,
        "output_dir": str(tmp_path / "ex3"),
    })
    assert result.status == 0
    assert result.steps_taken == 80


@pytest.mark.parametrize("raw", [
    *({"variant": variant, "alpha": alpha} for variant in ("ld", "l", "nl") for alpha in (1.0, 0.5)),
    {"stepper": "explicit_llf"},
    {"stepper": "ice"},
    *({"preset": "example3", "stencil": stencil, "alpha": alpha}
      for stencil in ("wide", "reduced") for alpha in (0.0, 1.0)),
], ids=lambda raw: "-".join(map(str, raw.values())))
def test_cfl_speed_is_the_speed_a_step_reports(raw):
    # A case's CFL speed states its scheme's sound speed (sqrt(alpha p'),
    # sqrt(p')/eps, 0) beside the step's: it must read the float the step
    # itself reports.
    cfg = build_config({"epsilon": 0.3, "m": 20, "m1": 8, "m2": 8, "dt": 1e-3, **raw})
    _, state, step, speed = _case(cfg)
    assert speed(state) == step(state, cfg.dt)[1].max_wave_speed


@pytest.mark.parametrize("raw, length", [
    ({"preset": "example1", "m": 100}, "dx"),
    ({"preset": "example3", "m1": 8, "m2": 16}, "dy"),
], ids=["example1", "example3"])
def test_cfl_dt_is_sigma_length_over_the_case_speed(raw, length, tmp_path):
    # On the CFL rule each step that no event cuts takes dt = sigma * length
    # / speed(state before the step), with length dx in 1D and min(dx, dy)
    # in 2D, here dy.  Only the last step is cut, to t_final.
    cfg = build_config({**raw, "epsilon": 0.3, "t_final": 0.05, "sigma": 0.7,
                        "output_dir": str(tmp_path)})
    assert runner.run(cfg).status == 0
    dts = np.loadtxt(tmp_path / "steps.csv", delimiter=",", skiprows=1, usecols=2)
    assert len(dts) > 2
    grid, state, step, speed = _case(cfg)
    for i, dt in enumerate(dts):
        cfl_dt = cfg.sigma * getattr(grid, length) / speed(state)
        assert dt == cfl_dt if i < len(dts) - 1 else dt <= cfl_dt
        state, _ = step(state, dt)


def test_reference_solution_refine1_matches_plain_run():
    ref = reference_solution(0.05, cells=64, inv_dt=6400, refine=1)
    assert ref.m == 64


def test_reproduce_table1_smoke(tmp_path):
    out = tmp_path / "t1.csv"
    rows = reproduce_table1([0.3], [1 / 50], variant="ld", t_final=0.05,
                            output_path=out)
    assert len(rows) == 1
    assert rows[0]["stable_dt"] > 0
    header = out.read_text().splitlines()[0]
    assert header == "epsilon,max_lambda,dx,stable_dt,courant"


def test_table1_takes_max_lambda_from_the_accepted_scan_trial(monkeypatch):
    # The scan has already run the accepted trial at stable_dt; the row's
    # max_lambda is that run's largest reported wave speed, and the run is
    # not repeated.
    from lowmach import SchemeParams
    from lowmach.presets import example1_eos, example1_grid, example1_state

    step = onedim.step_ap_1d
    dts = []

    def counting(*args):
        dts.append(args[4])
        return step(*args)

    monkeypatch.setattr(runner, "step_ap_1d", counting)
    [row] = reproduce_table1([0.3], [1 / 50], variant="ld", t_final=0.05)
    n_steps = int(np.ceil(0.05 / row["stable_dt"]))
    assert dts.count(row["stable_dt"]) == n_steps

    grid = example1_grid(50)
    state = example1_state(grid, 0.3)
    params = SchemeParams(epsilon=0.3, alpha=1.0)
    max_lambda = 0.0
    for _ in range(n_steps):
        state, report = step(state, example1_eos(), params, "ld", row["stable_dt"], grid.dx)
        max_lambda = max(max_lambda, report.max_wave_speed)
    assert row["max_lambda"] == max_lambda
    assert row["courant"] == max_lambda * row["stable_dt"] / grid.dx


def test_reproduce_table2_identical_levels_ratio():
    # two identical refinement levels would give ratio exactly 1; emulate by
    # validating the ratio arithmetic on the emitted rows instead
    refs = {0.3: reference_solution(0.3, cells=320, inv_dt=6400, refine=2)}
    rows = reproduce_table2([0.3], refinement_levels=2, reference_states=refs)
    assert len(rows) == 2
    assert rows[1]["ratio_rho"] == pytest.approx(rows[0]["e_rho"] / rows[1]["e_rho"])


@pytest.mark.parametrize("eps", [0.3, 0.1])
def test_reproduce_table2_lands_on_t_final(eps):
    # Outside the published rule the CFL-0.7 dt does not divide t_final; each
    # level takes the fewest equal steps of at most that dt, and ends at
    # t_final like the reference it is compared with.
    refs = {eps: example1_state(example1_grid(320), eps)}
    rows = reproduce_table2([eps], refinement_levels=5, reference_states=refs)
    assert len(rows) == 5
    for row in rows:
        assert abs(round(0.1 / row["dt"]) * row["dt"] - 0.1) <= 1e-12 * 0.1


def test_table2_dt_keeps_the_published_ratios():
    # At t_final = 0.1, t_final / n is the published dx/9 and dx/3.5 itself.
    for m in (20, 40, 80, 160, 320, 640):
        dx = example1_grid(m).dx
        assert runner.table2_dt(0.8, dx, 1.0, 0.1) == dx / 9.0
        assert runner.table2_dt(0.05, dx, 1.0, 0.1) == dx / 3.5
    # 15 steps of dx/9 at dx = 0.1, whose quotient rounds to 15 + 2 ulp, stay 15.
    t_final = 15 * (0.1 / 9.0)
    assert t_final / (0.1 / 9.0) > 15
    assert runner.table2_dt(0.8, 0.1, 1.0, t_final) == t_final / 15


def test_every_verb_steps_through_case(tmp_path, monkeypatch):
    # The builder is the one place a config picks its step function: each
    # verb asks it for its cases, with the config of the scheme it runs.
    build = runner._case
    schemes = []

    def recording(cfg):
        schemes.append((cfg.stepper, cfg.variant) if cfg.stepper == "ap" else cfg.stepper)
        return build(cfg)

    monkeypatch.setattr(runner, "_case", recording)
    verbs = {
        "run": lambda: run_raw({"preset": "example1", "m": 20, "dt": 1e-3, "t_final": 0.002,
                                "output_dir": str(tmp_path / "run")}),
        "table1": lambda: reproduce_table1([0.8], [0.1], t_final=0.01),
        "table2": lambda: reproduce_table2(
            [0.8], 1, reference_states={0.8: example1_state(example1_grid(20), 0.8)}),
        "compare_ice": lambda: compare_ice(0.3, 0.05, 1e-3, 0.002),
        "reference": lambda: reference_solution(0.8, cells=20, inv_dt=1000, t_final=0.002,
                                                refine=1),
    }
    expected = {"run": [("ap", "ld")], "table1": [("ap", "ld")], "table2": [("ap", "ld")],
                "compare_ice": [("ap", "ld"), "ice"], "reference": ["explicit_llf"]}
    for verb, call in verbs.items():
        schemes.clear()
        call()
        assert schemes == expected[verb], verb


@pytest.mark.parametrize("overflow", [False, True], ids=["returns", "float-error"])
def test_every_verb_restores_the_float_error_state(tmp_path, monkeypatch, overflow):
    # Each verb enters its float-error boundary and leaves numpy's error
    # state and callback as it found them, whether it returns or raises.
    # Table 2 computes its reference inside, one verb in another, or is
    # given one, so that only its levels step.  A step that overflows fails
    # at the boundary, whatever the caller's state.
    monkeypatch.setattr(runner, "TABLE_REFERENCE", (20, 100))
    if overflow:
        build = runner._case

        def overflowing(cfg):
            grid, state, _, speed = build(cfg)

            def step(st, dt):
                np.full(2, 1e308) * 10.0
                raise AssertionError("a float overflow passed the boundary")

            return grid, state, step, speed

        monkeypatch.setattr(runner, "_case", overflowing)
    verbs = {
        "run": lambda: run_raw({"preset": "example1", "m": 20, "dt": 1e-3, "t_final": 0.002,
                                "output_dir": str(tmp_path / "run")}).status,
        "table1": lambda: reproduce_table1([0.8], [0.1], t_final=0.01),
        "table2": lambda: reproduce_table2([0.8], 1, t_final=0.01),
        "table2 levels": lambda: reproduce_table2(
            [0.8], 1, t_final=0.01, reference_states={0.8: example1_state(example1_grid(20), 0.8)}),
        "compare_ice": lambda: compare_ice(0.3, 0.05, 1e-3, 0.002),
        "reference": lambda: reference_solution(0.8, cells=20, inv_dt=1000, t_final=0.002,
                                                refine=1),
    }

    def handler(kind, flag):
        raise AssertionError(f"the caller's handler saw a float {kind}")

    for verb, call in verbs.items():
        with np.errstate(all="ignore", call=handler):
            before = np.geterr(), np.geterrcall()
            try:
                outcome = call()
            except NumericsError as exc:
                outcome = exc
            assert (np.geterr(), np.geterrcall()) == before, verb
        if not overflow:
            assert not isinstance(outcome, Exception) and outcome != 3, verb
        elif verb == "run":
            assert outcome == 3
        else:
            assert isinstance(outcome, NumericsError), verb


def test_reproduce_table2_levels_must_divide_the_reference(monkeypatch):
    # A given 320-cell reference takes levels of 20 ... 320 cells; a sixth
    # level (640 cells) is a config error before any level runs.
    def no_step(*args):
        raise AssertionError("a level ran before the levels were checked")

    monkeypatch.setattr(runner, "step_ap_1d", no_step)
    refs = {0.3: FluidState1D(rho=np.ones(320), q=np.zeros(320))}
    with pytest.raises(ConfigError, match="640 cells"):
        reproduce_table2([0.3], refinement_levels=6, reference_states=refs)


def _no_step(*args):
    raise AssertionError("a step ran before the step count was checked")


def test_reference_solution_beyond_the_step_cap_raises(monkeypatch):
    # 1e14 steps of dt = 1e-2: rejected before the first step, in well under
    # a second (the loop used to run for ever).
    monkeypatch.setattr(runner, "step_explicit_llf_1d", _no_step)
    start = time.perf_counter()
    with pytest.raises(InstabilityError, match="more than the 1000000 steps"):
        reference_solution(0.8, cells=20, inv_dt=100, t_final=1e12, refine=1)
    assert time.perf_counter() - start < 1.0


def test_reference_solution_off_the_nominal_step_raises(monkeypatch):
    # t_final * inv_dt = 1.5 nominal steps: the run used to take 2 and end at
    # t = 0.002.  Rejected before the first step, naming both values.
    monkeypatch.setattr(runner, "step_explicit_llf_1d", _no_step)
    with pytest.raises(ConfigError, match=r"t_final = 0\.0015 .* inv_dt = 1000"):
        reference_solution(0.8, cells=20, inv_dt=1000, t_final=0.0015, refine=1)


def test_reproduce_table2_level_beyond_the_step_cap_raises(monkeypatch):
    monkeypatch.setattr(runner, "step_ap_1d", _no_step)
    grid = example1_grid(20)
    refs = {0.8: example1_state(grid, 0.8)}
    start = time.perf_counter()
    with pytest.raises(InstabilityError, match="more than the 1000000 steps"):
        reproduce_table2([0.8], 1, t_final=1e12, reference_states=refs)
    assert time.perf_counter() - start < 1.0


def test_compare_ice_outputs(tmp_path):
    result = compare_ice(0.3, 1 / 50, 1 / 2000, 0.005, output_dir=tmp_path / "cmp")
    assert result["tv_rho_ice"] >= 0.0
    tv_csv = (tmp_path / "cmp" / "compare_ice_tv.csv").read_text().splitlines()
    assert len(tv_csv) == 3


def test_cli_table_verbs(tmp_path):
    t1 = tmp_path / "t1.csv"
    code = main(["table1", "--epsilons", "0.3", "--dxs", "0.02",
                 "--t-final", "0.05", "--output", str(t1)])
    assert code == 0 and t1.exists()


def test_cli_io_error_exit_code(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = main(["run", "--preset", "example1", "--epsilon", "0.3", "--m", "20",
                 "--dt", "0.001", "--t-final", "0.002",
                 "--output-dir", str(blocker / "nested")])
    assert code == 4


def _fmt_rows(header, rows):
    return "".join([header + "\n"] + [",".join(f"{v:.17g}" for v in row) + "\n" for row in rows])


def test_csv_bytes_match_repr_format(tmp_path):
    # Manifest hashes are over these bytes: every value is written as
    # f"{v:.17g}", the header first, one "\n"-terminated line per row.
    values = [0.0, -0.0, 5e-324, 1e-310, 1 / 3, -2.5e300, np.nan, np.inf, -np.inf, 1.0]
    path = tmp_path / "special.csv"
    _write_csv(path, "a,b", (values, values[::-1]))
    assert path.read_bytes() == _fmt_rows("a,b", zip(values, values[::-1])).encode()

    # A run formats its grid into the snapshot format once; two grids in one
    # process each keep their own columns, and every snapshot of a grid its
    # own fields.
    rng = np.random.default_rng(3)
    for k, grid in enumerate((Grid1D(a=-1.0, b=1.0, m=3), Grid1D(a=0.1, b=1e-3 + 0.1, m=7))):
        write = _snapshot_writer(grid)
        states = [FluidState1D(rho=[1 / 3, 2.0, 1e-310], q=[-0.0, 0.1, -7.25])] if k == 0 else []
        states += [FluidState1D(rho=1 + rng.random(grid.m), q=rng.standard_normal(grid.m))
                   for _ in range(2)]
        for n, state in enumerate(states):
            path = tmp_path / f"snap1d_{k}_{n}.csv"
            write(path, state)
            expected = _fmt_rows("x,rho,q", zip(grid.cell_centers(), state.rho, state.q))
            assert path.read_bytes() == expected.encode()

    for m1, m2 in ((4, 5), (6, 4)):
        grid = Grid2D(m1=m1, m2=m2)
        write = _snapshot_writer(grid)
        for n in range(2):
            state = FluidState2D(rho=1 + rng.random((m1, m2)), q1=rng.standard_normal((m1, m2)),
                                 q2=rng.standard_normal((m1, m2)))
            path = tmp_path / f"snap2d_{m1}_{n}.csv"
            write(path, state)
            x, y = grid.cell_centers()
            rows = [(x[i], y[j], state.rho[i, j], state.q1[i, j], state.q2[i, j])
                    for i in range(m1) for j in range(m2)]
            assert path.read_bytes() == _fmt_rows("x,y,rho,q1,q2", rows).encode()


def _per_step_lines(steps):
    """steps.csv as written one f-string line per (dt, report) step,
    integers as ints."""
    lines = ["step,t,dt,max_wave_speed,mass_total,momentum_total,momentum2_total,"
             "consistency_residual,newton_iters,linear_iters"]
    t = 0.0
    for n, (dt, r) in enumerate(steps, 1):
        t += dt
        lines.append(f"{n},{t:.17g},{dt:.17g},{r.max_wave_speed:.17g},"
                     f"{r.mass_total:.17g},{r.momentum_total:.17g},{r.momentum2_total:.17g},"
                     f"{r.consistency_residual:.17g},{r.newton_iters},{r.linear_iters}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("raw, status", [
    # adaptive dt with a snapshot in between: completes
    ({"preset": "example2", "epsilon": 0.05, "m": 100, "sigma": 0.9, "t_final": 0.05,
      "snapshot_times": "0.02"}, 0),
    # fixed dt too large for eps = 0.8: loses positivity at step 13
    ({"preset": "example1", "epsilon": 0.8, "m": 100, "dt": 0.003, "t_final": 0.05}, 3),
])
def test_steps_csv_bytes_match_per_step_lines(tmp_path, monkeypatch, raw, status):
    steps = []
    step = onedim.step_ap_1d

    def recording_step(state, eos, params, variant, dt, dx):
        state, report = step(state, eos, params, variant, dt, dx)
        steps.append((dt, report))
        return state, report

    monkeypatch.setattr(runner, "step_ap_1d", recording_step)
    out = tmp_path / "run"
    result = run_raw(dict(raw, variant="nl", output_dir=str(out)))
    assert result.status == status and result.steps_taken == len(steps) > 5
    assert (out / "steps.csv").read_bytes() == _per_step_lines(steps).encode()
