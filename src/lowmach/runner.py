"""Experiment orchestration: time loops, CSV/manifest output, and the
table-reproduction commands.

Exit statuses (also used by the CLI): 0 success, 2 config error, 3
numerical failure (instability / positivity / solver), 4 I/O error.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .config import (RunConfig, build_config, build_problem, check_solve_cells, check_t_final,
                     config_errors, config_to_dict, scheme_params)
from .core import (DtPolicy, FluidState1D, FluidState2D, Grid1D, Grid2D, SchemeParams,
                   validate_params)
from .diagnostics import _sample_indices, relative_l2_error, total_variation
from .elliptic import _VARIANT_STRIDE
from .errors import ConfigError, InstabilityError, NumericsError
from .onedim import (
    SchemeVariant,
    _as_variant,
    ap_stepper,
    max_stable_dt_scan,
    step_explicit_llf_1d,
    step_ice_1d,
)
from .presets import example1_eos, example1_grid, example1_state
from .twodim import _cell_speeds, step_ap_2d

STATUS_OK = 0
STATUS_CONFIG = 2
STATUS_NUMERICAL = 3
STATUS_IO = 4

SWEEP_PROCS_ENV = "LOWMACH_SWEEP_PROCS"

# Reference resolution for the error tables, as (cells, 1/dt); it
# integrates with the explicit scheme to T=0.1.
TABLE_REFERENCE = (1280, 128000)

_EVENT_TOL = 1e-12

_STEPS_COLUMNS = ("step", "t", "dt", "max_wave_speed", "mass_total", "momentum_total",
                  "momentum2_total", "consistency_residual", "newton_iters", "linear_iters")


@dataclass(frozen=True)
class RunResult:
    status: int
    message: str
    output_dir: Path
    outputs: tuple
    steps_taken: int
    final_time: float


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_text(path: Path, text: str):
    path.write_text(text, encoding="utf-8")


def _write_csv(path: Path, header: str, columns):
    """One row per index of the equal-length ``columns``, every value in
    the same ``%.17g`` form as :func:`_fmt`: the bytes of
    ``np.savetxt(fmt="%.17g")``, formatted in one pass."""
    table = np.column_stack(columns)
    n, k = table.shape
    row = ",".join(["%.17g"] * k) + "\n"
    path.write_bytes((header + "\n" + (row * n) % tuple(table.ravel().tolist())).encode())


def _snapshot_csv_1d(path: Path, grid: Grid1D, state):
    _write_csv(path, "x,rho,q", (grid.cell_centers(), state.rho, state.q))


def _snapshot_csv_2d(path: Path, grid: Grid2D, state):
    x, y = np.meshgrid(*grid.cell_centers(), indexing="ij")
    _write_csv(path, "x,y,rho,q1,q2",
               [v.ravel() for v in (x, y, state.rho, state.q1, state.q2)])


def _max_speed(stepper: str, eos, state, params) -> float:
    """Largest wave speed of the CFL condition of ``stepper`` ("ap",
    "explicit_llf" or "ice") on a 1D or 2D state, whose density was
    validated by its constructor.  A speed that overflows reads inf, or nan
    where alpha = 0 meets p' = inf, without a float warning: the caller
    decides what a speed that is not finite means."""
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(state, FluidState2D):
            return float(np.max(_cell_speeds(*state.velocity(),
                                             eos._pressure_derivative(state.rho), params.alpha)))
        u = state.velocity()
        if stepper == "explicit_llf":
            s = np.sqrt(eos._pressure_derivative(state.rho)) / params.epsilon
        elif stepper == "ice":
            s = 0.0
        else:
            s = np.sqrt(params.alpha * eos._pressure_derivative(state.rho))
        return float(np.max(np.abs(u) + s))


def _make_stepper(cfg: RunConfig, grid):
    if cfg.dimension == 2:
        def stepper(state, eos, params, dt):
            return step_ap_2d(state, eos, params, cfg.stencil, dt, grid.dx, grid.dy,
                              dphi2_literal=cfg.dphi2_literal)
        return stepper
    dx = grid.dx
    if cfg.stepper == "ap":
        inner = ap_stepper(cfg.variant)
        return lambda state, eos, params, dt: inner(state, eos, params, dt, dx)
    if cfg.stepper == "explicit_llf":
        return lambda state, eos, params, dt: step_explicit_llf_1d(state, eos, params, dt, dx)
    return lambda state, eos, params, dt: step_ice_1d(state, eos, params, dt, dx)


def run(cfg: RunConfig) -> RunResult:
    """Integrate to t_final, writing snapshot CSVs, a per-step report log
    and a manifest.  Returns a RunResult whose status mirrors the CLI exit
    code (0 success, 3 numerical failure)."""
    eos, grid, state = build_problem(cfg)
    params = scheme_params(cfg)
    stepper = _make_stepper(cfg, grid)
    snapshot = _snapshot_csv_2d if cfg.dimension == 2 else _snapshot_csv_1d

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []

    snapshots = list(cfg.effective_snapshots())
    snap_index = 0
    step_rows = []

    def write_snapshot(st):
        nonlocal snap_index
        name = f"snapshot_{snap_index:03d}.csv"
        snapshot(out_dir / name, grid, st)
        outputs.append(name)
        snap_index += 1

    while snapshots and snapshots[0] <= _EVENT_TOL:
        write_snapshot(state)
        snapshots.pop(0)

    t = 0.0
    nstep = 0
    status = STATUS_OK
    message = "completed"
    try:
        while t < cfg.t_final - _EVENT_TOL:
            if cfg.dt_policy.kind == "fixed":
                dt = cfg.dt_policy.dt
            else:
                speed = _max_speed(cfg.stepper, eos, state, params)
                length = min(grid.dx, grid.dy) if cfg.dimension == 2 else grid.dx
                if speed == 0.0:
                    dt = cfg.t_final - t
                else:
                    # 0 or nan where the speed is not finite or dt underflows;
                    # inf, where the speed is tiny, is cut to the next event.
                    dt = params.sigma * length / speed
                    if not dt > 0.0:
                        raise InstabilityError(f"CFL wave speed {speed:.3g} gives the adaptive "
                                               f"time step dt = {dt:.3g}")
            next_event = snapshots[0] if snapshots else cfg.t_final
            dt = min(dt, next_event - t, cfg.t_final - t)
            state, report = stepper(state, eos, params, dt)
            t += dt
            nstep += 1
            step_rows.append((nstep, t, report.dt_used, report.max_wave_speed,
                              report.mass_total, report.momentum_total,
                              report.momentum2_total, report.consistency_residual,
                              report.newton_iters, report.linear_iters))
            while snapshots and t >= snapshots[0] - _EVENT_TOL:
                write_snapshot(state)
                snapshots.pop(0)
    except NumericsError as exc:
        status = STATUS_NUMERICAL
        message = f"numerical failure at step {nstep + 1} (t={t:.6g}): {exc}"

    # The integer columns print as integers under %.17g too.
    steps_table = np.array(step_rows, dtype=float).reshape(-1, len(_STEPS_COLUMNS))
    _write_csv(out_dir / "steps.csv", ",".join(_STEPS_COLUMNS), steps_table.T)
    outputs.append("steps.csv")
    _write_manifest(out_dir, cfg, status, message, outputs)
    return RunResult(status=status, message=message, output_dir=out_dir,
                     outputs=tuple(outputs), steps_taken=nstep, final_time=t)


def _write_manifest(out_dir: Path, cfg: RunConfig, status: int, message: str, outputs):
    hashes = {}
    for name in outputs:
        digest = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        hashes[name] = f"sha256:{digest}"
    manifest = {
        "config": config_to_dict(cfg),
        "status": status,
        "message": message,
        "outputs": hashes,
    }
    _write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def run_raw(raw: dict) -> RunResult:
    """Build a config from raw key/values and run it."""
    return run(build_config(raw))


# ---------------------------------------------------------------------------
# Table reproduction


def _write_table(path: Path, rows, keys):
    _write_csv(path, ",".join(keys), [[r[k] for r in rows] for k in keys])


def _cells_for(dx) -> int:
    """Cell count of the unit-interval grid with spacing about dx."""
    if not (np.isfinite(dx) and dx > 0.0):
        raise ConfigError(f"dx must be > 0, got {dx}")
    return round(1.0 / dx)


def _check_table_inputs(variant, eps_list, cell_counts, alpha, t_final) -> SchemeVariant:
    """Validate the inputs of a table or comparison run before any work
    starts: at least one epsilon and one cell count, each epsilon with
    ``alpha`` (sigma 0.9), each cell count for the variant's elliptic solve,
    and t_final.  Raises :class:`ConfigError`; returns the variant."""
    try:
        variant = _as_variant(variant)
    except ValueError:
        raise ConfigError(f"variant must be one of {tuple(_VARIANT_STRIDE)}, "
                          f"got {variant!r}") from None
    check_t_final(t_final)
    if not eps_list:
        raise ConfigError("nothing to compute: the epsilon list is empty")
    if not cell_counts:
        raise ConfigError("nothing to compute: no grid (empty dx list, or refinement_levels < 1)")
    for m in cell_counts:
        check_solve_cells(m, variant.value)
    for eps in eps_list:
        with config_errors("epsilons"):
            validate_params(SchemeParams(epsilon=eps, alpha=alpha, sigma=0.9))
    return variant


def _integrate_fixed(state, eos, params, stepper, dt, n_steps, dx):
    for _ in range(n_steps):
        state, _ = stepper(state, eos, params, dt, dx)
    return state


def _speed_tracking(stepper, initial):
    """``stepper`` wrapped to record, for each dt, the largest
    ``max_wave_speed`` of the run from ``initial`` at that dt; returns
    (wrapped stepper, {dt: speed}).  A step from ``initial`` starts the
    run at its dt over."""
    max_speed = {}

    def tracked(state, eos, params, dt, dx):
        new_state, report = stepper(state, eos, params, dt, dx)
        prior = 0.0 if state is initial else max_speed[dt]
        max_speed[dt] = max(prior, report.max_wave_speed)
        return new_state, report

    return tracked, max_speed


def reproduce_table1(eps_list, dx_list, variant="ld", t_final=0.1, alpha=1.0,
                     output_path=None):
    """Stability scan over (epsilon, dx): the largest stable dt of the
    semi-implicit scheme on the stacked-Riemann preset, with the observed
    maximal wave speed and the implied Courant number."""
    cell_counts = [_cells_for(dx) for dx in dx_list]
    stepper = ap_stepper(_check_table_inputs(variant, eps_list, cell_counts, alpha, t_final))
    rows = []
    for eps in eps_list:
        for m in cell_counts:
            grid = example1_grid(m)
            state = example1_state(grid, eps)
            params = SchemeParams(epsilon=eps, alpha=alpha, sigma=0.9,
                                  dt_policy=DtPolicy.adaptive())
            lam0 = _max_speed("ap", example1_eos(), state, params)
            dt_lo = 0.05 * grid.dx / lam0
            dt_hi = 4.0 * grid.dx / lam0
            # max_lambda is that of the scan's accepted trial, the run at
            # stable_dt, so the run is not repeated.
            tracked, max_speed = _speed_tracking(stepper, state)
            stable_dt = max_stable_dt_scan(state, example1_eos(), params, tracked,
                                           t_final, dt_lo, dt_hi, grid.dx)
            max_lambda = max_speed[stable_dt]
            rows.append({
                "epsilon": eps,
                "max_lambda": max_lambda,
                "dx": grid.dx,
                "stable_dt": stable_dt,
                "courant": max_lambda * stable_dt / grid.dx,
            })
    if output_path is not None:
        _write_table(Path(output_path), rows, ("epsilon", "max_lambda", "dx", "stable_dt", "courant"))
    return rows


# The error-table runs use the fixed dt/dx ratios of the published study
# for the two benchmark Mach numbers; other values fall back to a CFL-0.7
# estimate from the initial wave speed.
_TABLE2_DT_RULE = {0.8: 9.0, 0.05: 3.5}


def table2_dt(eps: float, dx: float, lam0: float) -> float:
    rule = _TABLE2_DT_RULE.get(round(eps, 10))
    if rule is not None:
        return dx / rule
    return 0.7 * dx / (2.0 * lam0)


def reference_solution(eps: float, cells=None, inv_dt=None, t_final=0.1, refine=4):
    """Explicit-LLF reference for the error tables, on the ``cells``-point
    reference grid.

    The first-order run is performed at ``refine`` times the reference
    resolution (with the nominal time step CFL-scaled when the full wave
    speed requires it) and restricted to the reference grid by nearest-center
    sampling.  At the reference resolution alone the first-order smearing is
    not yet converged for O(1) Mach shocks, and the published error table is
    only reproduced against a converged reference; refine=1 recovers the
    plain single-grid run.
    """
    cells = TABLE_REFERENCE[0] if cells is None else cells
    inv_dt = TABLE_REFERENCE[1] if inv_dt is None else inv_dt
    fine_cells = cells * refine
    grid = example1_grid(fine_cells)
    state = example1_state(grid, eps)
    eos = example1_eos()
    params = SchemeParams(epsilon=eps, alpha=0.0, sigma=0.9)
    lam0 = _max_speed("explicit_llf", eos, state, params)
    # integer multiple of the nominal rate keeping the explicit CFL <= 0.45
    k = max(1, int(np.ceil(lam0 * fine_cells / (0.45 * inv_dt))))
    dt = 1.0 / (k * inv_dt)
    for _ in range(int(round(t_final * inv_dt)) * k):
        state, _ = step_explicit_llf_1d(state, eos, params, dt, grid.dx)
    if refine == 1:
        return state
    idx = _sample_indices(cells, fine_cells)
    return FluidState1D(rho=state.rho[idx], q=state.q[idx])


def reproduce_table2(eps_list, refinement_levels=5, coarsest_m=20, t_final=0.1,
                     variant="ld", alpha=1.0, output_path=None, reference_states=None):
    """Relative-error table: semi-implicit runs on halving grids against the
    fine explicit reference, with successive error ratios."""
    cell_counts = [coarsest_m * 2**level for level in range(refinement_levels)]
    stepper = ap_stepper(_check_table_inputs(variant, eps_list, cell_counts, alpha, t_final))
    eos = example1_eos()
    rows = []
    for eps in eps_list:
        if reference_states is not None and eps in reference_states:
            ref = reference_states[eps]
        else:
            ref = reference_solution(eps, t_final=t_final)
        prev = None
        for m in cell_counts:
            grid = example1_grid(m)
            state = example1_state(grid, eps)
            params = SchemeParams(epsilon=eps, alpha=alpha, sigma=0.9)
            lam0 = _max_speed("ap", eos, state, params)
            dt = table2_dt(eps, grid.dx, lam0)
            n_steps = int(round(t_final / dt))
            state = _integrate_fixed(state, eos, params, stepper, dt, n_steps, grid.dx)
            err = relative_l2_error(state, ref)
            row = {
                "epsilon": eps,
                "dx": grid.dx,
                "dt": dt,
                "e_rho": err.e_rho,
                "ratio_rho": (prev["e_rho"] / err.e_rho) if prev else float("nan"),
                "e_q": err.e_q,
                "ratio_q": (prev["e_q"] / err.e_q) if prev else float("nan"),
            }
            rows.append(row)
            prev = row
    if output_path is not None:
        _write_table(Path(output_path), rows, ("epsilon", "dx", "dt", "e_rho", "ratio_rho", "e_q", "ratio_q"))
    return rows


def compare_ice(epsilon, dx, dt, t_final, variant="ld", output_dir=None):
    """Run the semi-implicit scheme (alpha=1) and the predictor/corrector
    baseline side by side on the stacked-Riemann preset; report solutions
    and total variation of each."""
    m = _cells_for(dx)
    # The predictor/corrector baseline solves on the three-point stencil.
    check_solve_cells(m, "ld")
    stepper = ap_stepper(_check_table_inputs(variant, [epsilon], [m], 1.0, t_final))
    if not (np.isfinite(dt) and dt > 0.0):
        raise ConfigError(f"dt must be > 0, got {dt}")
    grid = example1_grid(m)
    eos = example1_eos()
    params = SchemeParams(epsilon=epsilon, alpha=1.0, sigma=0.9)
    n_steps = int(np.ceil(t_final / dt))

    ap_state = example1_state(grid, epsilon)
    ice_state = example1_state(grid, epsilon)
    for _ in range(n_steps):
        ap_state, _ = stepper(ap_state, eos, params, dt, grid.dx)
        ice_state, _ = step_ice_1d(ice_state, eos, params, dt, grid.dx)

    result = {
        "tv_rho_ap": total_variation(ap_state.rho),
        "tv_rho_ice": total_variation(ice_state.rho),
        "tv_q_ap": total_variation(ap_state.q),
        "tv_q_ice": total_variation(ice_state.q),
        "ap_state": ap_state,
        "ice_state": ice_state,
    }
    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "compare_ice_solutions.csv", "x,rho_ap,q_ap,rho_ice,q_ice",
                   (grid.cell_centers(), ap_state.rho, ap_state.q, ice_state.rho, ice_state.q))
        tv_lines = [
            "method,tv_rho,tv_q",
            f"ap,{_fmt(result['tv_rho_ap'])},{_fmt(result['tv_q_ap'])}",
            f"ice,{_fmt(result['tv_rho_ice'])},{_fmt(result['tv_q_ice'])}",
        ]
        _write_text(out / "compare_ice_tv.csv", "\n".join(tv_lines) + "\n")
    return result


# ---------------------------------------------------------------------------
# Sweeps


def _slug(value) -> str:
    return str(value).replace("/", "_").replace(" ", "")


def _run_sweep_entry(raw: dict) -> tuple:
    result = run_raw(raw)
    return raw["output_dir"], result.status, result.message


def _sweep_procs_from_env():
    """Worker count requested by the environment, or None when unset."""
    env = os.environ.get(SWEEP_PROCS_ENV)
    if not env:
        return None
    try:
        procs = int(env)
    except ValueError:
        raise ConfigError(f"{SWEEP_PROCS_ENV} must be an integer, got {env!r}") from None
    if procs < 1:
        raise ConfigError(f"{SWEEP_PROCS_ENV} must be >= 1, got {procs}")
    return procs


def run_sweep(base_raw: dict, varied: dict, output_dir, max_workers=None):
    """Cartesian product of the varied keys, one run per combination in its
    own subdirectory; combinations run concurrently on at most
    min(workers, combinations, CPUs) processes."""
    if max_workers is None:
        max_workers = _sweep_procs_from_env() or os.cpu_count() or 1
    keys = sorted(varied)
    combos = list(product(*(varied[k] for k in keys)))
    entries = []
    base_dir = Path(output_dir)
    for combo in combos:
        raw = dict(base_raw)
        sub = "_".join(f"{k}={_slug(v)}" for k, v in zip(keys, combo)) or "single"
        raw.update(dict(zip(keys, combo)))
        raw["output_dir"] = str(base_dir / sub)
        entries.append(raw)
    # Validate everything before launching any work.
    for raw in entries:
        build_config(raw)
    max_workers = min(max_workers, len(entries), os.cpu_count() or 1)
    if max_workers <= 1:
        return [_run_sweep_entry(raw) for raw in entries]
    # Imported here: loading the pool (and multiprocessing) costs every
    # other CLI verb ~20 ms.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(_run_sweep_entry, entries))
