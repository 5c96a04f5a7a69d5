"""Experiment orchestration: time loops, CSV/manifest output, and the
table-reproduction commands.

Exit statuses (also used by the CLI): 0 success, 2 config error, 3
numerical failure (instability / positivity / solver), 4 I/O error.

The tables build every case as a run config (:func:`_table_case`) before
any work, so ``run``'s rules check it; only a table's own shape is checked
here.  Every verb builds its case through :func:`_case`, the one place a
config picks its step function and the CFL wave speed of that step.  The
speed comes from the step's own evaluation of its wave speeds, which a run
on the CFL rule hands to the step, so each state's speeds are evaluated
once.

Every CSV value is written as ``%.17g``.  A run builds its snapshot format
once, with the grid columns already formatted into it, so each snapshot
formats only the density and the momenta, and it hashes each output for
the manifest from the bytes it writes, without reading them back.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from itertools import product
from math import ceil, isfinite
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .config import RunConfig, build_config, build_problem, config_to_dict, scheme_params
from .core import FluidState1D, Grid2D
from .diagnostics import _sample_indices, relative_l2_error, total_variation
from .errors import ConfigError, InstabilityError, NumericsError
from .handoff import (MAX_STEPS, _max_speed, check_dt_advances, check_step_count,
                      float_error_boundary)
from .onedim import (_ap_speeds, _explicit_speeds, _ice_speeds, max_stable_dt_scan, step_ap_1d,
                     step_explicit_llf_1d, step_ice_1d)
from .twodim import _speeds_2d, step_ap_2d

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


def _write_text(path: Path, text: str):
    path.write_text(text, encoding="utf-8")


def _values(columns) -> tuple:
    """The values of the equal-length ``columns``, row by row."""
    return tuple(np.column_stack(columns).ravel().tolist())


def _write_hashed(path: Path, text: str) -> str:
    """Write ``text`` to ``path``; returns ``sha256:`` and the hex SHA-256
    of the bytes written, the manifest's entry for the file."""
    data = text.encode()
    path.write_bytes(data)
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _write_csv(path: Path, header: str, columns) -> str:
    """One row per index of the equal-length ``columns``, every value as
    ``%.17g``: the bytes of ``np.savetxt(fmt="%.17g")``, formatted in one
    pass.  Returns the file's manifest hash (:func:`_write_hashed`)."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    return _write_hashed(path, header + "\n" + row * len(columns[0]) % _values(columns))


def _snapshot_writer(grid):
    """Writer ``(path, state)`` of the snapshot CSVs of a run on ``grid``:
    x,rho,q in 1D, x,y,rho,q1,q2 in 2D, with the bytes of
    :func:`_write_csv`, and returning the file's manifest hash.  The grid
    columns are formatted into the format once, here; a snapshot formats
    only its state's fields."""
    if isinstance(grid, Grid2D):
        coords = [v.ravel() for v in np.meshgrid(*grid.cell_centers(), indexing="ij")]
        header, names = "x,y", ("rho", "q1", "q2")
    else:
        coords, header, names = [grid.cell_centers()], "x", ("rho", "q")
    # "%%.17g" comes out of the coordinates' pass as a field's "%.17g".
    row = ",".join(["%.17g"] * len(coords) + ["%%.17g"] * len(names)) + "\n"
    fmt = ",".join((header, *names)) + "\n" + row * len(coords[0]) % _values(coords)

    def write(path: Path, state):
        fields = [getattr(state, name).ravel() for name in names]
        return _write_hashed(path, fmt % _values(fields))

    return write


class _Case(NamedTuple):
    """A config's grid, initial state and scheme (:func:`_case`)."""

    grid: object
    state: object
    # step(state, dt, speeds=None) -> (state, StepReport)
    step: Callable
    # speed(state) -> the CFL wave speed, the max_wave_speed a step reports
    speed: Callable
    # speeds(state) -> (speed(state), the evaluation behind it), which a
    # step of that state takes as ``speeds`` instead of evaluating it again
    speeds: Callable


def _case(cfg: RunConfig) -> _Case:
    """The :class:`_Case` of ``cfg``, from one dispatch on its dimension and
    stepper: the scheme's step, and its CFL wave speed from the scheme's own
    evaluation of its wave speeds (``_ap_speeds``, ``_explicit_speeds``,
    ``_ice_speeds`` or ``_speeds_2d``).  That evaluation runs without float
    warnings, so a speed that overflows reads inf, or nan where alpha = 0
    meets p' = inf: the caller decides what a speed that is not finite
    means."""
    eos, grid, state = build_problem(cfg)
    params = scheme_params(cfg)
    dx, alpha = grid.dx, params.alpha
    if cfg.dimension == 2:
        stencil, dy = cfg.stencil, grid.dy
        evaluate = lambda st: _speeds_2d(st, eos, alpha)
        step = lambda st, dt, speeds=None: step_ap_2d(st, eos, params, stencil, dt, dx, dy,
                                                      speeds=speeds)
    elif cfg.stepper == "ap":
        variant = cfg.variant
        evaluate = lambda st: _ap_speeds(st, eos, alpha)
        step = lambda st, dt, speeds=None: step_ap_1d(st, eos, params, variant, dt, dx,
                                                      speeds=speeds)
    elif cfg.stepper == "explicit_llf":
        evaluate = lambda st: _explicit_speeds(st, eos, params.epsilon)
        step = lambda st, dt, speeds=None: step_explicit_llf_1d(st, eos, params, dt, dx,
                                                                speeds=speeds)
    else:
        evaluate = _ice_speeds
        step = lambda st, dt, speeds=None: step_ice_1d(st, eos, params, dt, dx, speeds=speeds)

    def speeds(st):
        with np.errstate(over="ignore", invalid="ignore"):
            evaluation = evaluate(st)
            return _max_speed(evaluation.cell), evaluation

    return _Case(grid, state, step, lambda st: speeds(st)[0], speeds)


def run(cfg: RunConfig) -> RunResult:
    """Integrate to t_final, writing snapshot CSVs, a per-step report log
    and a manifest.  Returns a RunResult whose status mirrors the CLI exit
    code (0 success, 3 numerical failure).  A fixed dt was checked with the
    config; a run on the CFL rule that has taken MAX_STEPS steps without
    reaching t_final is a numerical failure."""
    grid, state, step, _, speeds = _case(cfg)
    snapshot = _snapshot_writer(grid)
    length = min(grid.dx, grid.dy) if cfg.dimension == 2 else grid.dx

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Each output's manifest hash, taken from the bytes as they are written.
    outputs = {}
    snapshots = sorted(cfg.snapshot_times or (cfg.t_final,))
    step_rows = []
    t = 0.0
    nstep = 0
    status = STATUS_OK
    message = "completed"
    try:
        with float_error_boundary():
            while True:
                # Every snapshot due at t, then the next step; outputs holds
                # only snapshots until the loop ends.
                while snapshots and t >= snapshots[0] - _EVENT_TOL:
                    name = f"snapshot_{len(outputs):03d}.csv"
                    outputs[name] = snapshot(out_dir / name, state)
                    snapshots.pop(0)
                if t >= cfg.t_final - _EVENT_TOL:
                    break
                evaluation = None
                if cfg.dt is not None:
                    dt = cfg.dt
                else:
                    if nstep >= MAX_STEPS:
                        raise InstabilityError(f"the CFL rule took {MAX_STEPS} steps, the most a "
                                               f"run may take, without reaching t_final")
                    lam, evaluation = speeds(state)
                    if lam == 0.0:
                        dt = cfg.t_final - t
                    else:
                        # 0 or nan where the speed is not finite or dt underflows;
                        # inf, where the speed is tiny, is cut to the next event.
                        dt = cfg.sigma * length / lam
                        if not dt > 0.0:
                            raise InstabilityError(f"CFL wave speed {lam:.3g} gives the adaptive "
                                                   f"time step dt = {dt:.3g}")
                check_dt_advances(dt, cfg.t_final)
                next_event = snapshots[0] if snapshots else cfg.t_final
                dt = min(dt, next_event - t, cfg.t_final - t)
                state, report = step(state, dt, speeds=evaluation)
                t += dt
                nstep += 1
                step_rows.append((nstep, t, dt, report.max_wave_speed,
                                  report.mass_total, report.momentum_total,
                                  report.momentum2_total, report.consistency_residual,
                                  report.newton_iters, report.linear_iters))
    except NumericsError as exc:
        status = STATUS_NUMERICAL
        message = f"numerical failure at step {nstep + 1} (t={t:.6g}): {exc}"

    # The integer columns print as integers under %.17g too.
    steps_table = np.array(step_rows, dtype=float).reshape(-1, len(_STEPS_COLUMNS))
    outputs["steps.csv"] = _write_csv(out_dir / "steps.csv", ",".join(_STEPS_COLUMNS),
                                      steps_table.T)
    _write_manifest(out_dir, cfg, status, message, outputs)
    return RunResult(status=status, message=message, output_dir=out_dir,
                     outputs=tuple(outputs), steps_taken=nstep, final_time=t)


def _write_manifest(out_dir: Path, cfg: RunConfig, status: int, message: str, hashes: dict):
    """manifest.json: the config, the outcome and ``hashes``, each output's
    name and the hash its writer returned."""
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
    if not (np.isfinite(dx) and dx > 0.0 and 1.0 / dx < np.inf):
        raise ConfigError(f"dx must be > 0 with a finite 1/dx, got {dx}")
    return round(1.0 / dx)


def _check_table_shape(eps_list, has_grid) -> None:
    """A table computes something: at least one epsilon and one grid."""
    if not eps_list:
        raise ConfigError("nothing to compute: the epsilon list is empty")
    if not has_grid:
        raise ConfigError("nothing to compute: no grid (empty dx list, or refinement_levels < 1)")


def _table_case(epsilon, m, t_final, **keys) -> RunConfig:
    """Config of a table case: example1 at ``epsilon`` on ``m`` cells and
    the case's own ``keys``."""
    return build_config(dict(preset="example1", epsilon=epsilon, m=m, t_final=t_final, **keys))


def reproduce_table1(eps_list, dx_list, variant="ld", t_final=0.1, output_path=None):
    """Stability scan over (epsilon, dx): the largest stable dt of the
    semi-implicit scheme (alpha = 1) on the stacked-Riemann preset, with the
    observed maximal wave speed and the implied Courant number."""
    cell_counts = [_cells_for(dx) for dx in dx_list]
    _check_table_shape(eps_list, cell_counts)
    cases = [_table_case(eps, m, t_final, variant=variant)
             for eps in eps_list for m in cell_counts]
    rows = []
    for cfg in cases:
        grid, state, step, speed, _ = _case(cfg)
        lam0 = speed(state)
        # max_lambda is that of the scan's accepted trial, the run at
        # stable_dt, so the run is not repeated.
        stable_dt, max_lambda = max_stable_dt_scan(state, step, t_final, 0.05 * grid.dx / lam0,
                                                   4.0 * grid.dx / lam0)
        rows.append({
            "epsilon": cfg.epsilon,
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


def table2_dt(eps: float, dx: float, lam0: float, t_final: float) -> float:
    """Time step of a Table 2 run: t_final / n, with n the fewest steps
    whose dt does not exceed the rule's (to 1e-12), so that n steps land on
    t_final.  At the published ratios and t_final = 0.1 that is the rule's
    dt itself.  A rule dt that cannot reach t_final in MAX_STEPS steps is an
    InstabilityError."""
    rule = _TABLE2_DT_RULE.get(round(eps, 10))
    dt_max = dx / rule if rule is not None else 0.7 * dx / (2.0 * lam0)
    check_dt_advances(dt_max, t_final)
    check_step_count(dt_max, t_final)
    # A quotient a rounding error above a whole count is that count, so an
    # exact multiple keeps its n.
    return t_final / ceil(t_final / dt_max * (1.0 - 1e-12))


def reference_solution(eps: float, cells=None, inv_dt=None, t_final=0.1, refine=4):
    """Explicit-LLF reference for the error tables, on the ``cells``-point
    reference grid.

    The first-order run is performed at ``refine`` times the reference
    resolution (with the nominal time step CFL-scaled when the full wave
    speed requires it) and restricted to the reference grid by nearest-center
    sampling.  At the reference resolution alone the first-order smearing is
    not yet converged for O(1) Mach shocks, and the published error table is
    only reproduced against a converged reference; refine=1 recovers the
    plain single-grid run.  The run takes ``t_final * inv_dt`` nominal steps,
    so a product that is not a whole number >= 1 (to 1e-9 relative) is a
    ConfigError.  A time step that cannot advance t to ``t_final``, or needs
    more than MAX_STEPS steps to reach it, is an InstabilityError.  Both are
    raised before the first step.
    """
    cells = TABLE_REFERENCE[0] if cells is None else cells
    inv_dt = TABLE_REFERENCE[1] if inv_dt is None else inv_dt
    fine_cells = cells * refine
    cfg = _table_case(eps, fine_cells, t_final, alpha=0.0, stepper="explicit_llf")
    nominal_steps = t_final * inv_dt
    if not (isfinite(nominal_steps) and nominal_steps >= 0.5
            and abs(nominal_steps - round(nominal_steps)) <= 1e-9 * nominal_steps):
        raise ConfigError(f"t_final = {t_final:.6g} is not a whole positive number of steps "
                          f"of 1/inv_dt, inv_dt = {inv_dt:.6g}")
    _, state, step, speed, _ = _case(cfg)
    lam0 = speed(state)
    # integer multiple of the nominal rate keeping the explicit CFL <= 0.45
    k = max(1, int(np.ceil(lam0 * fine_cells / (0.45 * inv_dt))))
    dt = 1.0 / (k * inv_dt)
    check_dt_advances(dt, t_final)
    check_step_count(dt, t_final)
    with float_error_boundary():
        for _ in range(int(round(nominal_steps)) * k):
            state, _ = step(state, dt)
    if refine == 1:
        return state
    idx = _sample_indices(cells, fine_cells)
    return FluidState1D(rho=state.rho[idx], q=state.q[idx])


def reproduce_table2(eps_list, refinement_levels=5, t_final=0.1, variant="ld",
                     output_path=None, reference_states=None):
    """Relative-error table: semi-implicit runs (alpha = 1) on halving grids
    of 20, 40, ... cells against the fine explicit reference, with
    successive error ratios; each level's cell count must divide the
    reference's.  Each level lands on ``t_final`` in equal steps
    (:func:`table2_dt`); one whose time step cannot reach it in MAX_STEPS
    steps is an InstabilityError before its first step, as in
    :func:`reference_solution`."""
    _check_table_shape(eps_list, refinement_levels >= 1)
    refs = reference_states or {}
    ref_cells = [refs[eps].m if eps in refs else TABLE_REFERENCE[0] for eps in eps_list]
    # Level by level: a table of many levels stops at the first bad one.
    levels = []
    for level in range(refinement_levels):
        m = 20 * 2**level
        levels.append([_table_case(eps, m, t_final, variant=variant)
                       for eps in eps_list])
        for ref_m in ref_cells:
            if ref_m % m:
                raise ConfigError(f"level {level} has {m} cells, which do not divide the "
                                  f"{ref_m} cells of the reference")
    rows = []
    # levels[level][i] is the case of eps_list[i].
    with float_error_boundary():
        for eps, cases in zip(eps_list, zip(*levels)):
            ref = refs[eps] if eps in refs else reference_solution(eps, t_final=t_final)
            prev = None
            for cfg in cases:
                grid, state, step, speed, _ = _case(cfg)
                dt = table2_dt(eps, grid.dx, speed(state), t_final)
                for _ in range(round(t_final / dt)):
                    state, _ = step(state, dt)
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


def compare_ice(epsilon, dx, dt, t_final, output_dir=None):
    """Run the semi-implicit scheme (alpha=1, variant ld) and the
    predictor/corrector baseline side by side on the stacked-Riemann preset;
    report solutions and total variation of each.  ``dt`` is a fixed dt of
    the cases' configs, checked as ``run``'s is."""
    m = _cells_for(dx)
    ap_case = _table_case(epsilon, m, t_final, alpha=1.0, variant="ld", dt=dt)
    # The predictor/corrector baseline solves on the three-point stencil.
    ice_case = _table_case(epsilon, m, t_final, alpha=1.0, stepper="ice", dt=dt)
    # dt is not cut to t_final: the runs take ceil(t_final/dt) steps of dt.
    check_dt_advances(dt, t_final)
    grid, ap_state, ap_step, *_ = _case(ap_case)
    _, ice_state, ice_step, *_ = _case(ice_case)
    n_steps = int(np.ceil(t_final / dt))

    with float_error_boundary():
        for _ in range(n_steps):
            ap_state, _ = ap_step(ap_state, dt)
            ice_state, _ = ice_step(ice_state, dt)
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
        tv = "method,tv_rho,tv_q\nap,%.17g,%.17g\nice,%.17g,%.17g\n" % (
            result["tv_rho_ap"], result["tv_q_ap"], result["tv_rho_ice"], result["tv_q_ice"])
        _write_text(out / "compare_ice_tv.csv", tv)
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


def run_sweep(base_raw: dict, varied: dict, output_dir):
    """Cartesian product of the varied keys, one run per combination in its
    own subdirectory; combinations run concurrently on at most
    min(workers, combinations, CPUs) processes, with workers the
    LOWMACH_SWEEP_PROCS environment variable where set.

    Every part of the spec is run or refused: a varied key with no value or
    with a value twice, and an ``output_dir`` in the base or among the
    varied keys (each run writes to its own subdirectory of ``output_dir``),
    are a ConfigError, raised before any run."""
    if "output_dir" in base_raw or "output_dir" in varied:
        raise ConfigError("a sweep writes each run to its own subdirectory of the sweep "
                          "directory: output_dir can be neither set nor varied")
    for key, values in varied.items():
        if not values:
            raise ConfigError(f"nothing to compute: the values of the varied key {key} are empty")
        if len({_slug(v) for v in values}) < len(values):
            raise ConfigError(f"the varied key {key} lists a value twice (one entry directory): "
                              f"{values}")
    workers = _sweep_procs_from_env() or os.cpu_count() or 1
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
    workers = min(workers, len(entries), os.cpu_count() or 1)
    if workers <= 1:
        return [_run_sweep_entry(raw) for raw in entries]
    # Imported here: loading the pool (and multiprocessing) costs every
    # other CLI verb ~20 ms.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers) as pool:
        return list(pool.map(_run_sweep_entry, entries))
