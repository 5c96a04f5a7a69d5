"""The four benchmark workloads and their correctness gates.

Each workload is one closed loop: a single client in one process runs a
fixed unit of work, waits for it, checks it and runs the next.  The unit
is the same on every repeat of a run, so its time is a sample of one
time-to-solution and its counts repeat exactly.  ``unit`` is a
generator: it yields after each of its parts (a Table 1 cell, a 2D step,
or the whole unit when it is one call) and returns the unit's result, so
that the benchmark can time the parts one by one.  ``calibration_size``
is the array length of the benchmark's calibration kernel for the
workload: the 1D workloads work on arrays of at most a few thousand
values, the 2D one on 128 x 128, and a kernel of matching size follows
the machine's speed changes as the workload feels them.
``traced_layers`` are the per-layer metrics the unit must move: a traced
run in which one of them reads 0 fails its gate, so a wrapper that stops
seeing calls after a rename cannot pass unnoticed.

Calls into lowmach go through module attributes (``runner.reproduce_table1``,
``twodim.step_ap_2d``, ``cli.main``) so that the traced run, which rebinds
those names, sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lowmach import cli, config, runner, twodim
from lowmach.core import DtPolicy, FluidState2D, SchemeParams
from lowmach.presets import (
    example1_grid,
    example1_state,
    example3_eos,
    example3_grid,
    example3_state,
)

# Published Table 1: 1/dt of the largest stable step per (epsilon, cells).
TABLE1_PUBLISHED = {
    (0.8, 100): 340, (0.8, 200): 970, (0.8, 400): 2420, (0.8, 800): 5460,
    (0.3, 100): 260, (0.3, 200): 510, (0.3, 400): 1000, (0.3, 800): 2050,
    (0.05, 100): 260, (0.05, 200): 490, (0.05, 400): 960, (0.05, 800): 1920,
}
DT_FACTOR = 1.3
COURANT_WINDOW = (0.7, 1.4)
CONSERVATION_RTOL = 1e-12


@dataclass
class Check:
    """Outcome of a unit's correctness gate."""

    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    digest: str = ""
    outputs: dict = field(default_factory=dict)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _drift(values, reference, scale) -> float:
    return float(np.max(np.abs(np.asarray(values) - reference))) / scale


class Table1:
    """``reproduce_table1`` (variant ``ld``) over the coarsest row of the
    published Table 1: every epsilon at 100 cells, one cell per call.  All
    twelve cells take longer than one run; this row repeats about ten
    times in one.  The inputs are fixed by the paper, so the seed is not
    used."""

    name = "table1"
    uses_seed = False
    calibration_size = 1024
    traced_layers = (
        "runner.reproduce_table1.self_s",
        "onedim.max_stable_dt_scan.calls",
        "onedim.step_ap_1d.calls",
        "elliptic.solve_elliptic_ld_1d.calls",
        "tridiag.solve_periodic_tridiagonal.calls",
    )

    def __init__(self, seed: int, toy: bool, workdir: Path):
        self.cells = [(0.8, 1 / 100)] if toy else [(eps, 1 / 100) for eps in (0.8, 0.3, 0.05)]
        self.ops_per_unit = len(self.cells)
        # Problem construction of the first cell, as reproduce_table1 does it.
        eps, dx = self.cells[0]
        example1_state(example1_grid(round(1 / dx)), eps)
        SchemeParams(epsilon=eps, alpha=1.0, sigma=0.9)

    def unit(self, index: int):
        rows = []
        for eps, dx in self.cells:
            rows += runner.reproduce_table1([eps], [dx], variant="ld")
            yield
        return rows

    def check(self, rows) -> Check:
        problems = []
        bad_cells = set()
        for r in rows:
            key = (r["epsilon"], round(1 / r["dx"]))
            ratio = r["stable_dt"] * TABLE1_PUBLISHED[key]
            if not 1 / DT_FACTOR <= ratio <= DT_FACTOR:
                problems.append(f"dt ratio {ratio:.3f} at {key}")
                bad_cells.add(key)
            if not COURANT_WINDOW[0] <= r["courant"] <= COURANT_WINDOW[1]:
                problems.append(f"courant {r['courant']:.3f} at {key}")
                bad_cells.add(key)
        if len(rows) != self.ops_per_unit:
            problems.append(f"{len(rows)} rows, expected {self.ops_per_unit}")
        failed = len(bad_cells) + max(0, self.ops_per_unit - len(rows))
        digest = _digest([[r[k] for k in sorted(r)] for r in rows])
        return Check(self.ops_per_unit, failed, problems, digest)


class Run1D:
    """``lowmach run`` through ``cli.main``: example2 (gamma 1.4),
    epsilon 0.05, 1600 cells, variant ``nl``, sigma 0.9, adaptive dt to
    t = 0.125 (~280 steps), with 12 snapshot times drawn from the seed.
    A quarter of the t = 0.5 run, with the same snapshots per step, so
    that a run holds enough repeats for a steady median: the unit's time
    moves by ~10 % from one repeat to the next even after calibration,
    and a median of ~17 one-second units still spread by up to 9 %
    between runs."""

    name = "run1d"
    uses_seed = True
    ops_per_unit = 1
    calibration_size = 1024
    traced_layers = (
        "cli.main.self_s",
        "config.build_config.s",
        "runner.run.self_s",
        "onedim.step_ap_1d.calls",
        "elliptic.solve_elliptic_nl_1d.calls",
        "tridiag.solve_periodic_tridiagonal.calls",
    )

    def __init__(self, seed: int, toy: bool, workdir: Path):
        m, t_final, snapshots = (100, 0.05, 5) if toy else (1600, 0.125, 12)
        times = np.sort(np.random.default_rng(seed).uniform(0.0, t_final, snapshots))
        self.raw = {
            "preset": "example2", "epsilon": 0.05, "m": m, "variant": "nl",
            "sigma": 0.9, "t_final": t_final,
            "snapshot_times": ",".join(repr(float(t)) for t in times),
        }
        self.workdir = Path(workdir)
        cfg = config.build_config(dict(self.raw, output_dir="unused"))
        _, grid, state = runner.build_problem(cfg)
        self.mass0 = float(np.sum(state.rho) * grid.dx)

    def argv(self, out_dir: Path) -> list:
        argv = ["run"]
        for key, value in self.raw.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        return argv + ["--output-dir", str(out_dir)]

    def unit(self, index: int):
        out_dir = self.workdir / f"unit-{index:03d}"
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(self.argv(out_dir))
        yield
        return status, out_dir

    def check(self, result) -> Check:
        status, out_dir = result
        problems = []
        outputs = {}
        digest = ""
        try:
            if status != 0:
                problems.append(f"exit status {status}")
            manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
            for name, expected in manifest["outputs"].items():
                actual = "sha256:" + hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                if actual != expected:
                    problems.append(f"manifest hash mismatch for {name}")
            digest = hashlib.sha256(json.dumps(manifest["outputs"], sort_keys=True).encode()).hexdigest()
            mass = np.loadtxt(out_dir / "steps.csv", delimiter=",", skiprows=1, usecols=4, ndmin=1)
            drift = _drift(mass, self.mass0, abs(self.mass0))
            if not drift <= CONSERVATION_RTOL:
                problems.append(f"mass_total drift {drift:.3e}")
            files = [p for p in out_dir.iterdir() if p.is_file()]
            outputs = {
                "bytes_written": sum(p.stat().st_size for p in files),
                "snapshots": sum(p.name.startswith("snapshot_") for p in files),
            }
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return Check(1, int(bool(problems)), problems, digest, outputs)


class AP2DLowMach:
    """example3 at epsilon 0.005 on 128 x 128 cells, alpha 0, dt 1/512:
    10 steps with the reduced stencil, then 10 with the wide one.  The
    initial state is cyclically shifted by an offset drawn from the seed."""

    name = "ap2d_lowmach"
    uses_seed = True
    calibration_size = 128 * 128
    traced_layers = (
        "twodim.step_ap_2d.calls",
        "elliptic.solve_elliptic_2d.reduced.calls",
        "elliptic.solve_elliptic_2d.wide.calls",
    )
    epsilon = 0.005
    dt = 1 / 512

    def __init__(self, seed: int, toy: bool, workdir: Path):
        m, self.steps = (16, 2) if toy else (128, 10)
        self.ops_per_unit = 2 * self.steps
        self.grid = example3_grid(m, m)
        self.eos = example3_eos()
        base = example3_state(self.grid, self.epsilon)
        shift = tuple(int(s) for s in np.random.default_rng(seed).integers(0, m, 2))
        self.state0 = FluidState2D(*(np.roll(f, shift, axis=(0, 1)) for f in (base.rho, base.q1, base.q2)))
        self.params = SchemeParams(epsilon=self.epsilon, alpha=0.0, dt_policy=DtPolicy.fixed(self.dt))
        area = self.grid.dx * self.grid.dy
        fields = (self.state0.rho, self.state0.q1, self.state0.q2)
        self.totals0 = [float(np.sum(f) * area) for f in fields]
        # The momentum totals are ~0 on the shear wave; drift is measured
        # against the L1 norm of each field instead.
        self.scales = [max(abs(t), float(np.sum(np.abs(f)) * area)) for t, f in zip(self.totals0, fields)]

    def unit(self, index: int):
        state, reports = self.state0, []
        g = self.grid
        for stencil in ("reduced", "wide"):
            for _ in range(self.steps):
                state, report = twodim.step_ap_2d(state, self.eos, self.params, stencil, self.dt, g.dx, g.dy)
                reports.append(report)
                yield
        return state, reports

    def check(self, result) -> Check:
        state, reports = result
        failed = 0
        problems = []
        for k, rep in enumerate(reports):
            totals = (rep.mass_total, rep.momentum_total, rep.momentum2_total)
            drifts = [_drift(t, t0, s) for t, t0, s in zip(totals, self.totals0, self.scales)]
            bad = [f"{label} drift {d:.3e}" for label, d in zip(("mass", "q1", "q2"), drifts)
                   if not d <= CONSERVATION_RTOL]
            if not np.isfinite(rep.consistency_residual):
                bad.append("consistency_residual not finite")
            if bad:
                failed += 1
                problems.append(f"step {k + 1}: " + ", ".join(bad))
        digest = _digest(state.rho, state.q1, state.q2, [r.linear_iters for r in reports])
        return Check(self.ops_per_unit, failed, problems, digest)


class Reference1D:
    """The explicit-LLF reference of the error table at epsilon 0.8 and
    twice the 1280-cell reference resolution (2560 cells, dt = 1/128000),
    integrated to t = 0.025: the first quarter (3200 steps) of
    ``reference_solution(0.8, refine=2)``, so that a run holds enough
    repeats for a steady median.  It is called with the fine grid as its
    reference grid, so the full 2560-cell state comes back and its mass
    can be checked.  The inputs are fixed, so the seed is not used."""

    name = "reference1d"
    uses_seed = False
    ops_per_unit = 1
    calibration_size = 1024
    traced_layers = (
        "runner.reference_solution.self_s",
        "onedim.step_explicit_llf_1d.calls",
    )
    epsilon = 0.8

    def __init__(self, seed: int, toy: bool, workdir: Path):
        self.cells, self.inv_dt, self.t_final = (160, 8000, 0.01) if toy else (2560, 128000, 0.025)
        grid = example1_grid(self.cells)
        state = example1_state(grid, self.epsilon)
        self.mass0 = float(np.sum(state.rho) * grid.dx)
        self.dx = grid.dx

    def unit(self, index: int):
        state = runner.reference_solution(self.epsilon, cells=self.cells, inv_dt=self.inv_dt,
                                          t_final=self.t_final, refine=1)
        yield
        return state

    def check(self, state) -> Check:
        problems = []
        if not np.all(np.isfinite(state.rho)) or not np.all(state.rho > 0.0):
            problems.append("density not positive and finite")
        drift = _drift(np.sum(state.rho) * self.dx, self.mass0, abs(self.mass0))
        if not drift <= CONSERVATION_RTOL:
            problems.append(f"mass drift {drift:.3e}")
        return Check(1, int(bool(problems)), problems, _digest(state.rho, state.q))


WORKLOADS = {w.name: w for w in (Table1, Run1D, AP2DLowMach, Reference1D)}


def setup(name: str, seed: int, toy: bool, workdir: Path):
    """Construct the workload's problem: everything up to its first step.
    ``workdir`` receives the outputs of workloads that write files."""
    return WORKLOADS[name](seed, toy, workdir)
