"""Measurement loop of the benchmark: set-up probes, warm-up, timed units,
correctness gates, the environment record and the result record.

Untraced runs (``trace=False``) give the end-to-end metrics.  Traced runs
alternate untraced and traced units and give the per-layer metrics; the
difference of their scaled unit times is the tracing overhead.

The speed of a shared machine moves between modes that last seconds to
minutes (on the 2-core VM this was written on, the same unit took 1.0 s
or 1.6 s depending on the minute).  So every timed part is followed by a
fixed numpy calibration kernel, and end-to-end times are reported in
reference seconds: each part's time scaled by ``CAL_REF_S`` over the mean
of the kernel times just before and after it.  The raw times stay in the
record.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import tracing
import workloads

SETUP_PROBES = 5
# Set-up is imports and the construction of small objects, not array
# work, so it is scaled by the small-array kernel whatever the workload.
SETUP_CAL_SIZE = 1024
PROBE_TIMEOUT_S = 60
# A part timed while the calibration kernel takes CAL_REF_S counts at its
# measured time; a round number, not fitted to any machine.
CAL_REF_S = 0.01

END_TO_END_UNITS = {"wall_s": "s", "cell_steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    name: tracing.unit_of(name)
    for name in (*tracing.layer_metrics(tracing.SpanTable.from_spans([])),
                 "runner.bytes_written", "runner.snapshots", "trace.wall_s", "trace.overhead_s")
}

_PROBE = """
import sys, time
root, name, seed, toy, workdir = sys.argv[1:6]
sys.path[:0] = [root + "/src", root + "/perfbench"]
t0 = time.perf_counter()
import workloads
workloads.setup(name, int(seed), toy == "1", workdir)
print(repr(time.perf_counter() - t0))
"""


def calibrate(size: int) -> float:
    """Time of a fixed numpy kernel, array arithmetic like the steppers' on
    ``size`` values (~10 ms).  It runs no lowmach code, so no change to
    lowmach can move it."""
    a = np.linspace(1.0, 2.0, size)
    t0 = perf_counter()
    for _ in range(max(200, 600 * 1024 // size)):
        c = np.roll(a, 1) * a + a
        float(np.max(np.abs(c)))
    return perf_counter() - t0


def tail_percentile(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10  # samples[rank - 1] has exactly ten samples above it
    return round(100.0 * rank / n, 1), sorted(samples)[rank - 1]


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = root / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "lowmach").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "seed": seed,
    }


def probe_setup(root: Path, name: str, seed: int, toy: bool, workdir: Path) -> float:
    """Set-up time of the workload in a fresh interpreter: import of lowmach
    (with numpy and scipy) and problem construction, up to the first step."""
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(root), name, str(seed), "1" if toy else "0", str(workdir)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True, cwd=root,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Runner:
    """Runs units of one workload, times their parts with a calibration
    after each, and keeps their results for the gates."""

    def __init__(self, job):
        self.job = job
        self.results = []
        self.errors = []
        self.count = 0
        self.calibrations = [calibrate(job.calibration_size)]

    def scaled(self, elapsed: float) -> float:
        """Calibrate, and scale ``elapsed`` (just measured) to reference s."""
        self.calibrations.append(calibrate(self.job.calibration_size))
        return elapsed * CAL_REF_S / (0.5 * (self.calibrations[-2] + self.calibrations[-1]))

    def unit(self):
        """Run one unit; returns (raw s, scaled per-part s or None on failure)."""
        index, self.count = self.count, self.count + 1
        parts, raw = [], 0.0
        steps = self.job.unit(index)
        try:
            while True:
                t0 = perf_counter()
                try:
                    next(steps)
                except StopIteration as done:
                    self.results.append(done.value)
                    return raw, parts
                elapsed = perf_counter() - t0
                raw += elapsed
                parts.append(self.scaled(elapsed))
        except Exception as exc:  # a failed unit is counted, the run goes on
            self.errors.append(f"unit {index}: {exc!r}")
            return raw, None

    def gate(self):
        """(attempted, failed, problems, unit outputs) over every unit run."""
        ops = self.job.ops_per_unit
        attempted, failed = len(self.errors) * ops, len(self.errors) * ops
        problems = list(self.errors)
        digests = set()
        outputs = []
        for result in self.results:
            check = self.job.check(result)
            attempted += check.attempted
            failed += check.failed
            problems += check.problems
            digests.add(check.digest)
            outputs.append(check.outputs)
        if len(digests) > 1:
            problems.append(f"outputs differ between repeats ({len(digests)} distinct)")
        return attempted, failed, problems, outputs


def _time_units(runner: Runner, seconds: float, traced=None):
    """Run units until the next one would end after ``seconds``.  With
    ``traced`` (a Tracer), alternate untraced and traced units.  Returns
    the raw unit times and scaled part times of the untraced units and of
    the traced units, and per traced unit its spans and the factor that
    scales its raw times to reference seconds."""
    plain, parts, traced_wall, traced_parts, spans = [], [], [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        if traced is not None and len(traced_wall) < len(plain):
            traced.install()
            try:
                elapsed, unit_parts = runner.unit()
            finally:
                traced.uninstall()
            traced_wall.append(elapsed)
            spans.append((traced.take(), sum(unit_parts) / elapsed if unit_parts else 1.0))
            if unit_parts is not None:
                traced_parts.append(unit_parts)
        else:
            elapsed, unit_parts = runner.unit()
            plain.append(elapsed)
            if unit_parts is not None:
                parts.append(unit_parts)
        now = perf_counter()
        if now - start + (now - t0) > seconds and (traced is None or traced_wall):
            return plain, parts, traced_wall, traced_parts, spans


def sum_of_part_medians(parts) -> float:
    """Time to solution of one unit, as the sum over its parts of each
    part's median over the repeats."""
    return float(sum(statistics.median(p) for p in zip(*parts)))


def _setup_samples(root, name, seed, toy, workdir, probes):
    """Raw and scaled times of ``probes`` fresh-interpreter set-ups, and
    the calibration kernel times around them."""
    raw, scaled, cal = [], [], [calibrate(SETUP_CAL_SIZE)]
    for _ in range(probes):
        raw.append(probe_setup(root, name, seed, toy, workdir))
        cal.append(calibrate(SETUP_CAL_SIZE))
        scaled.append(raw[-1] * CAL_REF_S / (0.5 * (cal[-2] + cal[-1])))
    return raw, scaled, cal


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, out_dir: Path,
        toy: bool = False) -> dict:
    """One benchmark run; returns the result record (see README.md)."""
    workdir = out_dir / "work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "seed_used": workloads.WORKLOADS[name].uses_seed,
              "environment": environment(root, seed)}

    job = workloads.setup(name, seed, toy, workdir)
    probes = 0 if trace else 1 if toy else SETUP_PROBES
    setup_raw, setup_scaled, setup_cal = _setup_samples(root, name, seed, toy, workdir, probes)
    runner = Runner(job)

    # Warm-up unit, untimed; it also counts the unit's steps and cells with
    # the step spans alone, as the end-to-end throughput needs them.
    counter = tracing.Tracer()
    counter.install(tracing.STEP_TARGETS)
    try:
        runner.unit()
    finally:
        counter.uninstall()
    steps, cell_steps = tracing.cell_steps(counter.take())
    warmup_problems = [f"step target absent: {t}" for t in counter.absent]
    if cell_steps == 0:
        warmup_problems.append("no time step counted in the warm-up unit")

    tracer = tracing.Tracer() if trace else None
    plain, parts, traced_wall, traced_parts, spans = _time_units(runner, seconds, tracer)
    attempted, failed, problems, outputs = runner.gate()
    problems = warmup_problems + problems

    plain_median = statistics.median(plain)
    # With no unit finished, fall back to the raw time; ``correct`` is false.
    wall = sum_of_part_medians(parts) if parts else plain_median
    record.update({
        "units": len(plain), "unit_s": plain, "part_s": parts, "calibration_s": runner.calibrations,
        "wall_s": wall, "wall_s_raw_median": plain_median, "wall_s_raw_min": min(plain),
        "wall_s_raw_tail": tail_percentile(plain),
        "steps_per_unit": steps, "cell_steps_per_unit": cell_steps,
        "attempted": attempted, "failed": failed, "failed_ratio": failed / max(attempted, 1),
        "problems": problems,
    })
    if trace:
        metrics, details = _layer_metrics(spans, traced_wall, sum_of_part_medians(traced_parts),
                                          wall, outputs, tracer.absent)
        if details.pop("counts_differ"):
            problems.append("per-unit counts differ between traced units")
        if metrics["workload.cell_steps"] != cell_steps:
            problems.append("traced cell-steps differ from the warm-up count")
        problems += [f"layer {k} reads 0" for k in job.traced_layers if not metrics[k]]
        record.update(details)
        _write_spans(out_dir / f"spans-{name}-seed{seed}.npz", [table for table, _ in spans])
    else:
        metrics = {
            "wall_s": wall,
            "cell_steps_per_s": cell_steps / wall,
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update({"setup_s_raw": setup_raw, "setup_s_scaled": setup_scaled,
                       "setup_calibration_s": setup_cal})
    record["metrics"] = metrics
    record["correct"] = failed == 0 and not problems and attempted > 0 and bool(parts)
    try:
        workdir.rmdir()
    except OSError:
        pass
    return record


def _layer_metrics(spans, traced_wall, traced_scaled, plain_scaled, outputs, absent):
    # Layer times are scaled to reference seconds like the end-to-end ones,
    # by the factor of the unit they were measured in.
    per_unit = [{k: v * scale if tracing.unit_of(k) in ("s", "us") else v
                 for k, v in tracing.layer_metrics(table).items()}
                for table, scale in spans]
    # Output sizes are the same for every unit (the gate compares digests).
    for metrics in per_unit:
        metrics["runner.bytes_written"] = outputs[-1].get("bytes_written", 0) if outputs else 0
        metrics["runner.snapshots"] = outputs[-1].get("snapshots", 0) if outputs else 0
    merged = {name: [m[name] for m in per_unit] for name in per_unit[0]}
    counts_differ = any(len(set(v)) > 1 for k, v in merged.items() if tracing.unit_of(k) not in ("s", "us"))
    metrics = {k: statistics.median(v) for k, v in merged.items()}
    metrics["trace.wall_s"] = traced_scaled
    metrics["trace.overhead_s"] = traced_scaled - plain_scaled
    details = {
        "traced_units": len(traced_wall), "traced_unit_s": traced_wall,
        "absent_targets": absent,
        "self_share": tracing.self_shares(spans[-1][0], traced_wall[-1]),
        "counts_differ": counts_differ,
    }
    return metrics, details


def _write_spans(path: Path, tables):
    names = sorted({n for t in tables for n in t.names})
    ids = {n: i for i, n in enumerate(names)}
    parts = {k: [] for k in ("unit", "name_id", "start", "end", "parent", "raised", "value")}
    for unit, t in enumerate(tables):
        remap = np.array([ids[n] for n in t.names], dtype=np.int32)
        parts["unit"].append(np.full(len(t.start), unit, dtype=np.int32))
        parts["name_id"].append(remap[t.name_id])
        for key in ("start", "end", "parent", "raised", "value"):
            parts[key].append(getattr(t, key))
    np.savez_compressed(path, names=np.array(names), **{k: np.concatenate(v) for k, v in parts.items()})
