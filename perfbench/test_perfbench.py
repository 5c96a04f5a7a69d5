"""Tests of the benchmark itself, at toy size:

    python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import lowmach.onedim  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _toy(name, trace, tmp_path, seed=3):
    return bench.run(name, seed, 0.01, trace, ROOT, tmp_path, toy=True)


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.LAYER_UNITS
    for job in workloads.WORKLOADS.values():
        assert set(job.traced_layers) <= set(bench.LAYER_UNITS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_reports_every_metric(name, tmp_path):
    plain = _toy(name, False, tmp_path)
    assert plain["correct"], plain["problems"]
    assert plain["attempted"] > 0 and plain["failed"] == 0
    assert set(plain["metrics"]) == set(bench.END_TO_END_UNITS)
    assert all(v > 0 for v in plain["metrics"].values())

    traced = _toy(name, True, tmp_path)
    assert traced["correct"], traced["problems"]
    assert set(traced["metrics"]) == set(bench.LAYER_UNITS)
    assert traced["absent_targets"] == []
    assert traced["metrics"]["workload.cell_steps"] == plain["cell_steps_per_unit"] > 0
    assert (tmp_path / f"spans-{name}-seed3.npz").is_file()
    assert not any((tmp_path / "work").iterdir())


@pytest.mark.parametrize("name", ["run1d", "ap2d_lowmach"])
def test_counts_repeat_between_runs(name, tmp_path):
    first, second = (_toy(name, True, tmp_path)["metrics"] for _ in range(2))
    counts = [k for k, unit in bench.LAYER_UNITS.items() if unit in ("count", "B")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_layer_that_reads_zero_fails_the_traced_gate(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.Reference1D, "traced_layers",
                        workloads.Reference1D.traced_layers + ("twodim.step_ap_2d.calls",))
    record = _toy("reference1d", True, tmp_path)
    assert not record["correct"]
    assert "layer twodim.step_ap_2d.calls reads 0" in record["problems"]


def test_absent_step_target_fails_the_untraced_gate(tmp_path, monkeypatch):
    monkeypatch.setattr(tracing, "STEP_TARGETS", (
        tracing.Target("lowmach.onedim", "no_such_step", "onedim.step_explicit_llf_1d", tracing._cells),
    ))
    record = _toy("reference1d", False, tmp_path)
    assert not record["correct"]
    assert record["metrics"]["cell_steps_per_s"] == 0
    assert record["problems"][:2] == [
        "step target absent: lowmach.onedim.no_such_step",
        "no time step counted in the warm-up unit",
    ]


def test_missing_wrap_target_is_reported_absent():
    tracer = tracing.Tracer()
    original = lowmach.onedim.step_ap_1d
    tracer.install((
        tracing.Target("lowmach.onedim", "no_such_function", "x"),
        tracing.Target("lowmach.no_such_module", "f", "y"),
        tracing.Target("lowmach.core", "EquationOfState.no_such_method", "z"),
        tracing.Target("lowmach.onedim", "step_ap_1d", "onedim.step_ap_1d"),
    ))
    try:
        assert lowmach.onedim.step_ap_1d is not original
    finally:
        tracer.uninstall()
    assert lowmach.onedim.step_ap_1d is original
    assert tracer.absent == [
        "lowmach.onedim.no_such_function",
        "lowmach.no_such_module.f",
        "lowmach.core.EquationOfState.no_such_method",
    ]
    tracer.install((tracing.Target("lowmach.onedim", "no_such_function", "x"),))
    tracer.uninstall()
    assert tracer.absent == ["lowmach.onedim.no_such_function"]


def test_self_time_subtracts_direct_children():
    spans = [
        ["outer", 0.0, 10.0, -1, False, 0.0],
        ["inner", 1.0, 4.0, 0, False, 0.0],
        ["leaf", 2.0, 3.0, 1, True, 0.0],
        ["inner", 5.0, 7.0, 0, False, 0.0],
    ]
    agg = tracing.SpanTable.from_spans(spans).aggregate()
    assert agg["outer"]["self_s"] == pytest.approx(5.0)
    assert agg["inner"] == {"calls": 2, "s": 5.0, "self_s": 4.0, "raised": 0, "value": 0.0}
    assert agg["leaf"]["raised"] == 1


class _Job:
    """Two-part unit whose second part raises when ``fail`` is set."""

    ops_per_unit = 2
    calibration_size = 1024

    def __init__(self, fail):
        self.fail = fail

    def unit(self, index):
        yield
        if self.fail:
            raise RuntimeError("boom")
        yield
        return index

    def check(self, result):
        return workloads.Check(2, 0, digest="same")


def test_runner_times_parts_and_counts_failed_units():
    runner = bench.Runner(_Job(fail=False))
    raw, parts = runner.unit()
    assert len(parts) == 2 and raw >= 0 and len(runner.calibrations) == 3
    assert runner.results == [0]

    failing = bench.Runner(_Job(fail=True))
    assert failing.unit()[1] is None
    attempted, failed, problems, _ = failing.gate()
    assert (attempted, failed) == (2, 2) and "boom" in problems[0]


def test_tail_percentile_leaves_ten_samples_above():
    assert bench.tail_percentile(list(range(10))) is None
    pct, value = bench.tail_percentile(list(np.arange(40.0)))
    assert pct == 75.0 and value == 29.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "table1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
