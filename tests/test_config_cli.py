"""Config parsing, the run orchestrator, CSV/manifest output, CLI verbs."""

import concurrent.futures
import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import lowmach
from lowmach.cli import build_parser, main
from lowmach.config import _KEY_PARSERS, RunConfig, build_config, config_to_dict, parse_config_file
from lowmach.errors import ConfigError
from lowmach import runner as runner_module
from lowmach.runner import compare_ice, run_raw, run_sweep

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


BASIC = """
# stacked Riemann benchmark, quick settings
preset = example1
epsilon = 0.3
alpha = 1
m = 50
dt = 0.004
t_final = 0.02
variant = ld
"""


def test_parse_config_file(tmp_path):
    raw = parse_config_file(write_config(tmp_path, BASIC))
    assert raw["preset"] == "example1"
    assert raw["epsilon"] == "0.3"
    cfg = build_config(dict(raw, output_dir=str(tmp_path / "out")))
    assert isinstance(cfg, RunConfig)
    assert cfg.epsilon == 0.3 and cfg.m == 50
    assert cfg.dt_policy.kind == "fixed" and cfg.dt_policy.dt == 0.004


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, "preset = example1\nwhatever = 3\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)


def test_duplicate_key_rejected(tmp_path):
    path = write_config(tmp_path, "epsilon = 0.3\nepsilon = 0.4\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)


def test_contradictory_preset_override():
    with pytest.raises(ConfigError):
        build_config({"preset": "example1", "gamma": 1.4})
    with pytest.raises(ConfigError):
        build_config({"preset": "example2", "dimension": 2})
    # matching override is fine
    build_config({"preset": "example1", "gamma": 2.0})


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        build_config({"preset": "nope"})
    with pytest.raises(ConfigError):
        build_config({"t_final": -1.0})
    with pytest.raises(ConfigError):
        build_config({"stepper": "ice", "dimension": 2, "preset": "example3"})
    with pytest.raises(ConfigError):
        build_config({"snapshot_times": "0.5", "t_final": 0.1})
    with pytest.raises(ConfigError):
        build_config({"dt_policy": "fixed"})  # missing dt
    with pytest.raises(ConfigError):
        build_config({"dt_policy": "adaptive", "dt": 0.001})


def test_run_writes_snapshots_and_manifest(tmp_path):
    out = tmp_path / "out"
    result = run_raw({
        "preset": "example1", "epsilon": 0.3, "m": 50, "dt": 0.002,
        "t_final": 0.01, "variant": "ld", "output_dir": str(out),
        "snapshot_times": "0,0.005,0.01",
    })
    assert result.status == 0
    names = sorted(p.name for p in out.iterdir())
    assert "snapshot_000.csv" in names and "snapshot_002.csv" in names
    assert "steps.csv" in names and "manifest.json" in names

    snap = (out / "snapshot_000.csv").read_text().splitlines()
    assert snap[0] == "x,rho,q"
    assert len(snap) == 51

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == 0
    assert manifest["config"]["epsilon"] == 0.3
    for name, digest in manifest["outputs"].items():
        algo, hexd = digest.split(":")
        assert algo == "sha256"
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == hexd


def test_run_deterministic_outputs(tmp_path):
    raw = {"preset": "example1", "epsilon": 0.3, "m": 40, "dt": 0.002,
           "t_final": 0.01, "variant": "nl"}
    r1 = run_raw(dict(raw, output_dir=str(tmp_path / "a")))
    r2 = run_raw(dict(raw, output_dir=str(tmp_path / "b")))
    assert r1.status == r2.status == 0
    for name in ("snapshot_000.csv", "steps.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_2d_snapshot_schema(tmp_path):
    out = tmp_path / "out2d"
    result = run_raw({
        "preset": "example3", "epsilon": 0.8, "m1": 8, "m2": 8,
        "dt": 0.01, "t_final": 0.05, "stencil": "reduced", "output_dir": str(out),
    })
    assert result.status == 0
    snap = (out / "snapshot_000.csv").read_text().splitlines()
    assert snap[0] == "x,y,rho,q1,q2"
    assert len(snap) == 65
    # row-major over (i, j): the second row has the same x, next y
    r1 = snap[1].split(",")
    r2 = snap[2].split(",")
    assert r1[0] == r2[0] and float(r2[1]) > float(r1[1])


def test_run_adaptive_dt(tmp_path):
    out = tmp_path / "adapt"
    result = run_raw({
        "preset": "example1", "epsilon": 0.3, "m": 50,
        "t_final": 0.01, "sigma": 0.5, "variant": "ld", "output_dir": str(out),
    })
    assert result.status == 0
    lines = (out / "steps.csv").read_text().splitlines()
    assert result.final_time == pytest.approx(0.01)
    assert len(lines) > 2


def test_run_numerical_failure_status(tmp_path):
    out = tmp_path / "blowup"
    result = run_raw({
        "preset": "example1", "epsilon": 0.005, "m": 20, "dt": 0.002,
        "t_final": 0.01, "stepper": "explicit_llf", "output_dir": str(out),
    })
    assert result.status == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == 3
    assert "step" in manifest["message"]


def test_cli_run_exit_codes(tmp_path):
    code = main([
        "run", "--preset", "example1", "--epsilon", "0.05", "--m", "50",
        "--dt", "0.002", "--t-final", "0.01",
        "--output-dir", str(tmp_path / "cli_ok"),
    ])
    assert code == 0
    code = main(["run", "--preset", "bogus", "--output-dir", str(tmp_path / "x")])
    assert code == 2
    code = main([
        "run", "--preset", "example1", "--epsilon", "0.005", "--m", "20",
        "--dt", "0.002", "--t-final", "0.01", "--stepper", "explicit_llf",
        "--output-dir", str(tmp_path / "cli_fail"),
    ])
    assert code == 3


@pytest.mark.parametrize("flags", [
    [],
    ["--stepper", "ice"],
    ["--dimension", "2", "--m1", "8", "--m2", "8"],
])
def test_cli_run_mobility_underflow_exits_3(tmp_path, capsys, flags):
    # p' = 3 rho^2 of the valid density 1e-200 underflows to 0: the step
    # fails numerically, naming the cell, and the run still writes its logs.
    out = tmp_path / "tiny"
    code = main(["run", "--preset", "custom", "--gamma", "3", "--rho0", "1e-200", "--m", "10",
                 "--dt", "0.001", "--t-final", "0.002", *flags, "--output-dir", str(out)])
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == 3
    assert re.search(r"at cell \(?\d", manifest["message"])
    assert re.search(r"at cell \(?\d", capsys.readouterr().out)
    assert (out / "steps.csv").read_text().count("\n") == 1


@pytest.mark.parametrize("flags", [[], ["--stepper", "ice"]])
def test_cli_run_beta_overflow_exits_3(tmp_path, capsys, flags):
    # beta = dt^2/eps^2 overflows at eps = 1e-154, dt = 10, though both pass
    # validation: the step fails numerically and the run still writes its logs.
    out = tmp_path / "beta"
    code = main(["run", "--preset", "example1", "--epsilon", "1e-154", "--m", "20", "--dt", "10",
                 "--t-final", "10", *flags, "--output-dir", str(out)])
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == 3
    assert "beta = inf is not finite" in manifest["message"]
    assert "beta = inf is not finite" in capsys.readouterr().out
    assert (out / "steps.csv").read_text().count("\n") == 1


def test_cli_import_does_not_load_process_pool():
    # Only a pooled sweep needs concurrent.futures.process and multiprocessing;
    # every other verb must not pay for importing them.
    code = textwrap.dedent("""
        import sys
        import lowmach.cli
        for name in ("concurrent.futures.process", "multiprocessing"):
            assert name not in sys.modules, name + " was imported"
    """)
    src = str(Path(lowmach.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("flags", [
    ["--preset", "example1", "--epsilon", "0.5", "--alpha", "10"],  # alpha > 1/eps^2
    ["--preset", "example1", "--sigma", "1.5"],
    ["--preset", "example1", "--m", "51", "--variant", "l"],
    ["--preset", "example1", "--m", "51", "--variant", "nl"],
    ["--preset", "example1", "--m", "2", "--variant", "ld"],
    ["--preset", "example3", "--m1", "21", "--stencil", "wide"],
    ["--preset", "custom", "--dimension", "2", "--m2", "9", "--stencil", "wide"],
    ["--preset", "custom", "--gamma", "0.5"],
    ["--preset", "custom", "--lambda-coeff", "-1"],
    ["--preset", "custom", "--dimension", "2", "--domain-b", "2"],
    # eps^2 underflows to 0; 1/eps^2 overflows
    ["--preset", "example1", "--epsilon", "1e-170", "--m", "20", "--dt", "0.001"],
    ["--preset", "example1", "--epsilon", "1e-160", "--m", "20", "--dt", "0.001"],
    # a run that would never end
    ["--preset", "example1", "--epsilon", "0.3", "--m", "20", "--dt", "0.001",
     "--t-final", "inf"],
    # inputs that only the constructors of the run reject
    ["--preset", "custom", "--q0", "nan"],
    ["--preset", "custom", "--rho0", "inf"],
    ["--preset", "custom", "--domain-b", "inf"],
    ["--preset", "custom", "--domain-a=-inf", "--domain-b", "0"],
    ["--preset", "custom", "--domain-a=-1e308", "--domain-b", "1e308"],  # b - a overflows
    ["--preset", "custom", "--dimension", "2", "--q0", "inf"],
    ["--preset", "custom", "--m", "0", "--stepper", "explicit_llf"],
    ["--preset", "custom", "--rho0", "0"],
    ["--preset", "example1", "--epsilon", "1", "--alpha", "0"],  # density 1 - eps^2 = 0
])
def test_cli_run_invalid_config_exits_2(tmp_path, capsys, flags):
    out = tmp_path / "bad"
    # A --t-final in flags comes later and wins.
    assert main(["run", "--t-final", "0.002", *flags, "--output-dir", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "sweep"])
@pytest.mark.parametrize("flags", [
    ["--m", "abc"],
    ["--m", "2.5"],
    ["--dphi2-literal", "maybe"],
    ["--epsilon", "x"],
    ["--snapshot-times", "0.1,x"],
])
def test_cli_ill_typed_flag_exits_2(tmp_path, capsys, verb, flags):
    # A flag's value is parsed as a config file's, so an ill-typed one is a
    # config error that main returns, not an argparse exit.
    out = tmp_path / "out"
    where = (["--output-dir", str(out)] if verb == "run"
             else ["--vary", "alpha=0,1", "--sweep-dir", str(out)])
    assert main([verb, *flags, *where]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_flags_are_the_config_keys():
    parser = build_parser()
    for verb in ("run", "sweep"):
        for key in _KEY_PARSERS:
            args = parser.parse_args([verb, "--" + key.replace("_", "-"), "v"])
            assert getattr(args, key) == "v"


@pytest.mark.parametrize("flags", [
    ["--rho0", "1e308"],  # p'(rho0) overflows
    ["--lambda-coeff", "1e308", "--rho0", "10"],
])
def test_cli_run_non_finite_cfl_speed_exits_3(tmp_path, capsys, flags):
    # The adaptive dt of an infinite wave speed is 0: a numerical failure,
    # and the run still writes its logs.
    out = tmp_path / "cfl"
    code = main(["run", "--preset", "custom", *flags, "--t-final", "0.01",
                 "--output-dir", str(out)])
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == 3
    assert "CFL wave speed inf" in manifest["message"]
    assert "CFL wave speed inf" in capsys.readouterr().out
    assert (out / "steps.csv").read_text().count("\n") == 1


@pytest.mark.parametrize("variant,m", [("ld", "4"), ("l", "8"), ("nl", "8")])
@pytest.mark.parametrize("dt", [[], ["--dt", "1e-310"]])
def test_cli_run_face_coefficient_underflow_exits_3(tmp_path, variant, m, dt):
    # dx = 1e-320/m is a valid grid spacing, but dx^2 underflows to 0, so
    # beta/(s dx)^2 is no number: a numerical failure, not a ZeroDivisionError.
    out = tmp_path / "tiny_dx"
    code = main(["run", "--preset", "custom", "--domain-a", "0", "--domain-b", "1e-320",
                 "--m", m, "--variant", variant, *dt, "--t-final", "0.01",
                 "--output-dir", str(out)])
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == 3
    assert "beta/(s h)^2" in manifest["message"]


def test_explicit_run_on_a_tiny_grid_completes(tmp_path):
    # Such a grid is valid: the explicit step needs no face coefficients.
    code = main(["run", "--preset", "custom", "--domain-a", "0", "--domain-b", "1e-300",
                 "--m", "4", "--stepper", "explicit_llf", "--dt", "1e-3", "--t-final", "0.002",
                 "--output-dir", str(tmp_path / "out")])
    assert code == 0


def test_odd_m_allowed_where_no_stride2_solve_runs():
    build_config({"preset": "example1", "m": 51, "variant": "l", "stepper": "ice"})
    build_config({"preset": "example1", "m": 51, "variant": "nl", "stepper": "explicit_llf"})
    build_config({"preset": "example3", "m1": 21, "stencil": "reduced"})


@pytest.mark.parametrize("argv", [
    ["table1", "--variant", "bogus"],
    ["table1", "--variant", "l", "--epsilons", "0.8", "--dxs", "0.0303"],  # 33 cells
    ["compare-ice", "--epsilon", "0.3", "--dx", "0.5"],  # 2 cells
    ["compare-ice", "--epsilon", "0", "--dx", "0.05"],
    ["table2", "--epsilons", "0.8", "--levels", "1", "--variant", "xx"],
    ["table1", "--epsilons", "1e-170"],
    ["table1", "--epsilons", "0.8", "--dxs", "0.1", "--t-final", "inf"],
    ["compare-ice", "--epsilon", "0.3", "--dx", "0.1", "--t-final", "inf"],
    # nothing to compute
    ["table2", "--epsilons", "0.8", "--levels", "0"],
    ["table2", "--epsilons", "0.8", "--levels", "-1"],
    ["table1", "--epsilons", ","],
    ["table1", "--epsilons", "0.8", "--dxs", ","],
])
def test_cli_table_verbs_invalid_input_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    flag = "--output-dir" if argv[0] == "compare-ice" else "--output"
    assert main([*argv, flag, str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_file_with_flag_override(tmp_path):
    path = write_config(tmp_path, BASIC)
    out = tmp_path / "cfgrun"
    code = main(["run", "--config", str(path), "--t-final", "0.008",
                 "--output-dir", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["t_final"] == 0.008  # flag wins over file


def test_cli_compare_ice(tmp_path):
    out = tmp_path / "ice"
    code = main(["compare-ice", "--epsilon", "0.3", "--dx", "0.02",
                 "--dt", "0.0005", "--t-final", "0.005", "--output-dir", str(out)])
    assert code == 0
    tv_lines = (out / "compare_ice_tv.csv").read_text().splitlines()
    assert tv_lines[0] == "method,tv_rho,tv_q"
    sol_lines = (out / "compare_ice_solutions.csv").read_text().splitlines()
    assert sol_lines[0] == "x,rho_ap,q_ap,rho_ice,q_ice"
    assert len(sol_lines) == 51


def test_compare_ice_trivial_constant():
    # positive-density constant custom data: both schemes keep TV = 0
    result = compare_ice(0.3, 1 / 20, 1e-4, 5e-4)
    assert result["tv_rho_ap"] >= 0.0  # smoke: runs and reports


def test_sweep_runs_each_combination(tmp_path, monkeypatch):
    monkeypatch.setenv("LOWMACH_SWEEP_PROCS", "1")
    base = {"preset": "example1", "m": 40, "dt": 0.002, "t_final": 0.006,
            "variant": "ld"}
    results = run_sweep(base, {"epsilon": [0.3, 0.1]}, tmp_path / "sweep")
    assert len(results) == 2
    assert all(status == 0 for _, status, _ in results)
    dirs = sorted(p.name for p in (tmp_path / "sweep").iterdir())
    assert dirs == ["epsilon=0.1", "epsilon=0.3"]


def test_sweep_validates_before_running(tmp_path):
    base = {"preset": "example1", "m": 40, "dt": 0.002, "t_final": 0.006}
    with pytest.raises(ConfigError):
        run_sweep(base, {"epsilon": [0.3], "gamma": [1.4]}, tmp_path / "sweep2")


def test_cli_sweep_invalid_entry_exits_2_before_running(tmp_path):
    sweep_dir = tmp_path / "sweep"
    code = main(["sweep", "--preset", "example1", "--epsilon", "0.5", "--m", "40",
                 "--dt", "0.002", "--t-final", "0.006", "--vary", "alpha=1,1000",
                 "--sweep-dir", str(sweep_dir)])
    assert code == 2
    assert not sweep_dir.exists()


def test_cli_sweep_entry_with_invalid_initial_state_exits_2_before_running(tmp_path, capsys):
    sweep_dir = tmp_path / "sweep"
    code = main(["sweep", "--preset", "custom", "--t-final", "0.01", "--vary", "q0=nan,0",
                 "--sweep-dir", str(sweep_dir)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not sweep_dir.exists()


@pytest.mark.parametrize("value", ["abc", "2.5", "0", "-3"])
def test_sweep_rejects_invalid_procs(tmp_path, monkeypatch, value):
    monkeypatch.setenv("LOWMACH_SWEEP_PROCS", value)
    base = {"preset": "example1", "m": 40, "dt": 0.002, "t_final": 0.006}
    with pytest.raises(ConfigError, match="LOWMACH_SWEEP_PROCS"):
        run_sweep(base, {"epsilon": [0.3, 0.1]}, tmp_path / "sweep")
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("procs,cpus,expected", [("64", 8, 3), ("64", 2, 2), ("2", 8, 2)])
def test_sweep_workers_capped(tmp_path, monkeypatch, procs, cpus, expected):
    # Worker count is min(requested, combinations, CPUs); the pool is faked
    # so that no process starts.
    used = []

    class FakePool:
        def __init__(self, max_workers):
            used.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, entries):
            return [(raw["output_dir"], 0, "") for raw in entries]

    monkeypatch.setenv("LOWMACH_SWEEP_PROCS", procs)
    monkeypatch.setattr(runner_module.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    base = {"preset": "example1", "m": 40, "dt": 0.002, "t_final": 0.006}
    results = run_sweep(base, {"epsilon": [0.3, 0.2, 0.1]}, tmp_path / "sweep")
    assert len(results) == 3 and used == [expected]


def test_cli_sweep_invalid_procs_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("LOWMACH_SWEEP_PROCS", "abc")
    code = main([
        "sweep", "--preset", "example1", "--m", "40", "--dt", "0.002",
        "--t-final", "0.006", "--vary", "epsilon=0.3,0.1",
        "--sweep-dir", str(tmp_path / "sw"),
    ])
    assert code == 2


def test_cli_sweep(tmp_path, monkeypatch):
    monkeypatch.setenv("LOWMACH_SWEEP_PROCS", "2")
    code = main([
        "sweep", "--preset", "example1", "--m", "40", "--dt", "0.002",
        "--t-final", "0.006", "--vary", "epsilon=0.3,0.1",
        "--sweep-dir", str(tmp_path / "sw"),
    ])
    assert code == 0
    assert (tmp_path / "sw" / "epsilon=0.3" / "manifest.json").exists()


def test_cli_sweep_runtime_failure_spares_other_entries(tmp_path, monkeypatch):
    # Every entry passes build_config; the explicit scheme at epsilon 0.005
    # on this mesh loses positivity at run time (exit 3), the others finish.
    monkeypatch.setenv("LOWMACH_SWEEP_PROCS", "2")
    sweep_dir = tmp_path / "sw"
    code = main([
        "sweep", "--preset", "example1", "--m", "20", "--dt", "0.002", "--t-final", "0.01",
        "--stepper", "explicit_llf", "--snapshot-times", "0.004",
        "--vary", "epsilon=0.8,0.005,0.5", "--sweep-dir", str(sweep_dir),
    ])
    assert code == 3
    for eps, status in (("0.8", 0), ("0.005", 3), ("0.5", 0)):
        out = sweep_dir / f"epsilon={eps}"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == status
        if status == 0:
            assert sorted(manifest["outputs"]) == ["snapshot_000.csv", "steps.csv"]
            for name, digest in manifest["outputs"].items():
                assert digest == "sha256:" + hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert len((out / "steps.csv").read_text().splitlines()) == 6
        else:
            assert "lost positivity" in manifest["message"]


def test_config_to_dict_roundtrip():
    cfg = build_config({"preset": "example2", "epsilon": 0.1, "m": 50,
                        "dt": 0.001, "t_final": 0.01})
    echo = config_to_dict(cfg)
    assert echo["preset"] == "example2"
    assert echo["dt"] == 0.001 and echo["dt_policy"] == "fixed"
    rebuilt = build_config(echo)
    assert rebuilt == cfg
