"""Config parsing, the run orchestrator, CSV/manifest output, CLI verbs."""

import concurrent.futures
import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import lowmach
from lowmach.cli import build_parser, main
from lowmach.config import (_KEY_PARSERS, RunConfig, build_config, config_to_dict,
                            parse_config_file, scheme_params)
from lowmach.core import SchemeParams
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
    assert cfg.dt == 0.004


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
    with pytest.raises(ConfigError, match="dt > 0"):
        build_config({"dt": "0"})
    # Whether dt is given picks the time step policy: there is no key for it.
    with pytest.raises(ConfigError, match="unknown key 'dt_policy'"):
        build_config({"dt_policy": "fixed", "dt": 0.001})


def test_dt_is_fixed_where_given_and_the_cfl_rule_otherwise():
    assert build_config({}).dt is None
    typed = build_config({"dt": 1})
    assert type(typed.dt) is float and typed.dt == 1.0
    # The scheme's parameters do not carry the time step, given or not.
    for cfg in (build_config({}), typed):
        assert scheme_params(cfg) == SchemeParams(epsilon=cfg.epsilon, alpha=cfg.alpha,
                                                  sigma=cfg.sigma)


def test_state_that_does_not_fit_in_memory_is_a_config_error():
    # 2^59 cells pass the cell-count rule (at most 2^60 - 1), and numpy fails
    # their 4 EiB allocation at once.  A count near the machine's memory
    # is not tested: numpy may map it lazily and then exhaust memory.
    with pytest.raises(ConfigError, match=r"576460752303423488 cells .*\(from m\)"):
        build_config({"preset": "example1", "m": 2**59})


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_run_alpha_at_the_bound_as_a_decimal_exits_0(tmp_path, capsys):
    # alpha = 1/eps^2 = 1.5625 at eps = 0.8, written as decimals: the
    # explicit limit, a run on the CFL rule that completes (it used to exit
    # 2, "alpha=1.5625 exceeds 1/epsilon^2=1.5624999999999998").
    out = tmp_path / "bound"
    assert main(["run", "--preset", "example1", "--epsilon", "0.8", "--alpha", "1.5625",
                 "--m", "20", "--t-final", "0.01", "--output-dir", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["status"] == 0


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags", [
    [],
    ["--stepper", "ice"],
    # dt^2 overflows: the square of a Python float raises OverflowError.
    ["--epsilon", "0.8", "--dt", "1e200", "--t-final", "1e201"],
    ["--epsilon", "0.8", "--dt", "1e200", "--t-final", "1e201", "--stepper", "ice"],
    ["--preset", "example3", "--m1", "8", "--m2", "8", "--epsilon", "0.8", "--dt", "1e200",
     "--t-final", "1e201"],
])
def test_cli_run_beta_overflow_exits_3(tmp_path, capsys, flags):
    # beta = dt^2/eps^2 overflows at eps = 1e-154, dt = 10, or at dt = 1e200,
    # though both pass validation: the step fails numerically, without a
    # float warning, and the run still writes its logs.
    out = tmp_path / "beta"
    code = main(["run", "--preset", "example1", "--epsilon", "1e-154", "--m", "20", "--dt", "10",
                 "--t-final", "10", *flags, "--output-dir", str(out)])
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == 3
    assert "beta = inf is not finite" in manifest["message"]
    assert "beta = inf is not finite" in capsys.readouterr().out
    assert (out / "steps.csv").read_text().count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("stencil, dt, message", [
    # The right-hand side's squared norm overflows: CG runs on it scaled by
    # a power of two and fails to converge on the system, whose beta ~ 4e202
    # is beyond what the float operator resolves.
    ("reduced", "1e100", "CG "),
    ("wide", "1e100", "CG "),
    # The preconditioner's symbol overflows, though the faces do not.
    ("wide", "1e152", "preconditioner symbol"),
])
def test_cli_run_2d_huge_dt_exits_3(tmp_path, stencil, dt, message):
    out = tmp_path / "huge"
    code = main(["run", "--preset", "example3", "--m1", "8", "--m2", "8", "--alpha", "0",
                 "--epsilon", "0.05", "--dt", dt, "--t-final", f"2{dt}", "--stencil", stencil,
                 "--output-dir", str(out)])
    assert code == 3
    assert message in json.loads((out / "manifest.json").read_text())["message"]


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
    ["--preset", "custom", "--domain-b", "5e-324", "--m", "4", "--dt", "1e-3"],  # dx = 0
    # cell counts whose arrays numpy cannot index
    ["--preset", "example1", "--m", "100000000000000000000"],
    ["--preset", "example3", "--m1", "100000000000000000000"],
    ["--preset", "example3", "--m2", str(2**61)],
    # a count numpy can index, whose 4 EiB allocation fails at once
    ["--preset", "example1", "--m", str(2**59)],
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
    ["--dt", "1e-3s"],
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
    assert list(_KEY_PARSERS) == [f.name for f in fields(RunConfig)]
    parser = build_parser()
    for verb in ("run", "sweep"):
        for key in _KEY_PARSERS:
            args = parser.parse_args([verb, "--" + key.replace("_", "-"), "v"])
            assert getattr(args, key) == "v"


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["run", "--help"], 0), ([], 2),
                                        (["bogus"], 2), (["compare-ice"], 2)])
def test_main_returns_the_argparse_exit_code(capsys, argv, code):
    # --help, a missing or unknown verb and a missing required flag end in
    # argparse; main returns its status instead of raising SystemExit.
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert "usage: lowmach" in (err if code else out)


@pytest.mark.parametrize("key, value", [("dt_policy", "adaptive"), ("dphi2_literal", "true")])
def test_dt_policy_is_an_unknown_key_exits_2(tmp_path, capsys, key, value):
    # Not config keys: argparse rejects the flag, and the config the file key.
    out = tmp_path / "out"
    flag = "--" + key.replace("_", "-")
    assert main(["run", flag, value, "--dt", "1e-3", "--output-dir", str(out)]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    path = write_config(tmp_path, f"{key} = {value}\n")
    assert main(["run", "--config", str(path), "--output-dir", str(out)]) == 2
    assert f"unknown key '{key}'" in capsys.readouterr().err
    assert not out.exists()


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
@pytest.mark.parametrize("dt", [["--dt", "1e-13"], ["--dt", "2e-13"]])
def test_cli_run_face_coefficient_underflow_exits_3(tmp_path, variant, m, dt):
    # dx = 1e-320/m is a valid grid spacing, but dx^2 underflows to 0, so
    # beta/(s dx)^2 is no number: a numerical failure, not a ZeroDivisionError.
    # Both dt advance t_final and keep dt/dx finite, so the step reaches the
    # face coefficients; the adaptive dt of this grid cannot advance t_final
    # (test_cli_run_dt_that_cannot_advance_t_final_exits_3).
    out = tmp_path / "tiny_dx"
    code = main(["run", "--preset", "custom", "--domain-a", "0", "--domain-b", "1e-320",
                 "--m", m, "--variant", variant, *dt, "--t-final", "2e-12",
                 "--output-dir", str(out)])
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == 3
    assert "beta/(s h)^2" in manifest["message"]


@pytest.mark.parametrize("flags", [
    ["--variant", "ld"],
    ["--variant", "nl", "--m", "8"],
    ["--dt", "1e-310"],
])
def test_cli_run_dt_that_cannot_advance_t_final_exits_3(tmp_path, capsys, flags):
    # t_final - dt == t_final: the step cannot move t near t_final, so the
    # run would never end; it fails before its first step, with steps.csv
    # and the manifest written.
    out = tmp_path / "stuck"
    code = main(["run", "--preset", "custom", "--domain-a", "0", "--domain-b", "1e-320",
                 "--m", "4", "--t-final", "0.01", *flags, "--output-dir", str(out)])
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == 3
    assert "cannot advance t to t_final" in manifest["message"]
    assert "cannot advance" in capsys.readouterr().out
    assert (out / "steps.csv").read_text().count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_table1_t_final_beyond_dt_resolution_exits_3(tmp_path, capsys):
    # t_final - dt_lo == t_final: each scan trial would never end.
    assert main(["table1", "--epsilons", "0.8", "--dxs", "0.1", "--t-final", "1e300",
                 "--output", str(tmp_path / "t1.csv")]) == 3
    assert "cannot advance t" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_table1_trial_beyond_the_step_cap_exits_3(tmp_path, capsys):
    # dt_lo, from the initial wave speed, advances t_final = 1e12, but a
    # trial would take ~7e14 steps: a numerical failure before the first.
    assert main(["table1", "--epsilons", "0.8", "--dxs", "0.1", "--t-final", "1e12",
                 "--output", str(tmp_path / "t1.csv")]) == 3
    assert "steps a run may take" in capsys.readouterr().err
    assert not (tmp_path / "t1.csv").exists()


@pytest.fixture
def no_steps(monkeypatch):
    """Every case that runner builds gets a step that fails the test."""
    case = runner_module._case

    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    def no_step_case(cfg):
        return case(cfg)._replace(step=no_step)

    monkeypatch.setattr(runner_module, "_case", no_step_case)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_run_fixed_dt_beyond_the_step_cap_exits_2(tmp_path, capsys, no_steps):
    # The config alone fixes t_final / dt = 1e15 steps: a config error before
    # any output, also for a sweep entry, which stops the sweep before it runs,
    # and for compare-ice.  No step may run (it would not end).
    with pytest.raises(ConfigError, match="t_final / dt = 1e[+]12 / 0.001 needs more than"):
        compare_ice(0.3, 0.05, 1e-3, 1e12)
    out = tmp_path / "long"
    assert main(["run", "--preset", "example1", "--m", "20", "--dt", "1e-3",
                 "--t-final", "1e12", "--output-dir", str(out)]) == 2
    assert "steps a run may take" in capsys.readouterr().err
    assert not out.exists()
    sweep_dir = tmp_path / "sweep"
    assert main(["sweep", "--preset", "example1", "--m", "20", "--dt", "1e-3",
                 "--vary", "t_final=0.002,1e12", "--sweep-dir", str(sweep_dir)]) == 2
    assert not sweep_dir.exists()
    # At the cap a fixed dt is a valid config.
    build_config({"preset": "example1", "m": 20, "dt": 1.0, "t_final": 1e6})


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dt", ["inf", "nan", "-inf", "0"])
def test_cli_bad_fixed_dt_exits_2_with_nothing_written(tmp_path, capsys, no_steps, dt):
    # A fixed dt is finite and > 0 on every verb that takes one; a NaN or
    # an infinite dt passes the step-count rule, so it is stated apart.
    argvs = {
        "run": ["run", "--preset", "example1", "--m", "20", f"--dt={dt}", "--t-final", "0.01",
                "--output-dir"],
        "sweep": ["sweep", "--preset", "example1", "--m", "20", "--t-final", "0.01",
                  "--vary", f"dt=0.001,{dt}", "--sweep-dir"],
        "compare-ice": ["compare-ice", "--epsilon", "0.3", "--dx", "0.05", f"--dt={dt}",
                        "--t-final", "0.01", "--output-dir"],
    }
    for verb, argv in argvs.items():
        out = tmp_path / verb
        assert main(argv + [str(out)]) == 2, verb
        assert "dt > 0" in capsys.readouterr().err, verb
        assert not out.exists(), verb


@pytest.mark.parametrize("dt", [["--dt", "0.002"], []])
def test_manifest_is_strict_json(tmp_path, dt):
    # No Infinity or NaN: a fixed dt is finite, and the CFL rule writes none.
    def no_constant(name):
        raise ValueError(f"{name} in manifest.json")

    out = tmp_path / "run"
    assert main(["run", "--preset", "example1", "--m", "20", "--t-final", "0.01", *dt,
                 "--output-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=no_constant)
    assert manifest["config"]["dt"] == (float(dt[1]) if dt else None)


def test_cli_run_cfl_rule_beyond_the_step_cap_exits_3(tmp_path, monkeypatch):
    # The CFL rule counts its steps: a run that has taken the cap without
    # reaching t_final fails with its steps and manifest written.
    monkeypatch.setattr(runner_module, "MAX_STEPS", 3)
    out = tmp_path / "cfl"
    assert main(["run", "--preset", "example1", "--m", "20", "--t-final", "0.1",
                 "--output-dir", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == 3
    assert "numerical failure at step 4" in manifest["message"]
    assert "took 3 steps" in manifest["message"]
    assert (out / "steps.csv").read_text().count("\n") == 4
    # The cap bounds the CFL rule only: the same run with a fixed dt runs on.
    monkeypatch.setattr(runner_module, "MAX_STEPS", 1)
    assert main(["run", "--preset", "example1", "--m", "20", "--dt", "0.01",
                 "--t-final", "0.03", "--output-dir", str(tmp_path / "fixed")]) == 0


def test_cli_run_explicit_cfl_step_below_t_final_resolution_exits_3(tmp_path):
    # A valid run whose CFL dt (~1e-301) is far below the resolution of
    # t_final: it used to run for ever.
    out = tmp_path / "stuck"
    proc = subprocess.run(
        [sys.executable, "-m", "lowmach.cli", "run", "--preset", "custom",
         "--domain-b", "1e-300", "--m", "4", "--stepper", "explicit_llf",
         "--t-final", "0.01", "--output-dir", str(out)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(lowmach.__file__).parents[1]),
                 PYTHONWARNINGS="error::RuntimeWarning"))
    assert proc.returncode == 3, proc.stderr
    assert "cannot advance t to t_final" in proc.stdout
    assert json.loads((out / "manifest.json").read_text())["status"] == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags", [
    ["--dt", "1e-3"],
    ["--stepper", "ice"],
    ["--stepper", "explicit_llf", "--dt", "1e-3"],
])
def test_cli_run_dt_over_dx_overflow_exits_3(tmp_path, capsys, flags):
    # dx = 2.5e-321: dt/dx overflows, and a zero flux difference times it
    # would be an invalid float operation.  The ice run's wave speed is 0,
    # so its dt is t_final.
    out = tmp_path / "tiny_dx"
    code = main(["run", "--preset", "custom", "--domain-a", "0", "--domain-b", "1e-320",
                 "--m", "4", *flags, "--output-dir", str(out)])
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == 3
    assert "dt/dx" in manifest["message"] and "is not finite" in manifest["message"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_run_dphi_dt_squared_over_dx_overflow_exits_3(tmp_path):
    # dx = 1e-200: dt/dx = 1e300 and beta ~ 1.6e200 are finite, but
    # dt^2/(2 dx) overflows, and a zero flux difference times it would be an
    # invalid float operation.
    out = tmp_path / "dphi"
    code = main(["run", "--preset", "custom", "--domain-b", "4e-200", "--m", "4", "--dt", "1e100",
                 "--t-final", "1e101", "--output-dir", str(out)])
    assert code == 3
    assert "dt^2/(2 dx)" in json.loads((out / "manifest.json").read_text())["message"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("code, flags", [
    # The LLF momentum flux g = rho u^2 + p lies within a factor 2 of the
    # float maximum: its interface average is taken of g/2.
    (0, ["--preset", "example1", "--m", "20", "--epsilon", "1e-154", "--stepper", "explicit_llf"]),
    (0, ["--preset", "custom", "--m", "8", "--rho0", "1e154", "--stepper", "explicit_llf"]),
    (0, ["--preset", "custom", "--m", "8", "--rho0", "1e100", "--gamma", "3", "--epsilon", "1e-4",
         "--stepper", "explicit_llf"]),
    (0, ["--preset", "custom", "--m", "8", "--q0", "1e154"]),
    # p = 1e308 too: the cyclic systems of the solve, and the nl operator's
    # second difference of p, taken of p/2.
    (3, ["--preset", "custom", "--m", "8", "--rho0", "1e154", "--variant", "ld"]),
    (3, ["--preset", "custom", "--m", "8", "--rho0", "1e154", "--variant", "l"]),
    (3, ["--preset", "custom", "--m", "8", "--rho0", "1e154", "--variant", "nl"]),
])
def test_cli_run_flux_near_the_float_maximum_exits_without_a_traceback(tmp_path, code, flags):
    out = tmp_path / "big"
    assert main(["run", *flags, "--dt", "1e-3", "--t-final", "0.002",
                 "--output-dir", str(out)]) == code
    assert json.loads((out / "manifest.json").read_text())["status"] == code


@pytest.mark.parametrize("action", ["error", "ignore"])
@pytest.mark.parametrize("flags", [
    # q u overflows in the LLF kernel, also in the ICE predictor.
    ["--dt", "1e-3", "--q0", "1e308"],
    ["--dt", "1e-3", "--q0", "1e308", "--stepper", "ice"],
    # p or p' overflows, on every scheme, and on the CFL rule too.
    ["--dt", "1e-3", "--rho0", "1e308", "--variant", "ld"],
    ["--dt", "1e-3", "--rho0", "1e308", "--variant", "nl"],
    ["--dt", "1e-3", "--rho0", "1e308", "--stepper", "explicit_llf"],
    ["--dt", "1e-3", "--rho0", "1e308", "--stepper", "ice"],
    ["--rho0", "1e308", "--stepper", "ice"],
    ["--dt", "1e-3", "--rho0", "1e308", "--dimension", "2", "--m1", "8", "--m2", "8"],
    ["--dt", "1e-3", "--rho0", "1e154", "--gamma", "3"],
    # Only the density's sum overflows: this run used to complete and write
    # mass_total = inf where warnings were off.
    ["--dt", "1e-3", "--rho0", "1e308", "--gamma", "1"],
])
def test_cli_run_float_error_exits_3(tmp_path, capsys, flags, action):
    # A numpy float error inside the step loop fails the step it happens in
    # (exit 3), whether RuntimeWarning is an error or ignored, and no value
    # that is not finite reaches steps.csv.
    out = tmp_path / "float"
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        code = main(["run", "--preset", "custom", "--m", "8", "--t-final", "0.002", *flags,
                     "--output-dir", str(out)])
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == 3
    assert manifest["message"].startswith("numerical failure at step 1")
    assert capsys.readouterr().out.startswith("numerical failure at step 1")
    assert (out / "steps.csv").read_text().count("\n") == 1


def test_explicit_run_on_a_tiny_grid_completes(tmp_path):
    # Such a grid is valid: the explicit step needs no face coefficients.
    code = main(["run", "--preset", "custom", "--domain-a", "0", "--domain-b", "1e-300",
                 "--m", "4", "--stepper", "explicit_llf", "--dt", "1e-3", "--t-final", "0.002",
                 "--output-dir", str(tmp_path / "out")])
    assert code == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags", [
    ["--m", "4"],
    ["--m", "4", "--stepper", "ice"],
    ["--m", "6", "--variant", "nl"],
])
def test_run_on_a_huge_grid_completes(tmp_path, flags):
    # dx ~ 5e299: (s dx)^2 overflows, so beta/(s dx)^2 is 0 and the elliptic
    # solve is the identity, without an OverflowError or a float warning.
    code = main(["run", "--preset", "custom", "--domain-a=-1e300", "--domain-b", "1e300",
                 "--dt", "1e-3", "--t-final", "0.01", *flags,
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
    # ill-typed: parsed by config's value parsers, not by argparse
    ["compare-ice", "--epsilon", "x"],
    ["compare-ice", "--epsilon", "0.3", "--dx", "x"],
    ["compare-ice", "--epsilon", "0.3", "--dt", "1e-3x"],
    ["compare-ice", "--epsilon", "0.3", "--t-final", "abc"],
    ["table1", "--t-final", "abc"],
    ["table2", "--levels", "x"],
    ["table2", "--levels", "2.5"],
    # a case is a config, checked by run's rules: variant names are exact
    ["table1", "--variant", "LD", "--epsilons", "0.8", "--dxs", "0.1"],
    # level 7 has 2560 cells, which do not divide the reference's 1280
    ["table2", "--epsilons", "0.8", "--levels", "8"],
    # cell counts whose arrays numpy cannot index
    ["table1", "--epsilons", "0.8", "--dxs", "1e-300"],
    ["compare-ice", "--epsilon", "0.3", "--dx", "1e-300"],
    # 2^59 cells: numpy can index them, and their allocation fails at once
    ["table1", "--epsilons", "0.8", "--dxs", str(2.0**-59)],
    # t_final / dt = 1e15 steps, more than a run may take
    ["compare-ice", "--epsilon", "0.3", "--dx", "0.05", "--dt", "1e-3", "--t-final", "1e12"],
])
def test_cli_table_verbs_invalid_input_exits_2(tmp_path, capsys, monkeypatch, argv):
    # Every input is checked before any work: no reference is computed.
    def no_reference(*args, **kwargs):
        raise AssertionError("reference computed before the inputs were checked")

    monkeypatch.setattr(runner_module, "reference_solution", no_reference)
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dt, t_final, message", [
    # dt^2 overflows in the first step of either scheme
    ("1e200", "1e201", "beta = inf is not finite"),
    # t_final/dt overflows: the runs would never end
    ("5e-324", "0.01", "cannot advance t to t_final"),
])
def test_cli_compare_ice_numerical_failure_exits_3(tmp_path, capsys, dt, t_final, message):
    out = tmp_path / "ice"
    code = main(["compare-ice", "--epsilon", "0.3", "--dx", "0.05", "--dt", dt,
                 "--t-final", t_final, "--output-dir", str(out)])
    assert code == 3
    assert message in capsys.readouterr().err


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


@pytest.mark.parametrize("flags, message", [
    (["--vary", "m="], "nothing to compute"),
    (["--vary", "m=10", "--vary", "m=20"], "--vary m is given more than once"),
    (["--vary", "output_dir=a,b"], "output_dir can be neither set nor varied"),
    (["--vary", "m=10,20", "--output-dir", "X"], "output_dir can be neither set nor varied"),
    (["--vary", "m=10,10"], "lists a value twice"),
], ids=["empty", "key-twice", "output-dir-varied", "output-dir-set", "value-twice"])
def test_cli_sweep_that_would_drop_part_of_its_spec_exits_2(tmp_path, capsys, monkeypatch,
                                                            flags, message):
    # Each of these used to run some entries and drop the rest of the spec,
    # or run nothing and exit 0; now no run starts and nothing is written.
    monkeypatch.chdir(tmp_path)
    sweep_dir = tmp_path / "sweep"
    code = main(["sweep", "--preset", "example1", "--m", "20", "--dt", "1e-3", "--t-final",
                 "0.002", *flags, "--sweep-dir", str(sweep_dir)])
    assert code == 2 and message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_cli_sweep_entry_with_a_float_error_spares_the_other(tmp_path, monkeypatch, capsys,
                                                             action):
    # The second entry's density overflows p' in its first step: that entry
    # fails (exit 3) and the first is still run and reported, with
    # RuntimeWarning an error in both workers or ignored.
    monkeypatch.setenv("LOWMACH_SWEEP_PROCS", "2")
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        code = main(["sweep", "--preset", "custom", "--m", "8", "--dt", "1e-3",
                     "--t-final", "0.002", "--vary", "rho0=1,1e308",
                     "--sweep-dir", str(tmp_path / "sw")])
    assert code == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("[0] ") and lines[0].endswith("rho0=1: completed")
    assert lines[1].startswith("[3] ") and "numerical failure at step 1" in lines[1]


def test_config_to_dict_roundtrip():
    cfg = build_config({"preset": "example2", "epsilon": 0.1, "m": 50,
                        "dt": 0.001, "t_final": 0.01})
    echo = config_to_dict(cfg)
    assert echo["preset"] == "example2"
    assert echo["dt"] == 0.001 and "dt_policy" not in echo
    rebuilt = build_config(echo)
    assert rebuilt == cfg
    adaptive = build_config({"preset": "example2", "snapshot_times": "0.05,0.01"})
    echo = config_to_dict(adaptive)
    assert echo["dt"] is None and echo["snapshot_times"] == [0.05, 0.01]
    assert json.loads(json.dumps(echo)) == echo
    assert build_config(echo) == adaptive
