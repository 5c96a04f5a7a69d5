"""The stepper contract as a property: on every valid input, each stepper
returns a finite state with positive density, or raises a NumericsError.
And the config boundary as one: ``build_config`` on any raw key/values
either raises ConfigError or returns a config whose run can be built.  And
the CLI's exit codes as one: ``run``, ``table1`` and ``compare-ice`` on
extreme flag values return 0, 2, 3 or 4, without a float warning.

Valid means what the public constructors and ``validate_params`` accept:
any positive density, any equation of state, any epsilon down to 1e-154
with alpha in [0, 1/eps^2], any dt > 0.  The examples are generated
deterministically (``derandomize``) and no example database is written.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lowmach import (
    ConfigError,
    EquationOfState,
    FluidState1D,
    FluidState2D,
    NumericsError,
    SchemeParams,
    step_ap_1d,
    step_ap_2d,
    step_explicit_llf_1d,
    step_ice_1d,
    validate_params,
)
from lowmach.cli import main
from lowmach.config import (_KEY_PARSERS, _parse_float, _parse_int, build_config, config_to_dict,
                            scheme_params)
from lowmach.presets import PRESET_NAMES
from lowmach.runner import build_problem

STEPPERS_1D = ("nl", "l", "ld", "explicit_llf", "ice")
STENCILS_2D = ("wide", "reduced")


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def _params(draw):
    eps = draw(_log_uniform(-154.0, 0.0))
    bound = 1.0 / eps**2
    alpha = draw(st.one_of(st.sampled_from([0.0, 1.0, bound]),
                           st.floats(0.0, 1.0).map(lambda f: f * bound)))
    return SchemeParams(epsilon=eps, alpha=alpha)


def _step(stepper, m, seed, eos, params, dt):
    """One step from a random state on m cells (m x m in 2D) of the unit
    interval or square: rho = 10^U(-1, 1), each momentum U(-3, 3)."""
    rng = np.random.default_rng(seed)
    h = 1.0 / m
    if stepper in STENCILS_2D:
        shape = (m, m)
        rho = 10 ** rng.uniform(-1, 1, shape)
        state = FluidState2D(rho=rho, q1=rng.uniform(-3, 3, shape), q2=rng.uniform(-3, 3, shape))
        new, _ = step_ap_2d(state, eos, params, stepper, dt, h, h)
        return new.rho, (new.q1, new.q2)
    state = FluidState1D(rho=10 ** rng.uniform(-1, 1, m), q=rng.uniform(-3, 3, m))
    if stepper == "explicit_llf":
        new, _ = step_explicit_llf_1d(state, eos, params, dt, h)
    elif stepper == "ice":
        new, _ = step_ice_1d(state, eos, params, dt, h)
    else:
        new, _ = step_ap_1d(state, eos, params, stepper, dt, h)
    return new.rho, (new.q,)


# dt^2/eps^2 overflows: beta = inf.
@example(stepper="nl", m=6, seed=0, eos=EquationOfState(), dt=10.0,
         params=SchemeParams(epsilon=1e-154, alpha=1.0))
@example(stepper="ice", m=6, seed=0, eos=EquationOfState(), dt=10.0,
         params=SchemeParams(epsilon=1e-154, alpha=1.0))
# beta ~ 7e59: the preconditioned CG residual r.M^-1 r underflows to 0.
@example(stepper="reduced", m=4, seed=1, eos=EquationOfState(1.0, 1.125), dt=1.0,
         params=SchemeParams(epsilon=1.248098483599828e-38,
                             alpha=1.0 / 1.248098483599828e-38**2))
@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(stepper=st.sampled_from(STEPPERS_1D + STENCILS_2D),
       m=st.integers(3, 6).map(lambda k: 2 * k),
       seed=st.integers(0, 2**32 - 1),
       eos=st.builds(EquationOfState, lambda_coeff=_log_uniform(-1.0, 1.0),
                     gamma=st.floats(1.0, 3.0)),
       params=_params(),
       dt=_log_uniform(-6.0, 2.0))
def test_step_returns_valid_state_or_numerics_error(stepper, m, seed, eos, params, dt):
    # Extreme inputs overflow on the way to a NumericsError; the contract is
    # about what the step returns or raises, not its float warnings.
    with np.errstate(all="ignore"):
        try:
            rho, momenta = _step(stepper, m, seed, eos, params, dt)
        except NumericsError:
            return
    assert np.isfinite(rho).all() and (rho > 0.0).all()
    for q in momenta:
        assert np.isfinite(q).all()


# Raw config values: the extreme floats that have passed validation before
# (nan, +-inf, +-1e308, subnormals), small integers, names, and bad strings.
_EXTREME = (0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, 1e-320, 1e-160,
            1e154, 1e-154, 0.01, 0.3, 1.0, 2.0)
_BAD = ("", " ", "abc", "maybe", ",", "0,nan", "0.01,inf", "1e999", "-0", "2.5")
_NAMES = {"preset": PRESET_NAMES, "stepper": ("ap", "ice", "explicit_llf"),
          "variant": ("nl", "l", "ld"), "stencil": ("wide", "reduced"),
          "snapshot_times": ("0", "0,0.01", ",0.1"),
          "output_dir": ("out",)}


def _raw_value(key):
    parse = _KEY_PARSERS[key]
    if parse is _parse_int:
        fit = st.integers(-3, 24).map(str)
    elif parse is _parse_float:
        # Library callers may pass a float key typed.
        fit = st.sampled_from(_EXTREME).flatmap(lambda x: st.sampled_from((x, repr(x))))
    else:
        fit = st.sampled_from(_NAMES[key])
    return st.one_of(fit, fit, fit, st.sampled_from(_BAD))


_RAW_CONFIGS = st.lists(st.sampled_from(sorted(_KEY_PARSERS)), unique=True, max_size=6).flatmap(
    lambda keys: st.fixed_dictionaries({key: _raw_value(key) for key in keys}))


@example(raw={"preset": "custom", "q0": "nan"})
@example(raw={"preset": "custom", "dimension": "2", "rho0": "inf"})
@example(raw={"preset": "example1", "epsilon": "1", "alpha": "0"})
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(raw=_RAW_CONFIGS)
def test_build_config_returns_a_buildable_run_or_raises_config_error(raw):
    try:
        cfg = build_config(raw)
    except ConfigError:
        return
    build_problem(cfg)
    validate_params(scheme_params(cfg))
    assert build_config(config_to_dict(cfg)) == cfg


# CLI argv: ordinary flag values, up to two of the verb's float flags at the
# ends of the float range or beyond it.  Every run takes a few steps at most:
# an ordinary dt is t_final/k, k <= 5, and an extreme one (only for ``run``)
# is cut to t_final or cannot advance t; a table1 scan's t_final is small or
# invalid.  A cell count is at most 64 (16 in 2D) or at least 2^61, which
# numpy cannot index; none lies between, where numpy would try to allocate
# the arrays.
_FLAG_EXTREMES = (1e300, -1e300, 1e-300, -1e-300, 5e-324, math.inf, -math.inf, math.nan)
_ORDINARY = {"epsilon": (0.05, 0.3, 0.8), "t_final": (0.01, 0.05), "domain_a": (-1.0, 0.0),
             "domain_b": (0.5, 1.0)}


def _small_cells(least, most):
    return st.one_of(st.integers(2, most // 2).map(lambda k: 2 * k), st.integers(least, most))


def _cells(most):
    return st.one_of(_small_cells(-1, most), st.integers(2**61, 2**200)).map(str)


@st.composite
def _argv(draw):
    verb = draw(st.sampled_from(("run", "run", "table1", "compare-ice")))
    preset = draw(st.sampled_from(PRESET_NAMES)) if verb == "run" else "example1"
    v = {name: draw(st.sampled_from(values)) for name, values in _ORDINARY.items()}
    v["dx"] = 1.0 / draw(_small_cells(1, 64))
    names = {"table1": ["epsilon", "t_final", "dx"],
             "compare-ice": ["epsilon", "t_final", "dx"],
             "run": ["epsilon", "t_final", "dt"]}[verb]
    names += ["domain_a", "domain_b"] if preset == "custom" else []
    extreme = draw(st.lists(st.sampled_from(names), max_size=2, unique=True))
    for name in extreme:
        # A scan's steps grow with t_final: no large ones.
        large = not (verb == "table1" and name == "t_final")
        v[name] = draw(st.sampled_from(_FLAG_EXTREMES if large else _FLAG_EXTREMES[2:]))
    if "dt" not in extreme:
        v["dt"] = v["t_final"] / draw(st.integers(1, 5))
    floats = {name: f"={v[name]!r}" for name in v}
    if verb == "table1":
        return ["table1", "--epsilons" + floats["epsilon"], "--dxs" + floats["dx"],
                "--t-final" + floats["t_final"],
                "--variant", draw(st.sampled_from(("nl", "l", "ld", "LD")))]
    if verb == "compare-ice":
        return ["compare-ice", "--epsilon" + floats["epsilon"], "--dx" + floats["dx"],
                "--dt" + floats["dt"], "--t-final" + floats["t_final"]]
    argv = ["run", "--preset", preset, "--epsilon" + floats["epsilon"], "--dt" + floats["dt"],
            "--t-final" + floats["t_final"], "--variant", draw(st.sampled_from(("nl", "l", "ld")))]
    if preset == "example3":
        return argv + ["--m1", draw(_cells(16)), "--m2", draw(_cells(16)),
                       "--stencil", draw(st.sampled_from(("wide", "reduced")))]
    argv += ["--stepper", draw(st.sampled_from(("ap", "ice", "explicit_llf"))),
             "--m", draw(_cells(64))]
    if preset == "custom":
        argv += ["--domain-a" + floats["domain_a"], "--domain-b" + floats["domain_b"]]
    return argv


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(argv=_argv())
def test_cli_exits_0_2_3_or_4_without_float_warnings(argv):
    with tempfile.TemporaryDirectory() as tmp:
        flag = "--output" if argv[0] == "table1" else "--output-dir"
        assert main([*argv, flag, str(Path(tmp) / "out")]) in (0, 2, 3, 4)
