"""Run configuration: the flat key=value config format, and the one place
where a run's inputs are checked.

The config keys are the fields of :class:`RunConfig`, and a key's string
value is parsed by its field's type.  A config file is UTF-8 text, one
``key = value`` per line, ``#`` starts a comment, blank lines ignored,
unknown keys rejected.  The ``run`` and ``sweep`` flags are the config
keys; a flag's value is parsed as a file's is, and overrides it.  Presets
fix the equation of state, the domain and the initial data; overriding a
preset-fixed quantity with a contradictory value is a config error.

A config is checked by building what it describes, with the constructors a
run uses: an input that one of them rejects is a :class:`ConfigError`
naming the keys it came from.  Only what no constructor checks is checked
here: names, the run length, a fixed dt (finite and > 0, and at most
:data:`lowmach.handoff.MAX_STEPS` steps t_final / dt), snapshot times, the
2D stepper and domain, and the cell counts of the elliptic solve.  The
table verbs and compare-ice build each of their cases as a config too, so
these are the rules of every verb.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

from .core import EquationOfState, Grid1D, Grid2D, SchemeParams, validate_params
from .elliptic import _STENCIL_STRIDE, _VARIANT_STRIDE
from .errors import ConfigError, InvalidStateError, ParamError
from .handoff import check_step_count
from .presets import (
    PRESET_NAMES,
    custom_state_1d,
    custom_state_2d,
    example1_state,
    example2_state,
    example3_state,
)

_STEPPERS = ("ap", "explicit_llf", "ice")

_PRESET_FIXED = {
    "example1": dict(dimension=1, lambda_coeff=1.0, gamma=2.0, domain_a=0.0, domain_b=1.0),
    "example2": dict(dimension=1, lambda_coeff=1.0, gamma=1.4, domain_a=-1.0, domain_b=1.0),
    "example3": dict(dimension=2, lambda_coeff=1.0, gamma=2.0, domain_a=0.0, domain_b=1.0),
}
_PRESET_STATES = {"example1": example1_state, "example2": example2_state,
                  "example3": example3_state}


@dataclass(frozen=True)
class RunConfig:
    """A complete experiment description; its fields are the config keys.
    ``dt`` is the fixed time step, or None for the CFL rule of the explicit
    part, dt = sigma * dx / max(|u| + sqrt(alpha p'))."""

    preset: str = "example1"
    dimension: int = 1
    lambda_coeff: float = 1.0
    gamma: float = 2.0
    epsilon: float = 0.8
    alpha: float = 1.0
    sigma: float = 0.5
    m: int = 100
    m1: int = 20
    m2: int = 20
    dt: float | None = None
    t_final: float = 0.1
    stepper: str = "ap"
    variant: str = "ld"
    stencil: str = "reduced"
    snapshot_times: tuple = ()
    output_dir: str = "out"
    domain_a: float = 0.0
    domain_b: float = 1.0
    rho0: float = 1.0
    q0: float = 0.0


def _parse_float(key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def parse_floats(key, raw) -> tuple:
    """The numbers of the comma-separated ``raw``, empty parts skipped."""
    try:
        return tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated numbers, got {raw!r}") from None


# The parser of each field's type: the fields' annotations are strings.
_TYPE_PARSERS = {"int": _parse_int, "float": _parse_float, "float | None": _parse_float,
                 "str": str, "tuple": parse_floats}
_KEY_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(RunConfig)}


def parse_config_file(path) -> dict:
    """Read a key=value config file into a raw-value dict."""
    raw = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEY_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def build_config(raw: dict) -> RunConfig:
    """Turn raw (string or typed) key/values into a validated RunConfig."""
    values = {}
    for key, value in raw.items():
        if key not in _KEY_PARSERS:
            raise ConfigError(f"unknown key {key!r}")
        if isinstance(value, str) and _KEY_PARSERS[key] is not str:
            value = _KEY_PARSERS[key](key, value)
        values[key] = value

    preset = values.get("preset", "example1")
    if preset not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {preset!r}; choose one of {PRESET_NAMES}")
    for key, fixed in _PRESET_FIXED.get(preset, {}).items():
        if key in values and values[key] != fixed:
            raise ConfigError(f"{key}={values[key]} contradicts preset {preset} (fixed to {fixed})")
        values[key] = fixed

    if values.get("dt") is not None:
        values["dt"] = float(values["dt"])

    if "snapshot_times" in values:
        values["snapshot_times"] = tuple(float(t) for t in values["snapshot_times"])

    cfg = RunConfig(**values)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    if cfg.dimension not in (1, 2):
        raise ConfigError(f"dimension must be 1 or 2, got {cfg.dimension}")
    _check_name("stepper", cfg.stepper, _STEPPERS)
    _check_name("variant", cfg.variant, _VARIANT_STRIDE)
    _check_name("stencil", cfg.stencil, _STENCIL_STRIDE)
    if cfg.dimension == 2 and cfg.stepper != "ap":
        raise ConfigError(f"2D runs support only the ap stepper, got {cfg.stepper!r}")
    if not (cfg.t_final > 0.0 and math.isfinite(cfg.t_final)):
        raise ConfigError(f"t_final must be finite and > 0, got {cfg.t_final}")
    for t in cfg.snapshot_times:
        if not (0.0 <= t <= cfg.t_final):
            raise ConfigError(f"snapshot time {t} outside [0, t_final={cfg.t_final}]")
    if cfg.dimension == 2 and (cfg.domain_a, cfg.domain_b) != (0.0, 1.0):
        raise ConfigError("2D runs are on the unit square: domain_a, domain_b must be 0, 1")
    if cfg.dimension == 1 and cfg.stepper != "explicit_llf":
        # Each residue class mod the stride needs three cells; the ICE
        # correction always solves on the three-point stencil.
        variant = cfg.variant if cfg.stepper == "ap" else "ld"
        stride = _VARIANT_STRIDE[variant]
        if cfg.m % stride != 0:
            raise ConfigError(f"variant {variant} requires an even m, got {cfg.m}")
        if cfg.m < 3 * stride:
            raise ConfigError(f"m must be >= {3 * stride} for the elliptic solve, got {cfg.m}")
    if cfg.dimension == 2 and cfg.stencil == "wide" and (cfg.m1 % 2 or cfg.m2 % 2):
        raise ConfigError(f"wide stencil requires even m1, m2, got {cfg.m1}, {cfg.m2}")
    # The parameters first: a preset's initial state is built from epsilon.
    with config_errors("epsilon, alpha, sigma"):
        validate_params(scheme_params(cfg))
    if cfg.dt is not None:
        # NaN fails here: check_step_count lets it pass.
        if not 0.0 < cfg.dt < math.inf:
            raise ConfigError(f"a fixed dt must be finite with dt > 0, got {cfg.dt}")
        check_step_count(cfg.dt, cfg.t_final, ConfigError)
    build_problem(cfg)


def _check_name(key: str, value, names) -> None:
    if value not in names:
        raise ConfigError(f"{key} must be one of {tuple(names)}, got {value!r}")


@contextmanager
def config_errors(keys: str):
    """Re-raise an :class:`InvalidStateError` or :class:`ParamError` of the
    block, a constructor's rule that an input broke, as a
    :class:`ConfigError` naming the config ``keys`` the input came from."""
    try:
        yield
    except (InvalidStateError, ParamError) as exc:
        raise ConfigError(f"{exc} (from {keys})") from None


def build_problem(cfg: RunConfig):
    """(eos, grid, initial state) of a config that :func:`build_config`
    returned, whose presets have fixed their equation of state and domain.
    An input that a constructor rejects is a :class:`ConfigError`."""
    with config_errors("lambda_coeff, gamma"):
        eos = EquationOfState(lambda_coeff=cfg.lambda_coeff, gamma=cfg.gamma)
    if cfg.dimension == 1:
        with config_errors("domain_a, domain_b, m"):
            grid = Grid1D(a=cfg.domain_a, b=cfg.domain_b, m=cfg.m)
        cells, cell_keys = cfg.m, "m"
    else:
        with config_errors("m1, m2"):
            grid = Grid2D(m1=cfg.m1, m2=cfg.m2)
        cells, cell_keys = cfg.m1 * cfg.m2, "m1, m2"
    try:
        with config_errors("rho0, q0" if cfg.preset == "custom" else "epsilon"):
            if cfg.preset != "custom":
                state = _PRESET_STATES[cfg.preset](grid, cfg.epsilon)
            elif cfg.dimension == 1:
                state = custom_state_1d(grid, cfg.rho0, cfg.q0)
            else:
                state = custom_state_2d(grid, cfg.rho0, cfg.q0)
    except MemoryError:
        # A count that a float array can index but the machine cannot hold.
        raise ConfigError(f"the initial state of {cells} cells does not fit in memory "
                          f"(from {cell_keys})") from None
    return eos, grid, state


def scheme_params(cfg: RunConfig) -> SchemeParams:
    return SchemeParams(epsilon=cfg.epsilon, alpha=cfg.alpha, sigma=cfg.sigma)


def config_to_dict(cfg: RunConfig) -> dict:
    """Flat, JSON-friendly echo of a config (for manifests): its fields,
    tuples as lists; :func:`build_config` rebuilds the config from it."""
    out = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    out["snapshot_times"] = list(cfg.snapshot_times)
    return out
