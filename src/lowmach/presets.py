"""Built-in experiment presets: equation of state, domain and initial data.

The three benchmark flows:

* ``example1`` -- quadratic pressure on [0, 1]; stacked Riemann problems
  with density bumps of size eps^2 and momentum steps of size eps^2/2
  (well-prepared; discontinuity strength scales with eps);
* ``example2`` -- gamma = 1.4 on [-1, 1]; two counter-propagating acoustic
  pulses that collide and separate;
* ``example3`` -- quadratic pressure on the unit square; a smooth shear
  wave with eps^2 compressible perturbations (no shocks form).
"""

from __future__ import annotations

import numpy as np

from .core import EquationOfState, FluidState1D, FluidState2D, Grid1D, Grid2D

PRESET_NAMES = ("example1", "example2", "example3", "custom")

# What each built-in preset fixes, by config key: its dimension, equation of
# state and domain (example3's is the unit square).  The example*_eos and
# example*_grid functions below and lowmach.config both read this table.
_PRESET_FIXED = {
    "example1": dict(dimension=1, lambda_coeff=1.0, gamma=2.0, domain_a=0.0, domain_b=1.0),
    "example2": dict(dimension=1, lambda_coeff=1.0, gamma=1.4, domain_a=-1.0, domain_b=1.0),
    "example3": dict(dimension=2, lambda_coeff=1.0, gamma=2.0, domain_a=0.0, domain_b=1.0),
}


def _eos(preset: str) -> EquationOfState:
    fixed = _PRESET_FIXED[preset]
    return EquationOfState(lambda_coeff=fixed["lambda_coeff"], gamma=fixed["gamma"])


def _grid_1d(preset: str, m: int) -> Grid1D:
    fixed = _PRESET_FIXED[preset]
    return Grid1D(a=fixed["domain_a"], b=fixed["domain_b"], m=m)


def example1_eos() -> EquationOfState:
    return _eos("example1")


def example1_grid(m: int) -> Grid1D:
    return _grid_1d("example1", m)


def example1_state(grid: Grid1D, epsilon: float) -> FluidState1D:
    x = grid.cell_centers()
    e2 = epsilon**2
    rho = np.ones_like(x)
    q = np.full_like(x, 1.0 - e2 / 2.0)
    bump_hi = (x > 0.2) & (x <= 0.3)
    mid = (x > 0.3) & (x <= 0.7)
    bump_lo = (x > 0.7) & (x <= 0.8)
    rho[bump_hi] = 1.0 + e2
    q[bump_hi] = 1.0
    q[mid] = 1.0 + e2 / 2.0
    rho[bump_lo] = 1.0 - e2
    q[bump_lo] = 1.0
    return FluidState1D(rho=rho, q=q)


def example2_eos() -> EquationOfState:
    return _eos("example2")


def example2_grid(m: int) -> Grid1D:
    return _grid_1d("example2", m)


def example2_state(grid: Grid1D, epsilon: float) -> FluidState1D:
    x = grid.cell_centers()
    hump = 1.0 - np.cos(2.0 * np.pi * x)
    rho = 0.955 + (epsilon / 2.0) * hump
    u = -np.sign(x) * np.sqrt(1.4) * hump
    return FluidState1D(rho=rho, q=rho * u)


def example3_eos() -> EquationOfState:
    return _eos("example3")


def example3_grid(m1: int, m2: int) -> Grid2D:
    return Grid2D(m1=m1, m2=m2)


def example3_state(grid: Grid2D, epsilon: float) -> FluidState2D:
    x, y = grid.cell_centers()
    xx, yy = np.meshgrid(x, y, indexing="ij")
    e2 = epsilon**2
    shear = np.sin(2.0 * np.pi * (xx - yy))
    phase = 2.0 * np.pi * (xx + yy)
    rho = 1.0 + e2 * np.sin(phase) ** 2
    q1 = shear + e2 * np.sin(phase)
    q2 = shear + e2 * np.cos(phase)
    return FluidState2D(rho=rho, q1=q1, q2=q2)


def custom_state_1d(grid: Grid1D, rho0: float, q0: float) -> FluidState1D:
    return FluidState1D(rho=np.full(grid.m, rho0), q=np.full(grid.m, q0))


def custom_state_2d(grid: Grid2D, rho0: float, q0: float) -> FluidState2D:
    shape = (grid.m1, grid.m2)
    return FluidState2D(rho=np.full(shape, rho0), q1=np.full(shape, q0), q2=np.full(shape, q0))
