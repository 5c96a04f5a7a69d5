"""Benchmark presets: initial data sampled at cell centers."""

import numpy as np
import pytest

from lowmach.config import build_config, build_problem
from lowmach.presets import (
    example1_eos,
    example1_grid,
    example1_state,
    example2_eos,
    example2_grid,
    example2_state,
    example3_eos,
    example3_grid,
    example3_state,
)


def test_example1_piecewise_values():
    eps = 0.1
    grid = example1_grid(100)
    st = example1_state(grid, eps)
    x = grid.cell_centers()
    e2 = eps**2
    # base region
    j = np.argmin(np.abs(x - 0.1))
    assert st.rho[j] == 1.0 and st.q[j] == 1.0 - e2 / 2
    # high bump (0.2, 0.3]
    j = np.argmin(np.abs(x - 0.25))
    assert st.rho[j] == 1.0 + e2 and st.q[j] == 1.0
    # middle (0.3, 0.7]
    j = np.argmin(np.abs(x - 0.5))
    assert st.rho[j] == 1.0 and st.q[j] == 1.0 + e2 / 2
    # low bump (0.7, 0.8]
    j = np.argmin(np.abs(x - 0.75))
    assert st.rho[j] == 1.0 - e2 and st.q[j] == 1.0
    # right base
    j = np.argmin(np.abs(x - 0.9))
    assert st.rho[j] == 1.0 and st.q[j] == 1.0 - e2 / 2


def test_example1_region_partition():
    # the half-open regions tile the domain: every cell gets exactly one
    # value and region populations match the interval lengths
    eps = 0.2
    grid = example1_grid(100)
    st = example1_state(grid, eps)
    e2 = eps**2
    assert np.sum(st.rho == 1.0 + e2) == 10   # (0.2, 0.3]
    assert np.sum(st.rho == 1.0 - e2) == 10   # (0.7, 0.8]
    assert np.sum(st.rho == 1.0) == 80
    assert np.sum(st.q == 1.0 + e2 / 2) == 40  # (0.3, 0.7]
    assert np.sum(st.q == 1.0 - e2 / 2) == 40  # base regions
    assert np.sum(st.q == 1.0) == 20


def test_example1_eos_is_quadratic():
    eos = example1_eos()
    assert eos.gamma == 2.0 and eos.lambda_coeff == 1.0


def test_example2_fields():
    eps = 0.1
    grid = example2_grid(100)
    assert grid.a == -1.0 and grid.b == 1.0
    st = example2_state(grid, eps)
    x = grid.cell_centers()
    hump = 1 - np.cos(2 * np.pi * x)
    assert np.allclose(st.rho, 0.955 + eps / 2 * hump)
    u = st.q / st.rho
    assert np.allclose(u, -np.sign(x) * np.sqrt(1.4) * hump)
    # no cell center sits at the sign discontinuity
    assert np.all(x != 0.0)
    assert example2_eos().gamma == pytest.approx(1.4)


def test_example3_fields():
    eps = 0.05
    grid = example3_grid(20, 20)
    st = example3_state(grid, eps)
    x, y = grid.cell_centers()
    xx, yy = np.meshgrid(x, y, indexing="ij")
    e2 = eps**2
    assert np.allclose(st.rho, 1 + e2 * np.sin(2 * np.pi * (xx + yy)) ** 2)
    assert np.allclose(st.q1, np.sin(2 * np.pi * (xx - yy)) + e2 * np.sin(2 * np.pi * (xx + yy)))
    assert np.allclose(st.q2, np.sin(2 * np.pi * (xx - yy)) + e2 * np.cos(2 * np.pi * (xx + yy)))
    assert example3_eos().gamma == 2.0


def test_example3_well_prepared():
    # density deviates from 1 by O(eps^2); the divergence-free part dominates
    for eps in (0.8, 0.05):
        st = example3_state(example3_grid(16, 16), eps)
        assert np.max(np.abs(st.rho - 1.0)) <= eps**2 + 1e-15


@pytest.mark.parametrize("preset, eos, grid", [
    ("example1", example1_eos(), example1_grid(20)),
    ("example2", example2_eos(), example2_grid(20)),
    ("example3", example3_eos(), example3_grid(8, 8)),
])
def test_config_presets_build_the_preset_eos_and_grid(preset, eos, grid):
    # config fixes each preset's EOS and domain from the presets' one table,
    # which the preset's own functions read too.
    built_eos, built_grid, _ = build_problem(build_config({"preset": preset, "m": 20,
                                                           "m1": 8, "m2": 8}))
    assert built_eos == eos and built_grid == grid
