"""Finite-volume solvers for the isentropic Euler equations with a
semi-implicit pressure treatment that stays stable and accurate uniformly
in the Mach number, plus explicit LLF and ICE-style baselines and the
experiment harness that reproduces the stability/convergence studies."""

from .core import (
    DtPolicy,
    EquationOfState,
    FluidState1D,
    FluidState2D,
    Grid1D,
    Grid2D,
    SchemeParams,
    validate_params,
)
from .diagnostics import (
    AlphaInterval,
    ErrorReport,
    alpha_admissible,
    ap_fluctuation,
    convergence_order,
    discrete_divergence_2d,
    relative_l2_error,
    total_variation,
)
from .elliptic import (
    EllipticCoefficients,
    beta_coefficient,
    solve_elliptic_2d,
    solve_elliptic_l_1d,
    solve_elliptic_ld_1d,
    solve_elliptic_nl_1d,
)
from .errors import (
    ConfigError,
    InstabilityError,
    InvalidStateError,
    LowMachError,
    NewtonDivergenceError,
    NoStableDtError,
    NumericsError,
    ParamError,
    PositivityError,
    SingularSystemError,
    SolverFailureError,
    UnsupportedGridError,
)
from .onedim import (
    StepReport,
    ap_stepper,
    assemble_dphi_1d,
    interface_speed,
    llf_flux_pair,
    max_stable_dt_scan,
    momentum_update_1d,
    step_ap_1d,
    step_explicit_llf_1d,
    step_ice_1d,
    wave_speeds,
)
from .tridiag import PeriodicTridiagonalSystem, solve_periodic_tridiagonal
from .twodim import (
    DirectionalSpeeds,
    assemble_dphi_2d,
    directional_speeds_2d,
    step_ap_2d,
)

__version__ = "0.1.0"
