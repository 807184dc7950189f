"""Coupled nonlinear-Schrodinger market simulator.

A method-of-lines solver for a pair of cubic Schrodinger equations over a
stock-price grid (volatility and option-price wave functions) coupled
through an adaptive Hebbian potential, integrated with an embedded
Cash-Karp 4/5 pair, plus a closed-form vanilla call baseline and a ladder
of simpler verification problems.
"""

from .errors import (
    ConfigError,
    IntegrationError,
    StepBudgetError,
    StiffnessError,
)
from .grid import Grid, make_grid, second_difference
from .integrator import (
    StepControl,
    StepStats,
    cash_karp_step,
    integrate_adaptive,
)
from .ladder import (
    complex_system,
    energy,
    heat_potential_rhs,
    heat_rhs,
    linear_schrodinger_rhs,
    mass,
    nls_rhs,
    pack_complex,
    unpack_complex,
)
from .market import (
    ModelConfig,
    SimulationRecord,
    coupled_rhs,
    gaussian_kernels,
    hebbian_rhs,
    init_state,
    potential,
    run_simulation,
    target_output,
    target_signal,
)
from .reference import VanillaCall, call_price, std_normal_cdf

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Grid",
    "IntegrationError",
    "ModelConfig",
    "SimulationRecord",
    "StepBudgetError",
    "StepControl",
    "StepStats",
    "StiffnessError",
    "VanillaCall",
    "call_price",
    "cash_karp_step",
    "complex_system",
    "coupled_rhs",
    "energy",
    "gaussian_kernels",
    "heat_potential_rhs",
    "heat_rhs",
    "hebbian_rhs",
    "init_state",
    "integrate_adaptive",
    "linear_schrodinger_rhs",
    "make_grid",
    "mass",
    "nls_rhs",
    "pack_complex",
    "potential",
    "run_simulation",
    "second_difference",
    "std_normal_cdf",
    "target_output",
    "target_signal",
    "unpack_complex",
    "__version__",
]
