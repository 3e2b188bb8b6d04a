"""Variational toolkit for a singularly perturbed p-Laplacian Dirichlet problem.

The equation -eps * div(|grad u|^(p-2) grad u) = a|u|^(q-2)u - b|u|^(gamma-2)u
with zero boundary values and 1 < p < q < gamma is treated through its energy

    phi(u) = (eps/p) int |grad u|^p - (1/q) int a|u|^q + (1/gamma) int b|u|^gamma.

The package discretizes the problem with linear finite elements (`problem`),
evaluates the energy and its weak derivative (`functionals`), analyzes rays
s -> s*u to locate the solvability thresholds (`rayleigh`), computes the
negative-energy ground state and the mountain-pass second solution
(`solver`), and quantifies the small-eps flattening onto (a/b)^(1/(gamma-q))
with boundary-layer corrections (`asymptotics`).  `cli` drives batch
experiments from JSON configs.
"""

from .errors import (
    ConfigurationError,
    ContractViolation,
    DomainError,
    HypothesisViolation,
    InputError,
    NumericalError,
    PFiberError,
)
from .problem import (
    CoefficientField,
    DiscreteField,
    Exponents,
    Mesh,
    ProblemSpec,
    affine_coefficient,
    build_mesh,
    bump_coefficient,
    constant_coefficient,
    lr_norm,
    make_field,
)
from .functionals import (
    EnergyComponents,
    J_functional,
    energy_components,
    membership_tolerance,
    phi,
    phi_plus,
    w1p_norm,
    weak_residual,
    weak_residual_plus,
)
from .rayleigh import (
    IntersectionReport,
    RayPair,
    ThresholdEstimate,
    estimate_thresholds,
    extremal_constants,
    fiber_scalings,
    intersection_check,
    nonlinear_quotients,
    ray_quotients,
    scale_invariant_quotient,
)
from .solver import (
    MountainPassReport,
    SolveReport,
    solve_ground_state,
    solve_mountain_pass,
)
from .asymptotics import (
    AsymptoticMetrics,
    LayerProfile,
    LimitProfile,
    ScaledSolution,
    SweepReport,
    SweepRow,
    asymptotic_metrics,
    composite_approx_1d,
    epsilon_sweep,
    layer_profile_1d,
    limit_profile,
    scale_solution,
    separation_constant,
)

__version__ = "0.1.0"

__all__ = [
    "PFiberError", "ConfigurationError", "InputError", "DomainError",
    "ContractViolation", "HypothesisViolation", "NumericalError",
    "Exponents", "CoefficientField", "Mesh", "DiscreteField", "ProblemSpec",
    "build_mesh", "make_field", "lr_norm", "constant_coefficient",
    "affine_coefficient", "bump_coefficient",
    "EnergyComponents", "energy_components", "phi", "phi_plus",
    "weak_residual", "weak_residual_plus", "J_functional",
    "membership_tolerance", "w1p_norm",
    "RayPair", "extremal_constants", "ray_quotients", "fiber_scalings",
    "nonlinear_quotients", "scale_invariant_quotient", "IntersectionReport",
    "intersection_check", "ThresholdEstimate", "estimate_thresholds",
    "SolveReport", "solve_ground_state", "MountainPassReport",
    "solve_mountain_pass",
    "LimitProfile", "limit_profile", "AsymptoticMetrics", "asymptotic_metrics",
    "separation_constant", "SweepRow", "SweepReport", "epsilon_sweep",
    "ScaledSolution", "scale_solution",
    "LayerProfile", "layer_profile_1d", "composite_approx_1d",
    "__version__",
]
