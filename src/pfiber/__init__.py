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

The package root re-exports nothing: import each name from its module, as in
``from pfiber.solver import solve_ground_state``.
"""

__version__ = "0.1.0"
