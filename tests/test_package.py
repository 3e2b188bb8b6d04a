"""The package's public names."""

import importlib

import pfiber

MODULES = ("problem", "functionals", "linalg", "rayleigh", "solver", "asymptotics", "cli")


def test_public_names_resolve():
    """Every name in pfiber.__all__, and in each module's __all__, is defined."""
    for module in (pfiber, *(importlib.import_module(f"pfiber.{m}") for m in MODULES)):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
