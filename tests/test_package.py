"""The package's public names and imports."""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import pfiber

MODULES = ("problem", "functionals", "linalg", "rayleigh", "solver", "asymptotics", "cli")


def test_public_names_resolve():
    """Every name in each module's __all__ is defined, and the package root
    defines no public name but its submodules: each name has one way in."""
    for module in (importlib.import_module(f"pfiber.{m}") for m in MODULES):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    extra = [name for name, value in vars(pfiber).items() if not name.startswith("_")
             and not (isinstance(value, types.ModuleType)
                      and value.__name__ == f"pfiber.{name}")]
    assert not extra, extra


def test_no_unused_imports():
    """Every name a module imports is used in it or listed in its __all__."""
    for path in sorted(Path(pfiber.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = "pfiber" if path.stem == "__init__" else f"pfiber.{path.stem}"
        exported = getattr(importlib.import_module(module), "__all__", [])
        unused = sorted(imported - used - set(exported))
        assert not unused, (path.name, unused)


def test_traced_names_exist():
    """Every (module, attribute) the benchmark tracer patches is defined.

    A class member is looked up in the class's own namespace.
    """
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, attr, _ in tracing.TRACED:
        owner = importlib.import_module(f"pfiber.{module_name}")
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        if owner is None or name not in vars(owner):
            missing.append((module_name, attr))
    assert not missing, missing
