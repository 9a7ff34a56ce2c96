"""The package namespace is cut to its users.

A name is exported from ``weakmeas`` when a demo or the README's quick
start imports it from there, when it is an exception class, or when it is
one of the few more names a user needs (``USER_NAMES``). Everything else
stays in its module.
"""

import ast
import pathlib
import re
import types

import pytest

import weakmeas
from weakmeas import hilbert, meters, oracle, protocol

ROOT = pathlib.Path(__file__).parent.parent

# the README's package list names the first three; a hand-built MeterSpec
# needs verify_calibration, and disturbance is the paper's test of weakness
USER_NAMES = {"MeterSpec", "OutcomeTable", "monte_carlo_pair",
              "verify_calibration", "disturbance", "__version__"}


def package_imports(source: str) -> set:
    """The names a source imports with ``from weakmeas import ...``."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and node.module == "weakmeas" and node.level == 0
            for alias in node.names}


def demo_and_readme_imports() -> set:
    sources = [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    sources += re.findall(r"^```python\n(.*?)^```",
                          (ROOT / "README.md").read_text(), re.S | re.M)
    return set().union(*map(package_imports, sources))


def is_exception(name: str) -> bool:
    obj = getattr(weakmeas, name)
    return isinstance(obj, type) and issubclass(obj, Exception)


def test_the_demos_and_readme_import_from_the_package():
    # a guard over an empty collection would pass vacuously
    assert {"Observable", "eps_sweep", "weak_value_report",
            "monte_carlo_run"} <= demo_and_readme_imports()


def test_every_exported_name_has_a_user():
    used = demo_and_readme_imports()
    extra = [name for name in weakmeas.__all__
             if name not in used | USER_NAMES and not is_exception(name)]
    assert extra == []


def test_every_imported_name_is_exported():
    assert demo_and_readme_imports() - set(weakmeas.__all__) == set()


def test_namespace_is_all():
    # an import that bypasses __all__ still widens the namespace
    public = {name for name, obj in vars(weakmeas).items()
              if not name.startswith("_")
              and not isinstance(obj, types.ModuleType)}
    assert public | {"__version__"} == set(weakmeas.__all__)


@pytest.mark.parametrize("module, name", [
    (hilbert, "SpectralDecomposition"), (hilbert, "eig_hermitian"),
    (hilbert, "evolve_coupling"), (hilbert, "trace_distance"),
    (protocol, "WeakValueReport"), (protocol, "ExtrapolationResult"),
    (protocol, "EpsSweep"), (protocol, "richardson_limit"),
    (protocol, "coupled_state"), (oracle, "MonteCarloRun"),
])
def test_internals_stay_in_their_modules(module, name):
    assert not hasattr(weakmeas, name)
    assert getattr(module, name).__module__ == module.__name__


@pytest.mark.parametrize("name", ["position_operator", "momentum_operator"])
def test_dense_grid_builders_stay_in_meters(name):
    # criterion 7 and the bench spans import them from weakmeas.meters
    assert not hasattr(weakmeas, name)
    assert getattr(meters, name).__module__ == meters.__name__
