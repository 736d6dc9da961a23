"""Every name a package module imports is referenced in that module; none is scipy.interpolate
or scipy.special's gamma."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "almgren_lab"
# `__init__` imports names to re-export them, not to use them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_modules(source: str) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import math\nfrom numpy import pi as p\n\nx = p\n") == \
        ["math (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_every_form_of_a_scipy_interpolate_import():
    for source in ("import scipy.interpolate", "from scipy.interpolate import CubicSpline",
                   "from scipy import interpolate", "def f():\n    import scipy.interpolate as si\n"):
        assert "scipy.interpolate" in _imported_modules(source), source


@pytest.mark.parametrize("path", MODULES + [PACKAGE / "__init__.py"], ids=lambda p: p.stem)
def test_no_module_imports_scipy_interpolate(path):
    # the finite-volume splines are core._CubicSpline: scipy.interpolate alone
    # would load scipy.optimize, sparse, spatial, fft and special with it
    assert "scipy.interpolate" not in _imported_modules(path.read_text())


def test_the_check_sees_a_scipy_special_gamma_import():
    for source in ("from scipy.special import gamma", "from scipy.special import jv, gamma as g",
                   "def f():\n    from scipy.special import gamma\n"):
        assert "scipy.special.gamma" in _imported_modules(source), source
    assert "scipy.special.gamma" not in _imported_modules("from scipy.special import gammaln")


@pytest.mark.parametrize("path", MODULES + [PACKAGE / "__init__.py"], ids=lambda p: p.stem)
def test_no_module_imports_gamma_from_scipy_special(path):
    # a scalar Gamma is math.gamma, within an ulp or two of scipy's
    assert "scipy.special.gamma" not in _imported_modules(path.read_text())
