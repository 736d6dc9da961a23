"""Every name a package module imports is referenced in that module; no module imports scipy in
any form (scipy.interpolate and scipy.special's gamma keep their own checks).  The finite-volume
profile solve references nothing of the closed form."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "almgren_lab"
# `__init__` imports names to re-export them, not to use them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_modules(source) -> set[str]:
    """Modules imported anywhere in `source`, a string or a parsed node."""
    modules = set()
    for node in ast.walk(ast.parse(source) if isinstance(source, str) else source):
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


def _scipy_importers(source: str) -> list[str | None]:
    """The top-level functions and classes whose bodies import scipy in any form; None for the module."""
    return [getattr(top, "name", None) for top in ast.parse(source).body
            if any(m == "scipy" or m.startswith("scipy.") for m in _imported_modules(top))]


def test_the_check_sees_where_scipy_is_imported():
    source = ("import scipy.linalg as sl\n"
              "def f():\n    from scipy.linalg import eigh_tridiagonal\n"
              "class C:\n    def m(self):\n        from scipy import linalg\n"
              "def g():\n    import scipy.special\n"
              "def h():\n    import numpy, scipy as sp\n"
              "def k():\n    from scipy.special import jv as bessel\n"
              "def quiet():\n    import numpy\n    from scipyx import y\n")
    assert _scipy_importers(source) == [None, "f", "C", "g", "h", "k"]


def test_no_module_imports_scipy():
    # the package runs on numpy and math: the Gauss-Jacobi rules on numpy's
    # eigh, the tridiagonal solves on core._Tridiagonal, the Bessel functions
    # on special_functions' kernels.  scipy is a test dependency only
    found = {(path.stem, name) for path in MODULES + [PACKAGE / "__init__.py"]
             for name in _scipy_importers(path.read_text())}
    assert found == set()


# the finite-volume profile solve, the cross-check of the closed form c t^s K_s(t)
FV_SOLVE_ROOTS = ("solve_profile", "_profile_grid", "_cell_masses_tb", "_apply_D")
# the closed form, its kernel and its large-t asymptotics; np.expm1 of the cell masses is allowed
CLOSED_FORM_NAMES = {"exp", "kv", "_power_bessel_k", "BesselProfile", "_power_bessel"}


def _referenced_names(node) -> set[str]:
    """Every name, attribute and imported name under an AST node."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in sub.names)
    return names


def _reachable_names(source: str, roots) -> set[str]:
    """The names referenced by the top-level definitions `roots` and by every one they reach."""
    tops = {top.name: top for top in ast.parse(source).body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))}
    seen, todo, names = set(), list(roots), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        found = _referenced_names(tops[name])
        names |= found
        todo.extend(found & tops.keys())
    return names


def test_the_check_follows_calls_to_module_level_helpers():
    source = ("import numpy as np\n"
              "def root():\n    return _helper(1.0) + np.expm1(1.0)\n"
              "def _helper(t):\n    return np.exp(-t)\n"
              "def unreached():\n    from scipy.special import kv\n    return kv\n")
    assert _reachable_names(source, ["root"]) & CLOSED_FORM_NAMES == {"exp"}
    assert _reachable_names(source, ["unreached"]) & CLOSED_FORM_NAMES == {"kv"}


def test_fv_profile_solve_stays_independent_of_the_closed_form():
    # the cross-check must not borrow the answer it checks, e.g. a far field
    # modelled on the closed form's large-t expansion t^{alpha -/+ 1/2} e^{-t}
    names = _reachable_names((PACKAGE / "profile.py").read_text(), FV_SOLVE_ROOTS)
    assert names & CLOSED_FORM_NAMES == set()
