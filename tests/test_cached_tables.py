"""Every table the package caches with `lru_cache` or `functools.cache` is read-only: a caller
that wrote into a cached array would change every later result built on it.  The cached
functions are found in the source, so a new one fails here until it has sample arguments."""

import ast
import dataclasses
import importlib
import pathlib

import numpy as np
import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "almgren_lab"
# caches the parser, which holds no table
EXEMPT = {"cli._parser"}
_X = np.linspace(0.1, 1.0, 8)

# sample arguments per cached function, one tuple per call
SAMPLES = {
    "core._gauss_jacobi": [(16, 0.3)],
    # a full-rank design and one with a repeated power, which keeps pinv's answer
    "core._power_design": [(_X.tobytes(), np.array([0.0, 2.0]).tobytes(), (2,)),
                           (_X.tobytes(), np.array([[1.0, 1.0]]).tobytes(), (1, 2))],
    "core.AngularGrid1D._gauss": [(1, 0.3, 16), (3, -0.4, 16)],
    "cylinder._disk_zeros": [(6,)],
    "profile._cached_profile": [(0.3,)],
    "special_functions._series_coefficients": [((-0.3, 0.7),), ((0.0, 1.0),)],
    "special_functions._hankel_coefficients": [((-0.3, 0.7),), ((5.0, 6.0),)],
    "special_functions._legendre_rule": [(17,)],
    "special_functions._integral_nodes": [()],
    "special_functions._integral_tables": [((-0.3, 0.7),)],
    "special_functions._k_regions": [()],
    "special_functions._k_weights": [(0.7, 64)],
    "special_functions._k_asymptotic_coefficients": [(0.7,)],
}


def _is_cache(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name in ("lru_cache", "cache")


def _cached_functions(source: str) -> list[str]:
    """Qualified names of the functions of `source`, module-level or in a class, that are
    decorated with a cache."""
    found = []
    for top in ast.parse(source).body:
        members = [(f"{top.name}.", top.body)] if isinstance(top, ast.ClassDef) else [("", [top])]
        for prefix, body in members:
            found += [prefix + node.name for node in body
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and any(map(_is_cache, node.decorator_list))]
    return found


CACHED = sorted(f"{path.stem}.{name}" for path in PACKAGE.glob("*.py")
                for name in _cached_functions(path.read_text()))


def _writeable_arrays(value, where="result") -> list[str]:
    """Where `value` holds a writeable numpy array, through tuples, lists and dataclass fields."""
    if isinstance(value, np.ndarray):
        return [where] if value.flags.writeable else []
    if isinstance(value, (tuple, list)):
        return [w for i, v in enumerate(value) for w in _writeable_arrays(v, f"{where}[{i}]")]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [w for f in dataclasses.fields(value)
                for w in _writeable_arrays(getattr(value, f.name), f"{where}.{f.name}")]
    return []


def test_the_finder_sees_every_form_of_a_cache():
    source = ("import functools\nfrom functools import cache, cached_property, lru_cache\n"
              "@lru_cache(maxsize=8)\ndef a(): pass\n@functools.lru_cache\ndef b(): pass\n"
              "@functools.cache\ndef c(): pass\n@cache\ndef d(): pass\ndef e(): pass\n"
              "class K:\n    @classmethod\n    @lru_cache(maxsize=4)\n    def f(cls): pass\n"
              "    @cached_property\n    def g(self): pass\n")
    assert _cached_functions(source) == ["a", "b", "c", "d", "K.f"]


def test_the_writeable_check_reaches_nested_arrays():
    @dataclasses.dataclass
    class Box:
        inner: tuple

    locked = np.zeros(2)
    locked.flags.writeable = False
    assert _writeable_arrays((locked, None, Box(inner=(locked, [np.zeros(1)])))) == \
        ["result[2].inner[1][0]"]


def test_every_sample_names_a_cached_function():
    assert set(SAMPLES) <= set(CACHED) - EXEMPT


@pytest.mark.parametrize("name", [n for n in CACHED if n not in EXEMPT])
def test_a_cached_table_is_read_only(name):
    assert name in SAMPLES, f"{name} is cached; give it sample arguments in SAMPLES"
    module, *attrs = name.split(".")
    function = importlib.import_module(f"almgren_lab.{module}")
    for attr in attrs:
        function = getattr(function, attr)
    for args in SAMPLES[name]:
        writeable = _writeable_arrays(function(*args))
        assert writeable == [], f"{name} returns writeable arrays at {writeable}"
