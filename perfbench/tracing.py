"""Span recording around the package's public functions, and the per-layer metrics.

`install` wraps every public function, classmethod and method of the
package's modules at every module that binds it: ``inequalities`` imports
``power_rule`` from ``core``, so wrapping ``core.power_rule`` alone would miss
those calls.  Each call records a span (name, start, end, parent) in memory;
`Tracer.dump` writes them out when the run ends and `layer_metrics` turns
them into the per-layer numbers.

Scalar helpers called once per term, per radius or per point (exponent maps,
radial power laws, harmonic dimensions, property getters) and the test-field
evaluators are not wrapped: a span would cost more than the call, and their
time stays in the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import re
import statistics
import subprocess
import sys
import time

MODULES = ("core", "special_functions", "cylinder", "hemisphere", "profile",
           "synthesis", "almgren", "inequalities", "cli")

UNWRAPPED = {
    "core.unit_sphere_area", "core.weighted_angular_moment", "core.WeightParams.from_b",
    "hemisphere.sigma_exponents", "hemisphere.k_constant",
    "hemisphere.harmonic_multiplicity", "hemisphere.sphere_harmonic_value",
    "hemisphere.AngularProfile.deriv", "hemisphere.AngularProfile.rescaled",
    "hemisphere.SpectralMode.equator_value", "hemisphere.SpectralMode.block_key",
    "synthesis.Term.phi", "synthesis.Term.dphi", "synthesis.Term.phi_tilde",
    "synthesis.Term.dphi_tilde", "synthesis.SeparableSolution.blocks",
    "synthesis.SeparableSolution.exponent_candidates",
    "cylinder.DirichletSpectrum.evaluator", "cylinder.DirichletSpectrum.mu",
    "cli.RunConfig.params", "cli.build_parser", "cli.main",
    # test-field evaluators: their time belongs to the margin that samples them
    *(f"inequalities.{cls}.{m}" for cls in ("GaussianBumps", "CutoffField", "SeparableModeField")
      for m in ("value", "grad", "lap_b")),
}


class Tracer:
    """In-memory span store: parallel lists indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "starts": self.starts, "ends": self.ends,
                       "parents": self.parents, "counters": self.counters}, fh)


def _bound(fn, args, kwargs):
    try:
        ba = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:
        return {}
    ba.apply_defaults()
    return ba.arguments


def _span_name(name: str, fn, args, kwargs) -> str:
    if name == "almgren.trace":
        return f"almgren.trace[{_bound(fn, args, kwargs).get('method', 'closed')}]"
    return name


def _count(tracer: Tracer, name: str, fn, args, kwargs, result) -> None:
    """Work counters recorded at the same boundaries as the spans."""
    if name == "hemisphere.hemisphere_eigs":
        a = _bound(fn, args, kwargs)
        sectors = 1 if a["params"].N == 1 else a["k_max"] + 1
        tracer.count("hemisphere.sectors_solved", sectors * (a["refinements"] + 1))
    elif name == "almgren.trace":
        tracer.count("almgren.radii_evaluated", result.r.size)
    elif name == "almgren.compute_DH":
        tracer.count("almgren.radii_evaluated", 1)
    elif name == "core.angle_to_xt":
        tracer.count("core.integral_nodes", result[0].size)
        tracer.count("core.integrals", 1)
    elif name == "core.HalfBallGrid.radial_rule":
        grid = args[0]
        tracer.count("core.integral_nodes", result[0].size * grid.angular.nodes.size)
        tracer.count("core.integrals", 1)


def _wrap(tracer: Tracer, name: str, fn):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.count(name)
                yield item
        return counting

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.begin(_span_name(name, fn, args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        _count(tracer, name, fn, args, kwargs, result)
        return result
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the package's public callables at every binding."""
    pkg = importlib.import_module("almgren_lab")
    mods = [importlib.import_module(f"almgren_lab.{m}") for m in MODULES]

    def layer_name(obj) -> str:
        return obj.__module__.split(".")[-1] + "." + obj.__qualname__

    # functions, wherever bound: one wrapper per function object
    wrappers: dict[int, object] = {}
    for mod in mods + [pkg]:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            name = layer_name(obj)
            if not obj.__module__.startswith("almgren_lab") or name in UNWRAPPED:
                continue
            if id(obj) not in wrappers:
                wrappers[id(obj)] = _wrap(tracer, name, obj)
            setattr(mod, attr, wrappers[id(obj)])
    # methods, on the class that defines them
    for mod in mods:
        for cls in list(vars(mod).values()):
            if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                continue
            for attr, member in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    name = f"{mod.__name__.split('.')[-1]}.{cls.__qualname__}.{attr}"
                    if name not in UNWRAPPED:
                        setattr(cls, attr, type(member)(_wrap(tracer, name, member.__func__)))
                elif inspect.isfunction(member) and layer_name(member) not in UNWRAPPED:
                    setattr(cls, attr, _wrap(tracer, layer_name(member), member))


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans: dict) -> dict[str, float]:
    """Total self time (s) per span name: duration minus the direct children's."""
    names, starts, ends, parents = spans["names"], spans["starts"], spans["ends"], spans["parents"]
    child = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out: dict[str, float] = {}
    for i, name in enumerate(names):
        out[name] = out.get(name, 0.0) + (ends[i] - starts[i]) - child[i]
    return out


def _has_descendant(spans: dict, name: str, target: str) -> tuple[int, int]:
    """(spans called `name`, those with a `target` span somewhere below them)."""
    names, parents = spans["names"], spans["parents"]
    marked = set()
    for i, n in enumerate(names):
        if n == target:
            p = parents[i]
            while p >= 0:
                marked.add(p)
                p = parents[p]
    total = [i for i, n in enumerate(names) if n == name]
    return len(total), sum(1 for i in total if i in marked)


def layer_metrics(spans: dict, extra: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from recorded spans and counters, as name -> (value, unit)."""
    st = self_times(spans)
    names = spans["names"]
    counters = spans["counters"]

    def ms(*keys, prefix=None):
        total = sum(st.get(k, 0.0) for k in keys)
        if prefix:
            total += sum(v for k, v in st.items() if k.startswith(prefix))
        return 1e3 * total

    def calls(name):
        return sum(1 for n in names if n == name)

    ext_total, ext_solved = _has_descendant(spans, "profile.build_extension",
                                            "profile.solve_profile")
    integrals = counters.get("core.integrals", 0.0)
    out = {
        "cli.self_ms": (ms("cli.run"), "ms"),
        "cli.output_bytes": (extra.get("cli.output_bytes", 0), "bytes"),
        "hemisphere.eigs_calls": (calls("hemisphere.hemisphere_eigs"), "count"),
        "hemisphere.eigs_self_ms": (ms("hemisphere.hemisphere_eigs"), "ms"),
        "hemisphere.sectors_solved": (counters.get("hemisphere.sectors_solved", 0), "count"),
        "hemisphere.polynomial_mode_self_ms": (ms("hemisphere.polynomial_mode"), "ms"),
        "profile.solve_calls": (calls("profile.solve_profile"), "count"),
        "profile.solve_self_ms": (ms("profile.solve_profile"), "ms"),
        "profile.extension_self_ms": (ms("profile.build_extension"), "ms"),
        "profile.cache_hit_share": (
            (ext_total - ext_solved) / ext_total if ext_total else 0.0, "share"),
        "special_functions.self_ms": (ms(prefix="special_functions."), "ms"),
        "cylinder.self_ms": (ms(prefix="cylinder."), "ms"),
        "synthesis.synthesize_self_ms": (ms("synthesis.synthesize"), "ms"),
        "synthesis.fourier_self_ms": (ms("synthesis.fourier_coefficient"), "ms"),
        "synthesis.fit_self_ms": (ms("synthesis.fit_blowup"), "ms"),
        "almgren.trace_closed_self_ms": (ms("almgren.trace[closed]"), "ms"),
        "almgren.trace_quadrature_self_ms": (ms("almgren.trace[quadrature]"), "ms"),
        "almgren.limit_self_ms": (ms("almgren.frequency_limit"), "ms"),
        "almgren.identities_self_ms": (
            ms("almgren.check_H_derivative", "almgren.check_pohozaev",
               "almgren.nu_decomposition"), "ms"),
        "almgren.radii_evaluated": (counters.get("almgren.radii_evaluated", 0), "count"),
        "core.power_rule_calls": (calls("core.power_rule"), "count"),
        "core.power_rule_self_ms": (ms("core.power_rule"), "ms"),
        "core.grid_build_self_ms": (
            ms("core.graded_breaks", "core.AngularGrid1D.build", "core.AngularGrid1D.for_params",
               "core.HalfBallGrid.build"), "ms"),
        "core.nodes_per_integral": (
            counters.get("core.integral_nodes", 0.0) / integrals if integrals else 0.0, "count"),
        "inequalities.hardy_self_ms": (ms("inequalities.check_hardy_trace"), "ms"),
        "inequalities.rellich_self_ms": (ms("inequalities.check_hardy_rellich"), "ms"),
        "inequalities.sobolev_self_ms": (ms("inequalities.estimate_sobolev_trace_constant"), "ms"),
        "inequalities.fields": (counters.get("inequalities.TestFamily.fields", 0), "count"),
    }
    return out


# ---------------------------------------------------------------------------
# import layer

_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")
IMPORT_KEYS = {"import.total_ms": "almgren_lab",
               "import.scipy_optimize_ms": "scipy.optimize",
               "import.scipy_sparse_ms": "scipy.sparse",
               "import.scipy_special_ms": "scipy.special"}


def import_times(src_dir: str, cwd: str, repeats: int = 3) -> dict[str, tuple[float, str]]:
    """Cumulative import times (ms) from fresh interpreters under ``-X importtime``.

    Each module is charged where it is first imported; the median of
    `repeats` interpreters is reported.
    """
    code = f"import sys; sys.path.insert(0, {src_dir!r}); import almgren_lab"
    samples: dict[str, list[float]] = {k: [] for k in IMPORT_KEYS}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              cwd=cwd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-500:]}")
        cumulative: dict[str, float] = {}
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m and m.group(4) not in cumulative:
                cumulative[m.group(4)] = int(m.group(2)) / 1e3
        for key, module in IMPORT_KEYS.items():
            samples[key].append(cumulative.get(module, 0.0))
    return {k: (statistics.median(v), "ms") for k, v in samples.items()}
