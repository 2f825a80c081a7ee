"""Spans around the public ``unihop`` functions, kept in memory, and the
per-layer metrics computed from them.

:func:`install` replaces each traced function with a wrapper under every
name that refers to it in the loaded ``unihop`` modules and in the extra
modules given (the benchmark's own), so calls between modules are traced at
the module-level names the callers use.  The returned callable restores the
originals.  A span records its layer, function, operation id, parent span,
wall start/end and the process CPU time it covered; a layer's self time is
its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from dataclasses import dataclass, field

from unihop.errors import UnihopError

LAYERS = ("import", "cli", "serialize", "lattice", "dynamics", "spectral", "floquet", "engineering")

# layer -> (module, function) pairs wrapped in a traced pass
TARGETS = {
    "cli": (("unihop.cli", "main"),),
    "serialize": tuple(
        ("unihop.serialize", name)
        for name in (
            "dump_json",
            "matrix_to_dict",
            "report_to_dict",
            "write_trajectory_csv",
            "write_observables_csv",
            "write_rwa_csv",
        )
    ),
    "lattice": (
        ("unihop.lattice", "build_hamiltonian"),
        ("unihop.lattice", "hop_parts"),
        ("unihop.engineering", "laser_hamiltonian"),
    ),
    "dynamics": (("unihop.dynamics", "evolve_rk4"), ("unihop.dynamics", "evolve_closed_form")),
    "spectral": (
        ("unihop.spectral", "analyze_spectrum"),
        ("unihop.spectral", "ring_spectrum"),
        ("unihop.spectral", "wannier_stark_states"),
    ),
    "floquet": (("unihop.floquet", "monodromy"),),
    "engineering": tuple(
        ("unihop.engineering", name)
        for name in (
            "effective_hopping",
            "effective_hopping_quadrature",
            "solve_unidirectional",
            "rwa_validate",
            "laser_evolve",
        )
    ),
}

PER_LAYER = {
    "import": ("cli_s", "scipy_s"),
    "cli": ("self_s",),
    "serialize": ("write_s", "bytes", "rows"),
    "lattice": ("build_s", "dense_bytes"),
    "dynamics": ("rk4_s", "rk4_steps", "rk4_ns_per_site_step", "rk4_cpu_ratio", "closed_s"),
    "spectral": ("jordan_s", "jordan_cpu_ratio", "eig_s", "ws_s", "raw_errors"),
    "floquet": ("monodromy_s", "steps"),
    "engineering": ("quadrature_s", "rwa_s", "laser_s", "newton_iters"),
}

_UNITS = {"bytes": "B", "dense_bytes": "B", "rk4_ns_per_site_step": "ns",
          "rk4_cpu_ratio": "ratio", "jordan_cpu_ratio": "ratio"}

# per-layer metric name -> unit (times in s, counts in count)
METRICS = {
    f"{layer}.{name}": _UNITS.get(name, "s" if name.endswith("_s") else "count")
    for layer in LAYERS
    for name in ("calls", "failed") + PER_LAYER[layer]
}
METRICS["trace.overhead_s"] = "s"


@dataclass
class Span:
    layer: str
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    cpu: float = 0.0
    child_wall: float = 0.0
    child_cpu: float = 0.0
    error: str | None = None
    raw_error: bool = False
    info: dict = field(default_factory=dict)

    @property
    def self_wall(self) -> float:
        return self.end - self.start - self.child_wall

    @property
    def self_cpu(self) -> float:
        return self.cpu - self.child_cpu


class Tracer:
    """Collects spans of one traced pass; ``op`` is the current operation id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    def call(self, layer: str, fn, measure, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(layer, fn.__name__, self.op, parent, time.perf_counter())
        cpu0 = time.process_time()
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
            if measure is not None:
                span.info = measure(result, inspect.signature(fn).bind(*args, **kwargs).arguments)
            return result
        except Exception as exc:
            span.error = type(exc).__name__
            span.raw_error = not isinstance(exc, UnihopError)
            raise
        finally:
            span.end = time.perf_counter()
            span.cpu = time.process_time() - cpu0
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_wall += span.end - span.start
                self.spans[parent].child_cpu += span.cpu


def _rk4_steps(t_end: float, dt: float) -> int:
    # the integrators' own step count: ceil(t_end / dt) uniform steps
    return max(1, math.ceil(t_end / dt * (1.0 - 1e-12))) if t_end > 0 else 0


def _file_info(rows):
    def measure(result, a):
        target = a["target"]
        size = os.path.getsize(target) if isinstance(target, (str, os.PathLike)) else 0
        return {"bytes": size, "rows": rows(a)}

    return measure


# function name -> measure(result, bound arguments) -> span.info
_MEASURE = {
    "main": lambda r, a: {"failed": r != 0},
    "dump_json": _file_info(lambda a: 0),
    "write_trajectory_csv": _file_info(lambda a: a["traj"].amps.size),
    "write_observables_csv": _file_info(lambda a: len(a["traj"])),
    "write_rwa_csv": _file_info(lambda a: len(a["samples"])),
    "build_hamiltonian": lambda r, a: {"dense_bytes": r.dim**2 * 16},
    "hop_parts": lambda r, a: {"dense_bytes": 3 * r[0].shape[0] ** 2 * 16},
    "laser_hamiltonian": lambda r, a: {"dense_bytes": r.dim**2 * 16},
    "evolve_rk4": lambda r, a: {
        "steps": _rk4_steps(a["cfg"].t_end, a["cfg"].dt),
        "sites": len(a["c0"]),
    },
    "analyze_spectrum": lambda r, a: {"defective": r.is_defective},
    "monodromy": lambda r, a: {"steps": _rk4_steps(a["drive"].period, a["dt"])},
    "solve_unidirectional": lambda r, a: {"newton_iters": r.iterations},
}


def install(tracer: Tracer, extra_modules=()):
    """Wrap every traced function; returns a callable that restores them."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "unihop"]
    modules += list(extra_modules)
    patched = []
    for layer, targets in TARGETS.items():
        for module_name, func_name in targets:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = _wrap(tracer, layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))

    def restore() -> None:
        for module, attr, original in patched:
            setattr(module, attr, original)

    return restore


def _wrap(tracer: Tracer, layer: str, fn):
    measure = _MEASURE.get(fn.__name__)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(layer, fn, measure, args, kwargs)

    return wrapper


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (the import layer is measured apart)."""
    m = {name: 0.0 for name in METRICS if not name.startswith(("import.", "trace."))}
    rk4_cpu = rk4_site_steps = jordan_cpu = 0.0
    for s in spans:
        m[f"{s.layer}.calls"] += 1
        if s.error or s.info.get("failed"):
            m[f"{s.layer}.failed"] += 1
        wall = s.self_wall
        if s.layer == "cli":
            m["cli.self_s"] += wall
        elif s.layer == "serialize":
            m["serialize.write_s"] += wall
            m["serialize.bytes"] += s.info.get("bytes", 0)
            m["serialize.rows"] += s.info.get("rows", 0)
        elif s.layer == "lattice":
            m["lattice.build_s"] += wall
            m["lattice.dense_bytes"] += s.info.get("dense_bytes", 0)
        elif s.name == "evolve_rk4":
            m["dynamics.rk4_s"] += wall
            m["dynamics.rk4_steps"] += s.info.get("steps", 0)
            rk4_site_steps += s.info.get("steps", 0) * s.info.get("sites", 0)
            rk4_cpu += s.self_cpu
        elif s.name == "evolve_closed_form":
            m["dynamics.closed_s"] += wall
        elif s.name == "analyze_spectrum" and (s.error or s.info.get("defective")):
            m["spectral.jordan_s"] += wall
            jordan_cpu += s.self_cpu
        elif s.name in ("analyze_spectrum", "ring_spectrum"):
            m["spectral.eig_s"] += wall
        elif s.name == "wannier_stark_states":
            m["spectral.ws_s"] += wall
        elif s.layer == "floquet":
            m["floquet.monodromy_s"] += wall
            m["floquet.steps"] += s.info.get("steps", 0)
        elif s.name in ("effective_hopping", "effective_hopping_quadrature"):
            m["engineering.quadrature_s"] += wall
        elif s.name == "rwa_validate":
            m["engineering.rwa_s"] += wall
        elif s.name == "laser_evolve":
            m["engineering.laser_s"] += wall
        elif s.name == "solve_unidirectional":
            m["engineering.newton_iters"] += s.info.get("newton_iters", 0)
        if s.layer == "spectral" and s.raw_error:
            m["spectral.raw_errors"] += 1
    m["dynamics.rk4_ns_per_site_step"] = _ratio(m["dynamics.rk4_s"] * 1e9, rk4_site_steps)
    m["dynamics.rk4_cpu_ratio"] = _ratio(rk4_cpu, m["dynamics.rk4_s"])
    m["spectral.jordan_cpu_ratio"] = _ratio(jordan_cpu, m["spectral.jordan_s"])
    return m
