"""Outside-in layer tracing for the in-process (``--trace 1``) run.

The tracer wraps, from outside the package, the public functions of each
layer module of ``invsys`` plus the named workhorse methods below.  Each
wrapped name is patched in every ``invsys`` module that holds it, because
``from .artin import analyze_artin`` copies the reference into the caller's
namespace.  Leaving the context restores every patched name.

Spans nest through a stack: a span's self time is its duration minus the
time covered by wrapped spans it called.  Spans are aggregated in memory by
name and written out when the run ends.

Methods of ``Poly``, ``Ring`` and the scalar types are not wrapped: they run
once per coefficient or monomial, and a wrapper would cost more than they do.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter
from typing import Callable

PACKAGE = "invsys"
LAYERS = ("cli", "poly", "linalg", "artin", "duality", "elliptic", "fixtures")

# Spans whose ``None`` results are counted: an insert that returns None
# reduced to zero and added nothing.
COUNT_NONE = ("linalg.Echelon.insert",)

# Methods that carry a layer's work but are not module-level functions.
METHODS = {
    "linalg": {"Echelon": ("reduce", "insert", "contains", "insert_all", "copy")},
    "artin": {"IdealHandle": ("_span_echelon",)},
    "duality": {"SubmoduleHandle": ("closure",)},
}


class SpanStats:
    """Aggregate of every span of one name (``None`` results only for COUNT_NONE)."""

    __slots__ = ("calls", "total", "self_time", "none_results")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.none_results = 0

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_ms": self.total * 1e3,
            "self_ms": self.self_time * 1e3,
            "none_results": self.none_results,
        }


def layer_modules() -> dict[str, object]:
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}


def targets() -> list[tuple[str, object, str, Callable]]:
    """(span name, owner, attribute, original) for everything to wrap.

    ``owner`` is the defining module for functions and the class for methods.
    """
    out = []
    for layer, mod in layer_modules().items():
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                out.append((f"{layer}.{name}", mod, name, obj))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                out.append((f"{layer}.{cls_name}.{meth}", cls, meth, cls.__dict__[meth]))
    return out


class Tracer:
    """Context manager that wraps the layer functions and aggregates spans."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list] = []  # [name, child_time] per open span
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(span, SpanStats())
        stack = self._stack
        count_none = span in COUNT_NONE

        def wrapper(*args, **kwargs):
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stats.calls += 1
                stats.total += dt
                stats.self_time += dt - frame[1]
                if count_none and result is None:
                    stats.none_results += 1
                if stack:
                    stack[-1][1] += dt

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def __enter__(self) -> "Tracer":
        wanted = targets()
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        try:
            for span, owner, attr, original in wanted:
                wrapper = self._wrap(span, original)
                if inspect.isclass(owner):
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def _patch(self, owner: object, name: str, wrapper: Callable) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __exit__(self, *exc) -> None:
        self.restore()

    def span(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    def report(self) -> dict:
        return {k: v.as_dict() for k, v in sorted(self.stats.items()) if v.calls}


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json, read off one traced session."""

    def ms(name: str, self_only: bool = False) -> float:
        s = tr.span(name)
        return (s.self_time if self_only else s.total) * 1e3

    def calls(name: str) -> int:
        return tr.span(name).calls

    insert = tr.span("linalg.Echelon.insert")
    m = {
        "linalg.insert_ms": (ms("linalg.Echelon.insert", self_only=True), "ms"),
        "linalg.insert_calls": (insert.calls, "count"),
        "linalg.insert_zero_frac": (insert.none_results / insert.calls if insert.calls else 0.0, "ratio"),
        "linalg.reduce_ms": (ms("linalg.Echelon.reduce"), "ms"),
        "linalg.reduce_calls": (calls("linalg.Echelon.reduce"), "count"),
        "linalg.kernel_ms": (ms("linalg.kernel_of_vectors"), "ms"),
        "linalg.kernel_calls": (calls("linalg.kernel_of_vectors"), "count"),
        "linalg.perp_ms": (ms("linalg.perp_space"), "ms"),
        "artin.search_ms": (ms("artin.analyze_artin"), "ms"),
        "artin.bounds_tried": (calls("artin.contains_power_of_maximal"), "count"),
        "artin.span_self_ms": (ms("artin.IdealHandle._span_echelon", self_only=True), "ms"),
        "artin.min_gens_ms": (ms("artin.ideal_min_gens"), "ms"),
        "artin.socle_ms": (ms("artin.socle_ideal"), "ms"),
        "artin.cm_type_ms": (ms("artin.cm_type"), "ms"),
        "duality.ann_ms": (ms("duality.ideal_ann"), "ms"),
        "duality.inv_syst_ms": (ms("duality.inv_syst"), "ms"),
        "duality.closure_ms": (ms("duality.SubmoduleHandle.closure"), "ms"),
        "duality.min_gens_ih_ms": (ms("duality.min_gens_ih"), "ms"),
        "poly.action_ms": (ms("poly.apply_action"), "ms"),
        "poly.action_calls": (calls("poly.apply_action"), "count"),
        "poly.parse_ms": (ms("poly.parse_poly"), "ms"),
        "poly.parse_calls": (calls("poly.parse_poly"), "count"),
        "poly.format_ms": (ms("poly.format_poly"), "ms"),
        "poly.format_calls": (calls("poly.format_poly"), "count"),
        "elliptic.verify_ms": (ms("elliptic.verify_row"), "ms"),
        "fixtures.replay_ms": (ms("fixtures.replay"), "ms"),
        "cli.run_ms": (ms("cli.run"), "ms"),
        "cli.commands": (calls("cli.run"), "count"),
    }
    for layer in LAYERS:
        total = sum(s.self_time for name, s in tr.stats.items() if name.split(".", 1)[0] == layer)
        m[f"{layer}.self_ms"] = (total * 1e3, "ms")
    return m
