"""Per-layer accounting, taken from outside the library.

:class:`Tracer` wraps the public functions of each layer and keeps a span
stack: a layer's self time is the duration of its spans minus the wrapped
calls nested inside them.  A function is reached through every ``hexext.*``
module attribute bound to it (``from .linalg import solve_linear`` copies the
binding into ``modules``, ``ext``, ...), so the wrapper is installed on each
such attribute and the originals are put back by :meth:`Tracer.uninstall`.

:func:`cache_stats` finds every ``hexext`` callable that exposes
``cache_info()`` at run time and sums it per owning layer, so the figures
survive caches being added, renamed or removed.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

LAYERS = ("linalg", "modules", "ext", "diagram", "hexagon", "oracle", "document")
CACHED_LAYERS = ("linalg", "modules", "ext")

# per-function counts reported as layer metrics: metric name -> function
COUNTED = {
    "linalg.solve_calls": "linalg.solve_linear",
    "modules.exactness_reports": "modules.exactness_report",
    "diagram.validations": "diagram.validate_diagram1",
}


def _hexext_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hexext" or name.startswith("hexext."))]


def _layer_of(obj) -> str | None:
    mod = getattr(obj, "__module__", None) or ""
    layer = mod.rpartition(".")[2]
    return layer if mod.startswith("hexext.") else None


def public_functions() -> dict[int, tuple[str, str, object]]:
    """``id(fn) -> (layer, "layer.name", fn)`` for every public function a
    layer module defines (plain or cached)."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"hexext.{layer}"]
        for name, obj in vars(mod).items():
            if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == mod.__name__:
                out[id(obj)] = (layer, f"{layer}.{name}", obj)
    return out


class Tracer:
    """Span stack and counters for one traced run."""

    def __init__(self):
        self.calls = Counter()      # layer -> wrapped calls
        self.self_s = Counter()     # layer -> seconds
        self.fn_calls = Counter()   # "layer.name" -> wrapped calls
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, qualname: str, fn):
        stack, clock = self._stack, time.perf_counter
        calls, self_s, fn_calls = self.calls, self.self_s, self.fn_calls

        @functools.wraps(fn)
        def span(*args, **kwargs):
            nested = [0.0]
            stack.append(nested)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self_s[layer] += dt - nested[0]
                calls[layer] += 1
                fn_calls[qualname] += 1
        return span

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = public_functions()
        wrappers = {key: self._wrap(layer, qual, fn) for key, (layer, qual, fn) in targets.items()}
        for mod in _hexext_modules():
            for name, obj in list(vars(mod).items()):
                if id(obj) in targets:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])

    def uninstall(self) -> None:
        while self._patches:
            mod, name, obj = self._patches.pop()
            setattr(mod, name, obj)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def cache_stats() -> dict[str, dict[str, int]]:
    """Hits, misses and entries of every ``cache_info()`` callable in
    ``hexext``, summed per owning layer (each cache counted once)."""
    seen = {}
    for mod in _hexext_modules():
        holders = [vars(mod)] + [vars(c) for c in vars(mod).values()
                                 if isinstance(c, type) and c.__module__ == mod.__name__]
        for ns in holders:
            for obj in ns.values():
                info = getattr(obj, "cache_info", None)
                layer = _layer_of(obj)
                if callable(info) and layer is not None:
                    seen[id(obj)] = (layer, obj)
    out = {}
    for layer, obj in seen.values():
        info = obj.cache_info()
        acc = out.setdefault(layer, {"hits": 0, "misses": 0, "entries": 0})
        acc["hits"] += info.hits
        acc["misses"] += info.misses
        acc["entries"] += info.currsize
    return out


def layer_metrics(tracer: Tracer, caches: dict[str, dict[str, int]],
                  ref_factor: float = 1.0) -> dict[str, tuple[float, str]]:
    """``name -> (value, unit)`` for every per-layer metric; self times are
    multiplied by ``ref_factor`` (reference seconds per wall second)."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (tracer.calls[layer], "count")
        out[f"{layer}.self_s"] = (tracer.self_s[layer] * ref_factor, "s")
    for metric, fn in COUNTED.items():
        out[metric] = (tracer.fn_calls[fn], "count")
    for layer in CACHED_LAYERS:
        c = caches.get(layer, {"hits": 0, "misses": 0, "entries": 0})
        lookups = c["hits"] + c["misses"]
        out[f"{layer}.cache_hit_ratio"] = (c["hits"] / lookups if lookups else 0.0, "ratio")
        out[f"{layer}.cache_entries"] = (c["entries"], "count")
    return out
