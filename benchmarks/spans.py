"""Per-layer spans and counters, recorded from outside the package.

``Tracer.install`` replaces each public function of a layer module, under
every name a package module has bound it to (its own module included), with
a wrapper that opens a span for the call.  ``cli.main`` is wrapped where the
benchmark calls it.  A layer's self time is the time of its spans minus the
time of the spans they directly contain.  Spans are folded into per-layer
totals as they close; ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import inspect
from collections import Counter
from fractions import Fraction
from time import perf_counter
from types import ModuleType
from typing import Callable

LAYERS = ("cli", "geometry", "dualgraph", "counting", "exactalg", "formulas", "condensation")


def _bits(x: int | Fraction) -> int:
    x = Fraction(x)
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self, package: ModuleType) -> None:
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.namespaces = [package, *self.modules.values()]
        self.region_type = self.modules["geometry"].Region
        self.stack: list[list] = []  # open spans: [layer, time in child spans]
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.hyp_self_s = 0.0
        self.pfaffian_dim_max = 0
        self.pfaffian_cubes = 0
        self.entry_bits_max = 0
        self.entry_keys: set = set()
        self.entry_calls = 0
        self._patches: list[tuple[object, str, object]] = []

    def span(self, layer: str, key: str, fn: Callable) -> Callable:
        """fn wrapped to record a span of the given layer."""

        def wrapper(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            frame = [layer, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += elapsed
                own = elapsed - frame[1]
                self.calls[layer] += 1
                self.self_s[layer] += own
            self._observe(key, parent, args, kwargs, result, own)
            return result

        return wrapper

    def _observe(self, key, parent, args, kwargs, result, own) -> None:
        if isinstance(result, self.region_type):
            self.counters["geometry.cells_built"] += len(result.cells)
        if key == "counting.count_tilings_dp":
            self.counters["counting.dp.cells"] += len(args[0].cells)
        elif key == "counting.count_matchings_brute":
            self.counters["counting.brute.cells"] += len(args[0].cells)
        elif key == "dualgraph.boundary_cycle":
            region = args[0]
            self.counters["dualgraph.boundary_cycle.calls"] += 1
            self.counters["dualgraph.cells_walked"] += len(getattr(region, "cells", region))
        elif key == "exactalg.pfaffian":
            matrix = args[0]
            n = len(matrix)
            self.pfaffian_dim_max = max(self.pfaffian_dim_max, n)
            self.pfaffian_cubes += n**3
            for row in matrix:
                for x in row:
                    self.entry_bits_max = max(self.entry_bits_max, _bits(x))
        if key.startswith("formulas.") and parent != "formulas":
            self.entry_calls += 1
            self.entry_keys.add((key, args, tuple(sorted(kwargs.items()))))
        if key == "formulas.hyp_terminating":
            self.hyp_self_s += own
            self.counters["formulas.hyp_terminating.terms"] += min(-p for p in args[0] if p <= 0) + 1

    def install(self) -> None:
        for layer in LAYERS[1:]:
            module = self.modules[layer]
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self.span(layer, f"{layer}.{name}", fn)
                for namespace in self.namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is fn:
                            self._patches.append((namespace, attr, value))
                            setattr(namespace, attr, wrapper)
        region = self.region_type
        original = region.__dict__["from_cells"]
        self._patches.append((region, "from_cells", original))
        wrapped = self.span("geometry", "geometry.Region.from_cells", original.__func__)
        region.from_cells = staticmethod(wrapped)

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, value = self._patches.pop()
            setattr(namespace, attr, value)

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        for name in (
            "counting.dp.cells",
            "counting.brute.cells",
            "dualgraph.boundary_cycle.calls",
            "dualgraph.cells_walked",
            "geometry.cells_built",
        ):
            out[name] = (self.counters[name], "count")
        out["exactalg.pfaffian.dim_max"] = (self.pfaffian_dim_max, "count")
        # Computed from the dimensions, not counted: n^3/6 per Pfaffian.
        out["exactalg.pfaffian.ops"] = (self.pfaffian_cubes / 6, "ops")
        out["exactalg.pfaffian.entry_bits_max"] = (self.entry_bits_max, "bits")
        out["formulas.hyp_terminating.self_s"] = (self.hyp_self_s, "s")
        out["formulas.hyp_terminating.terms"] = (self.counters["formulas.hyp_terminating.terms"], "count")
        ratio = len(self.entry_keys) / self.entry_calls if self.entry_calls else 0.0
        out["formulas.entry_distinct_ratio"] = (ratio, "ratio")
        return out
