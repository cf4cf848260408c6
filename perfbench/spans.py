"""In-memory spans around the kickedchain bindings that a CLI run calls.

``cli.py`` and ``scenario.py`` import their callees by name, so the wrappers
replace those names in the calling modules (``kickedchain.cli.run_scenario``,
``kickedchain.scenario.evolve``, ...); wrapping the defining modules would
miss every call.  ``Tracer.installed`` restores the original bindings on
exit.  A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module, binding) -> layer; the calling module is where the name is looked up.
BINDINGS = {
    ("kickedchain.cli", "run_scenario"): "scenario",
    ("kickedchain.cli", "validate_config"): "validate",
    ("kickedchain.scenario", "validate_config"): "validate",
    ("kickedchain.scenario", "evolve"): "evolution",
    ("kickedchain.scenario", "qkr_evolve"): "evolution",
    ("kickedchain.scenario", "iterate_ensemble"): "maps",
    ("kickedchain.scenario", "surface_of_section"): "maps",
    ("kickedchain.scenario", "distribution_stats"): "diagnostics",
    ("kickedchain.scenario", "fit_localization_length"): "diagnostics",
    ("kickedchain.scenario", "detect_accelerator_modes"): "diagnostics",
    ("kickedchain.scenario", "cell_occupancy"): "diagnostics",
}


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    args: dict
    start: float = 0.0
    end: float = 0.0
    result: object = None
    children: float = 0.0  # summed duration of direct child spans

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children


class Tracer:
    """Records one span per wrapped call, in call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        span = Span(name, layer, self._stack[-1] if self._stack else None, bound.arguments)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            span.result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if span.parent is not None:
                self.spans[span.parent].children += span.duration
        return span.result

    def _wrapper(self, name, layer, fn):
        def wrapped(*args, **kwargs):
            return self.call(name, layer, fn, *args, **kwargs)

        return wrapped

    @contextmanager
    def installed(self):
        """Replace every binding in ``BINDINGS`` with a span-recording wrapper."""
        saved = []
        try:
            for (module_name, attr), layer in BINDINGS.items():
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(attr, layer, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_totals(self) -> dict[str, float]:
        """Summed self time per layer."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.layer] = totals.get(span.layer, 0.0) + span.self_time
        return totals
