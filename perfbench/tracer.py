"""Span tracer that wraps faultlab functions from outside the package.

Each target is a module attribute at the name its caller looks it up
(`faultlab.harness.fault_fixed_point` is what `run_scenario` calls), so
wrapping it sees every call without touching the package. A span records
its layer, its parent span, start and end, an optional count taken from the
result (iterations) and the exception type if the call raised. Spans stay in
memory; `summary` aggregates them and `write_spans` dumps them at exit.

A target that no longer exists is reported as an absent layer; one that is
no longer called shows zero calls. `installed` restores every patched name,
also when the traced code raises.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, NamedTuple


def _iterations(result: object) -> int:
    return int(getattr(result, "iterations", 0))


# (module, attribute, layer, count taken from the result)
TARGETS: tuple[tuple[str, str, str, Callable[[object], int] | None], ...] = (
    ("faultlab.cli", "main", "cli", None),
    ("faultlab.cli", "build_scenario", "scenario.build", None),
    ("faultlab.harness", "build_scenario", "scenario.build", None),
    ("faultlab.scenario", "build_scenario", "scenario.build", None),
    ("faultlab.cli", "run_scenario", "harness.run_scenario", None),
    ("faultlab.harness", "run_scenario", "harness.run_scenario", None),
    ("faultlab.harness", "prefault_solve", "sources.prefault", _iterations),
    ("faultlab.harness", "fault_fixed_point", "sources.fixed_point", _iterations),
    ("faultlab.harness", "solve_sg_fault", "sources.sg_fault", None),
    ("faultlab.sources", "solve_fault", "network.solve_fault", None),
    ("faultlab.network", "solve_linear", "network.solve_linear", None),
    ("faultlab.sources", "solve_linear", "network.solve_linear", None),
    ("faultlab.harness", "solve_linear", "network.solve_linear", None),
    ("faultlab.harness", "prefault_network_readings", "harness.prefault_readings", None),
    ("faultlab.harness", "directional_negative", "relay.eval", None),
    ("faultlab.harness", "directional_zero", "relay.eval", None),
    ("faultlab.harness", "directional_incremental", "relay.eval", None),
    ("faultlab.harness", "phase_select", "relay.eval", None),
    ("faultlab.harness", "solve_abc", "abc_oracle.solve", None),
    ("faultlab.cli", "csv_header", "report.serialize", None),
    ("faultlab.cli", "csv_line", "report.serialize", None),
    ("faultlab.cli", "record_line", "report.serialize", None),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in TARGETS))


class Span(NamedTuple):
    layer: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: float
    end: float
    count: int
    error: str | None


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    ok_s: float = 0.0  # time of the calls that returned
    count: int = 0  # result counts (iterations) summed over those calls
    errors: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    children: dict[str, int] = field(default_factory=lambda: defaultdict(int))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []  # "module.attribute" targets not found
        self._stack: list[tuple[int, str]] = []

    def _wrap(
        self, layer: str, fn: Callable, count: Callable[[object], int] | None
    ) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            # a layer reached again through another of its names is one span
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)  # type: ignore[arg-type]  # filled when the call ends
            stack.append((index, layer))
            start = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                counted = count(result) if count is not None and error is None else 0
                spans[index] = Span(layer, parent, start, end, counted, error)

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every target that exists; restore all of them on exit."""
        saved: list[tuple[object, str, object]] = []
        absent: list[str] = []
        try:
            for module_name, attr, layer, count in TARGETS:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if not callable(original):
                    absent.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, original, count))
            self.absent = absent
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self) -> dict[str, LayerStats]:
        """Per-layer calls, total and self time, counts and errors."""
        stats = {layer: LayerStats() for layer in LAYERS}
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_s[span.parent] += span.end - span.start
                stats[self.spans[span.parent].layer].children[span.layer] += 1
        for span, children in zip(self.spans, child_s):
            st = stats[span.layer]
            duration = span.end - span.start
            st.calls += 1
            st.total_s += duration
            st.self_s += duration - children
            if span.error is None:
                st.ok_s += duration
                st.count += span.count
            else:
                st.errors[span.error] += 1
        return stats

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: index, parent, layer, start and duration in us, error."""
        origin = self.spans[0].start if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                start_us = round((span.start - origin) * 1e6, 1)
                duration_us = round((span.end - span.start) * 1e6, 1)
                out.write(
                    json.dumps([index, span.parent, span.layer, start_us, duration_us, span.error])
                    + "\n"
                )
