"""In-memory spans for the benchmark's traced runs.

A ``Tracer`` wraps public skyway_delivery functions in span recorders and,
while installed, puts the wrappers into every package namespace (and
module-level dict, such as a strategy table) that refers to the original
function. Calls between modules therefore show up as child spans of the
benchmark's own mission span without any change to the package.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int | None = None
    mission: int | None = None
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    def __init__(self, package, layers: dict[str, tuple[str, Callable | None]]):
        """``layers`` maps a public function name to (span name, counter).

        A counter takes the function's return value and returns a dict of
        work counts stored on the span.
        """
        self.spans: list[Span] = []
        self.mission: int | None = None
        self._stack: list[int] = []
        self._sites = []
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for public, (span_name, counter) in layers.items():
            original = getattr(package, public, None)
            if original is None:
                continue
            wrapper = self._wrap(span_name, original, counter)
            for module in modules:
                for key, value in vars(module).items():
                    if key.startswith("__"):
                        continue
                    if value is original:
                        self._sites.append((vars(module), key, original, wrapper))
                    elif isinstance(value, dict):
                        self._sites.extend((value, k, original, wrapper)
                                           for k, v in value.items() if v is original)

    def _open(self, name: str) -> Span:
        span = Span(name, 0, parent=self._stack[-1] if self._stack else None,
                    mission=self.mission)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start_ns = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(result)
            return result
        return traced

    def install(self) -> None:
        for namespace, key, _, wrapper in self._sites:
            namespace[key] = wrapper

    def uninstall(self) -> None:
        for namespace, key, original, _ in self._sites:
            namespace[key] = original

    def call(self, name: str, mission: int | None, fn: Callable, *args):
        """Run ``fn`` as a root span with the wrappers installed."""
        self.mission = mission
        self.install()
        span = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(span)
            self.uninstall()
            self.mission = None

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a root span measured elsewhere, e.g. inside a child process."""
        self.spans.append(Span(name, start_ns, end_ns))

    def self_ns(self) -> list[int]:
        """Each span's duration minus the part its children cover."""
        own = [s.end_ns - s.start_ns for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end_ns - s.start_ns
        return own

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                 "parent": s.parent, "mission": s.mission, "counts": s.counts}
                for s in self.spans]
