"""In-memory spans around the benchmark's calls into the program.

A span records a name, a start, an end and its parent span; every span
of one run carries the run's id.  A span's self time is its duration
minus the durations of its child spans, so the program calls inside a
``bench.op`` span are not counted twice.  Span names are
``<layer>.<call>``.
"""

from __future__ import annotations

import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator


@dataclass
class Span:
    id: int
    parent: "int | None"
    name: str
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    """Records nested spans; the spans of one run share ``run_id``."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sp = Span(
            id=len(self.spans),
            parent=self._open[-1] if self._open else None,
            name=name,
            start=time.perf_counter(),
        )
        self.spans.append(sp)
        self._open.append(sp.id)
        try:
            yield
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def self_seconds(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)``."""
        child_s = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child_s[sp.parent] += sp.seconds
        table: dict[str, tuple[int, float, float]] = {}
        for sp in self.spans:
            calls, total, own = table.get(sp.name, (0, 0.0, 0.0))
            table[sp.name] = (
                calls + 1, total + sp.seconds, own + sp.seconds - child_s[sp.id]
            )
        return table

    def table(self) -> str:
        """The self-time table: one row per span name, sorted by layer."""
        rows = sorted(self.self_seconds().items())
        w = max([len("span")] + [len(name) for name, _ in rows])
        lines = [f"{'span':<{w}} {'calls':>6} {'total_s':>10} {'self_s':>10}"]
        for name, (calls, total, own) in rows:
            lines.append(f"{name:<{w}} {calls:>6} {total:>10.4f} {own:>10.4f}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [
                {"id": s.id, "parent": s.parent, "name": s.name,
                 "start": s.start, "end": s.end}
                for s in self.spans
            ],
        }


class NullSpans:
    """Tracing off: a span costs one call and records nothing."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield
