"""Spans recorded around calls into the library, from outside it.

A request calls library functions through a ``call(name, fn, *args)``
function.  ``direct_call`` is the untraced form: it adds one Python frame
and nothing else.  ``Tracer.call`` records a span per call (name, start,
end, parent span, request id) in memory; ``Tracer.write`` stores them when
the pass ends.

Span names are ``<layer>.<function>``; the layer is the ``prophecy``
module the function belongs to (``bench`` for the benchmark's own root
spans).  Library calls made by the benchmark never nest inside each other,
so a library span's self time equals its duration; the root spans
``bench.request`` and ``bench.check`` separate the timed library calls of a
request from the reference calls of its correctness check.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


def direct_call(name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    return fn(*args, **kwargs)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.request = -1
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.request)

    def finished(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans still open")
        return list(self.spans)  # type: ignore[arg-type]  # every slot is filled once closed

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for index, span in enumerate(self.finished()):
                fh.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - child for span, child in zip(spans, covered)]


def root_of(spans: list[Span]) -> list[int]:
    """Index of the root span above each span."""
    roots: list[int] = []
    for index, span in enumerate(spans):
        roots.append(index if span.parent is None else roots[span.parent])
    return roots
