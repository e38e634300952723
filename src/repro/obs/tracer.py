"""Nestable wall-clock spans with Chrome ``trace_event`` export.

The tracer keeps a stack of open :class:`Span` objects *per thread*;
``with tracer.span("cover", circuit=name):`` opens a child of whatever
span the calling thread currently has open.  Every span records
inclusive wall time on the monotonic ``time.perf_counter`` clock (the
same clock the flow's ``runtime_s`` uses), and *exclusive* time —
inclusive minus the inclusive time of its direct children — falls out
at read time.

A thread with no open span starts a root of its own (the serve worker
threads each record their jobs this way); root appends are serialised
by a lock, so a span never nests under another thread's span.

Two export formats:

* :meth:`Tracer.to_jsonl` — one JSON object per span per line, handy for
  ad-hoc grepping and for diffing runs.
* :meth:`Tracer.chrome_trace` — the Chrome ``trace_event`` "X" (complete
  event) format, loadable in ``chrome://tracing`` or Perfetto.  Thread
  idents are renumbered to small track ids (first-seen thread = 1).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer"]


class Span:
    """One timed region; children are spans opened while it was open."""

    __slots__ = ("name", "attrs", "start", "end", "children", "depth", "tid")

    def __init__(self, name: str, attrs: Dict[str, Any], start: float,
                 depth: int, tid: int = 0) -> None:
        self.name = name
        self.attrs = attrs
        self.start = start
        self.end: Optional[float] = None
        self.children: List["Span"] = []
        self.depth = depth
        #: ``threading.get_ident()`` of the recording thread.
        self.tid = tid

    @property
    def duration(self) -> float:
        """Inclusive wall time, seconds (0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def exclusive(self) -> float:
        """Inclusive time minus the inclusive time of direct children."""
        return self.duration - sum(c.duration for c in self.children)

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration:.6f}s)"


class _SpanContext:
    """Context manager opening/closing one span on the tracer stack."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._attrs)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._close(self._span)


class Tracer:
    """Process-local span recorder.

    Args:
        clock: monotonic time source in seconds; defaults to
            ``time.perf_counter`` so span times compose with the flow
            runtime measurements.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.roots: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.epoch = clock()

    def _stack(self) -> List[Span]:
        """The calling thread's open-span stack."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording ----------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a nested span for the duration of a ``with`` block."""
        return _SpanContext(self, name, attrs)

    def _open(self, name: str, attrs: Dict[str, Any]) -> Span:
        stack = self._stack()
        span = Span(name, attrs, self.clock(), depth=0,
                    tid=threading.get_ident())
        if stack:
            span.depth = len(stack)
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        # Tolerate mismatched closes (a span leaked by an exception in a
        # hook): unwind to the span being closed.
        stack = self._stack()
        while stack:
            top = stack.pop()
            if top is span:
                break
            if top.end is None:
                top.end = span.end

    def reset(self) -> None:
        """Drop all recorded spans (only the calling thread may have
        spans still open; workers must have been joined)."""
        with self._lock:
            self.roots = []
        self._local.stack = []
        self.epoch = self.clock()

    @property
    def current(self) -> Optional[Span]:
        """This thread's innermost open span (``None`` outside spans)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def all_spans(self) -> Iterator[Span]:
        """Every recorded span, depth-first from each root."""
        for root in self.roots:
            yield from root.walk()

    # -- export -------------------------------------------------------------

    def _span_record(self, span: Span) -> Dict[str, Any]:
        return {
            "name": span.name,
            "start_s": span.start - self.epoch,
            "dur_s": span.duration,
            "exclusive_s": span.exclusive,
            "depth": span.depth,
            "attrs": _jsonable(span.attrs),
        }

    def to_jsonl(self) -> str:
        """One JSON object per recorded span, one per line."""
        return "\n".join(
            json.dumps(self._span_record(s)) for s in self.all_spans()
        )

    def chrome_events(self, pid: int = 1, tid: int = 1) -> List[Dict[str, Any]]:
        """Chrome ``trace_event`` complete ("X") events, timestamps in µs.

        Thread idents are renumbered in first-seen (document) order
        starting from ``tid``, so a single-threaded trace sits entirely
        on track ``tid``.
        """
        events: List[Dict[str, Any]] = [
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "name": "process_name",
                "args": {"name": "repro"},
            }
        ]
        track_of: Dict[int, int] = {}
        for span in self.all_spans():
            track = track_of.get(span.tid)
            if track is None:
                track = track_of[span.tid] = tid + len(track_of)
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.start - self.epoch) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": pid,
                    "tid": track,
                    "args": _jsonable(span.attrs),
                }
            )
        return events

    def chrome_trace(self) -> Dict[str, Any]:
        """The full Chrome/Perfetto trace document."""
        return {
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
        }

    def write_chrome_trace(self, path: str) -> None:
        """Write the Chrome/Perfetto trace document to ``path``."""
        with open(path, "w") as f:
            json.dump(self.chrome_trace(), f)


def _jsonable(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce attribute values to JSON-safe scalars."""
    out: Dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out
