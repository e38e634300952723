"""The process-wide observability session and its disabled fast path.

Instrumented modules hold one reference::

    from repro.obs import OBS
    ...
    if OBS.enabled:
        OBS.metrics.counter("match.calls").inc()

``OBS`` is a singleton that lives for the whole process; enabling and
disabling flips one attribute, so with observability off a hot loop pays
exactly one attribute load and truthy check (benchmarked in
``benchmarks/test_component_speed.py``).  ``OBS.span(...)`` returns a
shared no-op context manager when disabled, so phase-level ``with``
blocks are also nearly free.

An enabled session also times the garbage collector: a ``gc.callbacks``
hook counts each generation's collections (``gc.gen<N>.collections``)
and their pauses in integer microseconds (``gc.gen<N>.pause_us``).
``disable`` removes the hook.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, Optional

from repro.obs.metrics import Metrics
from repro.obs.tracer import Span, Tracer

__all__ = ["ObsSession", "OBS", "get_session", "observed"]


class _NullContext:
    """Shared do-nothing span context for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL = _NullContext()


class ObsSession:
    """Tracer + metrics behind a single ``enabled`` switch."""

    __slots__ = ("enabled", "tracer", "metrics", "clock", "_gc_hook",
                 "_gc_start")

    def __init__(self, clock=time.perf_counter) -> None:
        self.enabled = False
        self.clock = clock
        self.tracer = Tracer(clock)
        self.metrics = Metrics()
        self._gc_hook = None
        self._gc_start = 0.0

    def enable(self, reset: bool = True) -> "ObsSession":
        """Turn recording on (fresh by default) and start timing the
        garbage collector."""
        if reset:
            self.reset()
        self.enabled = True
        if self._gc_hook is None:
            self._gc_hook = self._on_gc
            gc.callbacks.append(self._gc_hook)
        return self

    def disable(self) -> None:
        """Turn recording off (collected data stays readable)."""
        self.enabled = False
        hook, self._gc_hook = self._gc_hook, None
        if hook is not None and hook in gc.callbacks:
            gc.callbacks.remove(hook)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        """The ``gc.callbacks`` hook: one collection's count and pause.

        Timed with ``time.perf_counter``, not the session clock, so an
        injected clock only ever sees the caller's reads."""
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        pause_us = int((time.perf_counter() - self._gc_start) * 1e6)
        generation = info["generation"]
        metrics = self.metrics
        metrics.counter(f"gc.gen{generation}.collections").inc()
        metrics.counter(f"gc.gen{generation}.pause_us").inc(pause_us)

    def reset(self) -> None:
        """Drop all collected spans and metrics."""
        self.tracer.reset()
        self.metrics.reset()

    def span(self, name: str, **attrs: Any):
        """A recording span when enabled, a shared no-op otherwise."""
        if not self.enabled:
            return _NULL
        return self.tracer.span(name, **attrs)

    def annotate(self, span: Optional[Span], **attrs: Any) -> None:
        """Attach attributes to an open span (no-op when disabled)."""
        if span is not None:
            span.attrs.update(attrs)


#: The process-wide session; import this, check ``OBS.enabled``.
OBS = ObsSession()


def get_session() -> ObsSession:
    """The process-wide :data:`OBS` session."""
    return OBS


class observed:
    """``with observed() as session:`` — enable for the block's duration."""

    def __init__(self, session: Optional[ObsSession] = None) -> None:
        self.session = session or OBS

    def __enter__(self) -> ObsSession:
        return self.session.enable()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.session.disable()
