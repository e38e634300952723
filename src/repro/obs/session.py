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
"""

from __future__ import annotations

import time
from typing import Any, Optional

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

    __slots__ = ("enabled", "tracer", "metrics", "clock")

    def __init__(self, clock=time.perf_counter) -> None:
        self.enabled = False
        self.clock = clock
        self.tracer = Tracer(clock)
        self.metrics = Metrics()

    def enable(self, reset: bool = True) -> "ObsSession":
        """Turn recording on (fresh by default)."""
        if reset:
            self.reset()
        self.enabled = True
        return self

    def disable(self) -> None:
        """Turn recording off (collected data stays readable)."""
        self.enabled = False

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
