"""Tracer behaviour under worker threads (the serve workers)."""

from __future__ import annotations

import threading

from repro.obs.tracer import Tracer


def test_worker_spans_do_not_nest_into_other_threads():
    """Two threads recording concurrently must not adopt each other's
    open spans as parents — each thread owns its own stack."""
    tracer = Tracer()
    ready = threading.Barrier(2)
    done = threading.Barrier(2)

    def work(name: str) -> None:
        with tracer.span(name):
            ready.wait()  # both spans are open simultaneously
            done.wait()

    threads = [
        threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(r.name for r in tracer.roots) == ["t0", "t1"]
    assert all(not r.children for r in tracer.roots)


def test_chrome_events_renumber_thread_tracks():
    tracer = Tracer()
    with tracer.span("main"):

        def work() -> None:
            with tracer.span("worker"):
                pass

        t = threading.Thread(target=work)
        t.start()
        t.join()
    events = [e for e in tracer.chrome_events() if e.get("ph") == "X"]
    tids = {e["name"]: e["tid"] for e in events}
    assert tids["main"] == 1  # first-seen thread takes track 1
    assert tids["worker"] == 2


def test_reset_clears_worker_roots():
    tracer = Tracer()

    def work() -> None:
        with tracer.span("orphan"):
            pass

    t = threading.Thread(target=work)
    t.start()
    t.join()
    assert tracer.roots
    tracer.reset()
    assert tracer.roots == []
