"""NetCache: every surviving entry equals a fresh recompute, mid-run."""

from __future__ import annotations

import pytest

from repro.circuits.suite import build_circuit
from repro.core.lily import LilyAreaMapper
from repro.core.rectangles import _node_point, true_fanouts
from repro.network.decompose import decompose_to_subject


class AuditingLilyMapper(LilyAreaMapper):
    """Re-derives every live cache entry from scratch after each commit."""

    audited_entries = 0
    audited_out = 0

    def _by_uid(self, uid):
        if not hasattr(self, "_uid_map"):
            self._uid_map = {n.uid: n for n in self.subject.nodes}
        return self._uid_map[uid]

    def on_commit(self, node, solution, instance):
        super().on_commit(node, solution, instance)
        cache = self._netcache
        for uid, entry in list(cache._entries.items()):
            fanin = self._by_uid(uid)
            fresh = true_fanouts(fanin, self.lifecycle)
            assert entry[0] == fresh
            fresh_points = [
                _node_point(n, self.state, self.lifecycle) for n in fresh
            ]
            assert entry[2] == [p.x for p in fresh_points]
            assert entry[3] == [p.y for p in fresh_points]
            self.audited_entries += 1
        for uid, (sink_uids, xs, ys) in list(cache._out_entries.items()):
            out_node = self._by_uid(uid)
            assert sink_uids == [s.uid for s in out_node.fanouts]
            points = [
                _node_point(s, self.state, self.lifecycle)
                for s in out_node.fanouts
            ]
            assert xs == [p.x for p in points]
            assert ys == [p.y for p in points]
            self.audited_out += 1


@pytest.fixture(scope="module")
def audited_run(request):
    from repro.library.standard import big_library

    subject = decompose_to_subject(build_circuit("misex1"))
    mapper = AuditingLilyMapper(big_library())
    result = mapper.map(subject)
    return mapper, result


def test_cache_entries_always_fresh(audited_run):
    mapper, _ = audited_run
    assert mapper.audited_entries > 0
    assert mapper.audited_out > 0


def test_cache_was_actually_used(audited_run):
    mapper, _ = audited_run
    assert mapper._netcache is not None
    assert mapper._netcache._entries  # survived to the end of the run


def test_clear_empties_everything(audited_run):
    mapper, _ = audited_run
    cache = mapper._netcache
    cache.entry(next(n for n in mapper.subject.nodes if n.is_gate))
    cache.clear()
    assert not cache._entries
    assert not cache._deps
    assert not cache._out_entries
    assert not cache._out_deps


def test_cache_always_on_and_oracle_bypasses_it():
    from oracles.lily import NaiveLilyAreaMapper
    from repro.library.standard import big_library
    from repro.perf import PerfOptions

    subject = decompose_to_subject(build_circuit("misex1"))
    # The net cache has no switch: the naive matcher options keep it.
    mapper = LilyAreaMapper(big_library(), perf=PerfOptions.naive())
    mapper.map(subject)
    assert mapper._netcache._entries
    # The golden oracle must never read it, or it would compare the
    # cache against itself.
    oracle = NaiveLilyAreaMapper(big_library())
    oracle.map(subject)
    assert not oracle._netcache._entries
    assert not oracle._netcache._out_entries
