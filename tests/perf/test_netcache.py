"""NetCache: every surviving entry equals a fresh recompute, mid-run."""

from __future__ import annotations

import pytest

from oracles.lily import (
    NaiveLilyAreaMapper,
    NaiveLilyDelayMapper,
    _node_point,
    true_fanouts,
)
from repro.circuits.suite import build_circuit
from repro.core.lily import LilyAreaMapper, LilyDelayMapper, LilyOptions
from repro.network.decompose import decompose_to_subject


class _AuditedCache:
    """Re-derives every live cache entry from scratch after each commit."""

    audited_entries = 0
    audited_out = 0

    def _by_uid(self, uid):
        if not hasattr(self, "_uid_map"):
            self._uid_map = {n.uid: n for n in self.subject.nodes}
        return self._uid_map[uid]

    def _fresh_caps(self, nodes):
        """The pin caps an entry over ``nodes`` must hold (area mode:
        none)."""
        return []

    def on_commit(self, node, solution, instance):
        super().on_commit(node, solution, instance)
        cache = self._netcache
        for uid, entry in list(cache._entries.items()):
            uids, xs, ys, caps = entry
            fanin = self._by_uid(uid)
            fresh = true_fanouts(fanin, self.lifecycle)
            assert uids == [n.uid for n in fresh]
            fresh_points = [
                _node_point(n, self.state, self.lifecycle) for n in fresh
            ]
            assert xs == [p.x for p in fresh_points]
            assert ys == [p.y for p in fresh_points]
            assert caps == self._fresh_caps(fresh)
            self.audited_entries += 1
        for uid, (sink_uids, xs, ys, caps) in list(
                cache._out_entries.items()):
            out_node = self._by_uid(uid)
            assert sink_uids == [s.uid for s in out_node.fanouts]
            points = [
                _node_point(s, self.state, self.lifecycle)
                for s in out_node.fanouts
            ]
            assert xs == [p.x for p in points]
            assert ys == [p.y for p in points]
            assert caps == self._fresh_caps(out_node.fanouts)
            self.audited_out += 1


class AuditingLilyMapper(_AuditedCache, LilyAreaMapper):
    """Area mode: consumers and points."""


class AuditingLilyDelayMapper(_AuditedCache, LilyDelayMapper):
    """Delay mode: consumers, points and the pin caps its loads sum."""

    audited_hawk_caps = 0

    def _fresh_caps(self, nodes):
        caps = []
        for n in nodes:
            # The oracle's per-consumer rule (state, instance, pad).
            cap, point = NaiveLilyDelayMapper._fanout_cap_and_point(self, n)
            assert point == _node_point(n, self.state, self.lifecycle)
            if n.uid in self.instances and not n.is_po:
                self.audited_hawk_caps += 1
            caps.append(cap)
        return caps


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


@pytest.mark.parametrize("update", ["cm_of_fans", "cm_of_merged"])
@pytest.mark.parametrize("circuit", ["misex1", "b9"])
def test_delay_cache_caps_always_fresh(circuit, update):
    """Every live entry's pin caps, and every out-entry's, equal the
    per-consumer rule after every commit; hawks' caps included."""
    from repro.library.standard import big_library

    subject = decompose_to_subject(build_circuit(circuit))
    mapper = AuditingLilyDelayMapper(
        big_library(), options=LilyOptions(position_update=update))
    mapper.map(subject)
    assert mapper.audited_entries > 0
    assert mapper.audited_out > 0
    assert mapper.audited_hawk_caps > 0


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
    from oracles.match import OracleMatcher
    from repro.library.patterns import pattern_set_for
    from repro.library.standard import big_library

    subject = decompose_to_subject(build_circuit("misex1"))
    for cls, naive in ((LilyAreaMapper, NaiveLilyAreaMapper),
                       (LilyDelayMapper, NaiveLilyDelayMapper)):
        # The net cache has no switch: the oracle matcher keeps it too.
        mapper = cls(
            big_library(),
            matcher=OracleMatcher(pattern_set_for(big_library())))
        mapper.map(subject)
        assert mapper._netcache._entries
        assert mapper._netcache._out_entries
        # The golden oracle must never read it, or it would compare the
        # cache against itself.
        oracle = naive(big_library())
        oracle.map(subject)
        assert not oracle._netcache._entries
        assert not oracle._netcache._out_entries
