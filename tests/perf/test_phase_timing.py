"""Per-phase timings must account for the wall clock.

The profile table's credibility rests on the depth-1 phases covering the
flow's wall time, and on every phase's exclusive time staying within
its inclusive time.  Matching has its own phase under ``map``, so the
profile splits the match tables from the covering DP.
"""

from __future__ import annotations

import pytest

from repro.circuits.suite import build_circuit
from repro.flow.pipeline import lily_flow, mis_flow
from repro.obs import observed


@pytest.mark.parametrize("flow", [lily_flow, mis_flow],
                         ids=["lily", "mis"])
def test_phase_sum_tracks_wall(big_lib, flow):
    net = build_circuit("misex1")
    with observed():
        result = flow(net, big_lib, verify=False)
    report = result.obs
    assert report is not None
    assert report.wall_s > 0
    gap = abs(report.phase_total() - report.wall_s) / report.wall_s
    assert gap < 0.05, (
        f"phase sum {report.phase_total():.4f}s vs wall "
        f"{report.wall_s:.4f}s"
    )


def test_exclusive_times_stay_nonnegative(big_lib):
    net = build_circuit("misex1")
    with observed():
        result = mis_flow(net, big_lib, verify=False)
    report = result.obs
    assert report is not None
    for phase in report.phases:
        assert phase.exclusive_s >= 0.0, phase.path
        assert phase.total_s >= phase.exclusive_s - 1e-9, phase.path


@pytest.mark.parametrize("flow", [lily_flow, mis_flow],
                         ids=["lily", "mis"])
def test_match_phase_appears_once_per_map(big_lib, flow):
    net = build_circuit("misex1")
    with observed():
        result = flow(net, big_lib, verify=False)
    match = result.obs.phase("map/match")
    assert match is not None
    assert match.count == 1
    assert result.obs.phase("map").count == 1
