"""Audit orchestration: levels, artifact wiring, flow integration."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.flow.pipeline import lily_flow, mis_flow
from repro.verify import FlowArtifacts, audit, audit_flow, audit_mapping


class TestAudit:
    def test_fast_level_all_pass(self, misex1_artifacts):
        report = audit(misex1_artifacts, level="fast")
        assert report.passed
        names = {c.name for c in report.checks}
        assert "equiv.net_mapped.exhaustive" in names
        assert any(n.startswith("invariant.lifecycle") for n in names)
        assert any(n.startswith("invariant.place") for n in names)
        assert any(n.startswith("invariant.timing") for n in names)
        # fast tier: single end-to-end equivalence, no stepwise pairs
        assert not any(n.startswith("equiv.net_subject") for n in names)

    def test_full_level_adds_stepwise_equivalence(self, misex1_artifacts):
        report = audit(misex1_artifacts, level="full")
        assert report.passed
        names = {c.name for c in report.checks}
        assert "equiv.net_subject.exhaustive" in names
        assert "equiv.subject_mapped.exhaustive" in names

    def test_unknown_level_rejected(self, misex1_artifacts):
        with pytest.raises(ValueError):
            audit(misex1_artifacts, level="quick")

    def test_mapping_only_still_proves_equivalence(self, misex1_artifacts):
        artifacts = FlowArtifacts(
            subject=misex1_artifacts.subject,
            mapped=misex1_artifacts.mapped,
        )
        report = audit(artifacts, level="fast")
        assert report.passed
        assert any(c.name.startswith("equiv.subject_mapped")
                   for c in report.checks)

    def test_missing_artifacts_skip_their_checkers(self, misex1_artifacts):
        report = audit(FlowArtifacts(net=misex1_artifacts.net), level="fast")
        assert report.passed
        assert all(c.name.startswith("invariant.network")
                   for c in report.checks)

    def test_broken_artifact_degrades_to_failed_check(self, misex1_artifacts):
        from repro.verify import copy_artifacts, inject_fault

        artifacts = copy_artifacts(misex1_artifacts)
        inject_fault("mapped_cycle", artifacts)
        report = audit(artifacts, level="fast")  # must not raise
        assert not report.passed
        assert not report.family_passed("invariant.mapped.acyclic")


class TestHelpers:
    def test_audit_flow_and_audit_mapping(self, misex1_net, misex1_flow):
        flow = misex1_flow
        assert audit_flow(misex1_net, flow.map_result, flow.backend).passed
        assert audit_mapping(flow.map_result, net=misex1_net).passed

    def test_report_round_trip(self, misex1_artifacts):
        report = audit(misex1_artifacts, level="fast")
        table = report.format_table()
        counts = report.counts()
        assert f"{counts['run']} checks" in table
        assert "[ok  ]" in table
        report.raise_on_failure()  # passing report: no exception

    def test_raise_on_failure_lists_findings(self, misex1_artifacts):
        from repro.verify import copy_artifacts, inject_fault

        artifacts = copy_artifacts(misex1_artifacts)
        inject_fault("mapped_drop_backlink", artifacts)
        report = audit(artifacts, level="fast")
        with pytest.raises(AssertionError, match="invariant.mapped.links"):
            report.raise_on_failure()


class TestFlowIntegration:
    @pytest.mark.parametrize("flow_fn", [mis_flow, lily_flow])
    def test_verify_level_populates_report(self, flow_fn, big_lib,
                                           small_network):
        result = flow_fn(small_network, big_lib, mode="area", verify="fast")
        assert result.equivalent
        assert result.verify_report is not None
        assert result.verify_report.passed
        assert result.verify_report.level == "fast"

    def test_plain_verify_keeps_old_contract(self, big_lib, small_network):
        result = lily_flow(small_network, big_lib, verify=True)
        assert result.equivalent
        assert result.verify_report is None

    def test_bad_level_rejected_by_flow(self, big_lib, small_network):
        with pytest.raises(ValueError):
            lily_flow(small_network, big_lib, verify="bogus")

    def test_obs_counters_emitted(self, misex1_artifacts):
        from repro.obs import OBS, observed

        with observed():
            audit(misex1_artifacts, level="fast")
            checks = OBS.metrics.counter("verify.checks").value
            failures = OBS.metrics.counter("verify.failures").value
        assert checks > 0
        assert failures == 0


class TestFamiliesDocumented:
    def test_every_emitted_family_is_in_verifying_md(self, big_lib,
                                                     misex1_net):
        """Every ``invariant.<family>`` a full MIS audit or a fast audit
        of a cut cover emits is listed in docs/VERIFYING.md."""
        doc = (Path(__file__).resolve().parents[2] / "docs"
               / "VERIFYING.md").read_text()
        reports = [
            mis_flow(misex1_net, big_lib, verify="full").verify_report,
            mis_flow(misex1_net, big_lib, verify="fast",
                     mapper="cuts").verify_report,
        ]
        families = {
            check.name.split(".")[1]
            for report in reports for check in report.checks
            if check.name.startswith("invariant.")
        }
        assert "map" in families and "place" in families
        missing = sorted(f for f in families
                         if f"`invariant.{f}.*`" not in doc)
        assert not missing, f"families missing from VERIFYING.md: {missing}"
