"""Command-line entry points."""

from __future__ import annotations

import json
import os

import pytest

from repro.flow.__main__ import main
from repro.obs import OBS


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1", "misex1", "--no-verify"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "geomean" in out

    def test_table2(self, capsys):
        assert main(["table2", "misex1", "--no-verify"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "delay" in out

    def test_scale_flag(self, capsys):
        assert main(["table1", "b9", "--scale", "0.5", "--no-verify"]) == 0
        assert "b9" in capsys.readouterr().out

    def test_verify_accepts_synth_spec(self, capsys):
        assert main(["verify", "synth:5:60"]) == 0
        out = capsys.readouterr().out
        assert "== synth:5:60 / mis / area:" in out
        assert "== synth:5:60 / lily / area:" in out
        assert "verification passed" in out

    def test_verify_rejects_unknown_circuit(self):
        with pytest.raises(SystemExit, match=r"unknown circuit\(s\): nope"):
            main(["verify", "nope"])

    def test_report_requires_circuit(self):
        with pytest.raises(SystemExit):
            main(["report", "--no-verify"])

    def test_report_with_svg(self, capsys, tmp_path):
        svg = str(tmp_path / "out.svg")
        assert main(
            ["report", "misex1", "--no-verify", "--svg", svg]
        ) == 0
        assert os.path.exists(svg)
        with open(svg) as f:
            assert f.read().startswith("<svg")

    def test_report_timing_mode(self, capsys):
        assert main(
            ["report", "misex1", "--no-verify", "--mode", "timing"]
        ) == 0
        out = capsys.readouterr().out
        assert "delay ns" in out

    def test_report_smoke(self, capsys):
        assert main(["report", "misex1", "--no-verify"]) == 0
        out = capsys.readouterr().out
        assert "MIS 2.1 vs Lily" in out

    def test_report_profile(self, capsys):
        assert main(["report", "misex1", "--no-verify", "--profile"]) == 0
        out = capsys.readouterr().out
        # One phase table per pipeline, with phases and counters.
        assert out.count("=== profile:") == 2
        assert "decompose" in out
        assert "dp.states_expanded" in out
        assert "(phases sum)" in out
        # The CLI turns the session back off when done.
        assert not OBS.enabled

    def test_report_trace_writes_valid_chrome_json(self, capsys, tmp_path):
        trace = str(tmp_path / "out.json")
        assert main(
            ["report", "misex1", "--no-verify", "--trace", trace]
        ) == 0
        assert "trace written" in capsys.readouterr().out
        with open(trace) as f:
            doc = json.load(f)
        events = doc["traceEvents"]
        # Both flows' root spans plus their phases are present.
        flows = [e for e in events if e.get("name") == "flow"]
        assert [e["args"]["mapper"] for e in flows] == ["mis", "lily"]
        for event in events:
            assert "ph" in event and "pid" in event and "tid" in event
        assert not OBS.enabled

    def test_report_trace_unwritable_path_fails_fast(self, tmp_path):
        bad = str(tmp_path / "no-such-dir" / "out.json")
        with pytest.raises(SystemExit, match="cannot write trace file"):
            main(["report", "misex1", "--no-verify", "--trace", bad])
        # The failed run must not leave the global session enabled.
        assert not OBS.enabled

    def test_report_profile_and_trace_together(self, capsys, tmp_path):
        trace = str(tmp_path / "both.json")
        assert main(
            ["report", "misex1", "--no-verify", "--profile",
             "--trace", trace]
        ) == 0
        assert "=== profile:" in capsys.readouterr().out
        with open(trace) as f:
            assert json.load(f)["traceEvents"]
        assert not OBS.enabled
