"""Flow reports and extensions."""

from __future__ import annotations

import pytest

from repro.circuits.random_logic import random_network
from repro.circuits.suite import build_circuit
from repro.flow.pipeline import lily_flow, mis_flow
from repro.flow.report import circuit_report, comparison_report
from repro.library.standard import big_library
from repro.obs import OBS, observed
from repro.timing.model import WireCapModel
from repro.timing.sta import analyze, critical_path, slacks


@pytest.fixture(scope="module")
def flows():
    net = build_circuit("misex1")
    lib = big_library()
    return (
        mis_flow(net, lib, verify=False),
        lily_flow(net, lib, verify=False),
    )


class TestReports:
    def test_circuit_report_sections(self, flows):
        _mis, lily = flows
        text = circuit_report(lily)
        for token in ["cell histogram", "area:", "routing:", "timing:",
                      "critical path", "chip (with pads)"]:
            assert token in text

    def test_comparison_report(self, flows):
        mis, lily = flows
        text = comparison_report(mis, lily)
        assert "MIS2.1" in text
        assert "ratio" in text
        assert "chip mm^2" in text

    def test_timing_mode_row(self):
        net = build_circuit("misex1")
        lib = big_library()
        mis = mis_flow(net, lib, mode="timing", verify=False)
        lily = lily_flow(net, lib, mode="timing", verify=False)
        assert "delay ns" in comparison_report(mis, lily)


def _reference_timing_lines(mapped, wire_model, max_path_rows=12):
    """The report's timing block as the reference engine gives it."""
    report = analyze(mapped, wire_model=wire_model)
    worst = sorted(slacks(mapped, report).items(), key=lambda kv: kv[1])[:3]
    path = critical_path(mapped, report)
    lines = [
        "timing:",
        f"  critical delay   : {report.critical_delay:9.2f} ns "
        f"(at {report.critical_po})",
        "  tightest slacks  : "
        + ", ".join(f"{name}={value:.2f}" for name, value in worst),
        "  critical path:",
    ]
    if len(path) > max_path_rows:
        lines.append(f"    ... {len(path) - max_path_rows} earlier stages ...")
    for node in path[-max_path_rows:]:
        cell = node.cell.name if node.is_gate else node.kind.value
        arrival = report.arrivals[node.name].worst
        lines.append(f"    {node.name:<18} {cell:<8} t={arrival:8.2f}")
    return lines


class TestTimingOnReferenceSTA:
    """``circuit_report`` times the netlist with ``sta.analyze``; its
    timing block must read exactly as the reference engine gives it."""

    @pytest.fixture(scope="class", params=["C880", "random"])
    def result(self, request):
        if request.param == "C880":
            net = build_circuit("C880")
        else:
            net = random_network("report", 8, 4, 60, seed=3)
        return mis_flow(net, big_library(), verify=False)

    def test_timing_lines_match_reference(self, result):
        lines = circuit_report(result).splitlines()
        timing = lines[lines.index("timing:"):]
        assert timing == _reference_timing_lines(result.mapped,
                                                 WireCapModel())

    def test_traced_run_uses_reference_sta(self, result):
        with observed():
            circuit_report(result)
        names = {span.name for span in OBS.tracer.all_spans()}
        assert "sta.analyze" in names
        assert "sta.analyze_array" not in names


class TestLayoutDrivenDecomposition:
    def test_flow_flag(self):
        net = build_circuit("misex1")
        result = lily_flow(
            net, big_library(), verify=True,
            layout_driven_decomposition=True,
        )
        assert result.equivalent

    def test_cli_report(self, capsys):
        from repro.flow.__main__ import main

        assert main(["report", "misex1", "--no-verify"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
