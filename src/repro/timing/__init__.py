"""Static timing analysis with the Section 4 linear delay model:
per-pin intrinsic delay + drive resistance, separate rise/fall, and lumped
wire capacitance proportional to estimated net length."""

from repro.timing.model import WireCapModel, net_wire_capacitance
from repro.timing.sta import (
    ArrivalTimes,
    TimingReport,
    analyze,
    critical_path,
    required_times,
    slacks,
)
from repro.timing.fanout import FanoutResult, optimize_fanout
from repro.timing.incremental import IncrementalTiming

__all__ = [
    "IncrementalTiming",
    "WireCapModel",
    "net_wire_capacitance",
    "ArrivalTimes",
    "TimingReport",
    "analyze",
    "critical_path",
    "required_times",
    "slacks",
    "FanoutResult",
    "optimize_fanout",
]
