"""End-to-end checks of the layout kernels in whole flows.

The placement, routing and STA kernels have one production path each;
their bitwise oracles live in the kernel tests (``tests/perf``,
``tests/place``, ``tests/route``, ``tests/timing``).  Here a whole flow
must report the array quadratic assembly's counters, and the removed
``--naive-kernels`` switch must be refused rather than silently ignored.
"""

from __future__ import annotations

import pytest

from repro.circuits.suite import build_circuit
from repro.flow.__main__ import main
from repro.flow.pipeline import lily_flow
from repro.library.standard import big_library


class TestFlowEquivalence:
    def test_vec_counters_emitted(self):
        from repro.obs import OBS

        net = build_circuit("misex1")
        OBS.enable()
        try:
            lily_flow(net, big_library(), verify=False)
            counters = OBS.metrics.snapshot_counters()
        finally:
            OBS.disable()
        assert any(name.startswith("perf.vec.") for name in counters)


class TestKernelFlags:
    def test_naive_kernels_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "misex1", "--no-verify", "--naive-kernels"])
        assert exc.value.code == 2
        assert "--naive-kernels" in capsys.readouterr().err
