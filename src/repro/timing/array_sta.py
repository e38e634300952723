"""The name ``analyze_array``, kept as an alias of the reference pass.

Every full STA pass runs on :func:`repro.timing.sta.analyze`;
``perfbench/workloads.py`` and ``perfbench/layers.py`` import
``analyze_array`` from here, so the alias stays until they import
``analyze`` from :mod:`repro.timing.sta` instead.
"""

from repro.timing.sta import analyze as analyze_array

__all__ = ["analyze_array"]
