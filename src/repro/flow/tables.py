"""Drivers regenerating Table 1 (area mode) and Table 2 (delay mode).

Each row runs both pipelines on the same circuit with the same pad order,
placer, router and timing model and reports the paper's columns:

* Table 1: total instance area (mm²), final chip area (mm²), total
  interconnection length after detailed routing (mm) — MIS 2.1 vs Lily.
* Table 2: total instance area (mm²) and longest path delay (wiring delay
  included, post detailed placement) — MIS 2.1 vs Lily, 1µ-scaled library.

Circuits are independent of each other, so both drivers can fan the rows
out over worker *processes* (``procs`` / CLI ``--procs N``; a value
below 2 runs them in this process): each worker runs one circuit's
MIS+Lily pair in its own interpreter (its own GIL, its own pattern/match
caches) and ships the finished row — plus its
:class:`~repro.obs.ObsReport` profiles when requested — back to the
parent, which assembles results in submission order.  Rows are therefore
identical for any ``procs``; only wall-clock changes.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.circuits.suite import TABLE1_CIRCUITS, TABLE2_CIRCUITS, build_circuit
from repro.core.lily import LilyOptions
from repro.flow.pipeline import lily_flow, mis_flow
from repro.library.cell import Library
from repro.library.standard import big_library, scale_library
from repro.obs import OBS, ObsReport
from repro.timing.model import WireCapModel

__all__ = [
    "TABLE2_WIRE_MODEL",
    "table2_library",
    "Table1Row",
    "Table2Row",
    "run_table1",
    "run_table2",
    "format_table1",
    "format_table2",
    "geometric_mean_ratios",
]


#: Table 2's wire model: 0.4/0.3 fF/µm, 3µ-era metal with fringing —
#: keeps the wire share of path delay in the regime the paper's
#: experiment probes.
TABLE2_WIRE_MODEL = WireCapModel(4.0e-4, 3.0e-4)


def table2_library() -> Library:
    """Table 2's library: :func:`~repro.library.standard.big_library`
    with gate delays and input capacitances scaled 3µ -> 1µ."""
    return scale_library(big_library(), 1.0 / 3.0, name="big_1u")


@dataclass
class Table1Row:
    """One Table 1 row: area-mode MIS vs Lily."""

    circuit: str
    mis_inst: float
    mis_chip: float
    mis_wire: float
    lily_inst: float
    lily_chip: float
    lily_wire: float
    mis_ok: bool = True
    lily_ok: bool = True

    @property
    def chip_ratio(self) -> float:
        """Lily/MIS chip-area ratio (1.0 when MIS area is zero)."""
        return self.lily_chip / self.mis_chip if self.mis_chip else 1.0

    @property
    def wire_ratio(self) -> float:
        """Lily/MIS wirelength ratio (1.0 when MIS length is zero)."""
        return self.lily_wire / self.mis_wire if self.mis_wire else 1.0

    @property
    def inst_ratio(self) -> float:
        """Lily/MIS instance-area ratio (1.0 when MIS area is zero)."""
        return self.lily_inst / self.mis_inst if self.mis_inst else 1.0


@dataclass
class Table2Row:
    """One Table 2 row: delay-mode MIS vs Lily."""

    circuit: str
    mis_inst: float
    mis_delay: float
    lily_inst: float
    lily_delay: float
    mis_ok: bool = True
    lily_ok: bool = True

    @property
    def delay_ratio(self) -> float:
        """Lily/MIS critical-delay ratio (1.0 when MIS delay is zero)."""
        return self.lily_delay / self.mis_delay if self.mis_delay else 1.0


def _table1_circuit(
    name: str,
    scale: float,
    library: Library,
    options: Optional[LilyOptions],
    verify: Union[bool, str],
    mapper: str = "tree",
) -> Tuple[Table1Row, List[ObsReport]]:
    """One Table 1 row (both flows).  Module-level so it pickles."""
    net = build_circuit(name, scale=scale)
    mis = mis_flow(net, library, mode="area", verify=verify, mapper=mapper)
    lily = lily_flow(net, library, mode="area", options=options,
                     verify=verify)
    row = Table1Row(
        name,
        mis.instance_area_mm2,
        mis.chip_area_mm2,
        mis.wire_length_mm,
        lily.instance_area_mm2,
        lily.chip_area_mm2,
        lily.wire_length_mm,
        mis.equivalent,
        lily.equivalent,
    )
    return row, [r for r in (mis.obs, lily.obs) if r is not None]


def _table2_circuit(
    name: str,
    scale: float,
    library: Library,
    options: Optional[LilyOptions],
    verify: Union[bool, str],
    wire_model: WireCapModel,
    mapper: str = "tree",
) -> Tuple[Table2Row, List[ObsReport]]:
    """One Table 2 row (both flows).  Module-level so it pickles."""
    net = build_circuit(name, scale=scale)
    mis = mis_flow(net, library, mode="timing", wire_model=wire_model,
                   verify=verify, mapper=mapper)
    lily = lily_flow(net, library, mode="timing", options=options,
                     wire_model=wire_model, verify=verify)
    row = Table2Row(
        name,
        mis.instance_area_mm2,
        mis.delay,
        lily.instance_area_mm2,
        lily.delay,
        mis.equivalent,
        lily.equivalent,
    )
    return row, [r for r in (mis.obs, lily.obs) if r is not None]


def _circuit_in_worker(worker, with_obs: bool, args: tuple):
    """Run one circuit inside a pool worker.

    Workers are fresh interpreters, so the parent's observability session
    does not exist there; when the parent wants profiles the worker
    enables its own session around the flows and the per-flow
    :class:`ObsReport` objects travel back through the result pickle.
    """
    if with_obs:
        OBS.enable()
        try:
            return worker(*args)
        finally:
            OBS.disable()
    return worker(*args)


def _run_suite(worker, per_circuit_args: List[tuple], procs: int,
               obs_out: Optional[List[ObsReport]]) -> List:
    """Shared driver: sequential in-process, or fanned over a pool.

    Results are collected from futures in submission order, so row order
    (and everything derived from it) is independent of scheduling.
    """
    rows = []
    if procs <= 1:
        for args in per_circuit_args:
            row, reports = worker(*args)
            rows.append(row)
            if obs_out is not None:
                obs_out.extend(reports)
        return rows
    with_obs = obs_out is not None
    with ProcessPoolExecutor(max_workers=procs) as pool:
        futures = [
            pool.submit(_circuit_in_worker, worker, with_obs, args)
            for args in per_circuit_args
        ]
        for future in futures:
            row, reports = future.result()
            rows.append(row)
            if obs_out is not None:
                obs_out.extend(reports)
    return rows


def run_table1(
    circuits: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    library: Optional[Library] = None,
    options: Optional[LilyOptions] = None,
    verify: Union[bool, str] = True,
    procs: int = 1,
    obs_out: Optional[List[ObsReport]] = None,
    mapper: str = "tree",
) -> List[Table1Row]:
    """Regenerate Table 1 over the named circuits.

    ``procs > 1`` fans circuits over a process pool; rows are identical
    for any value.  ``obs_out``, when given a list, receives one
    :class:`ObsReport` per flow — from worker processes too — ready for
    :func:`repro.obs.merge_reports`.
    ``mapper`` selects the MIS column's covering backend
    (``tree``/``cuts``/``fusion``/``lut:K``); Lily stays tree-based.
    """
    library = library or big_library()
    args = [
        (name, scale, library, options, verify, mapper)
        for name in circuits or TABLE1_CIRCUITS
    ]
    return _run_suite(_table1_circuit, args, procs, obs_out)


def run_table2(
    circuits: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    library: Optional[Library] = None,
    options: Optional[LilyOptions] = None,
    verify: Union[bool, str] = True,
    procs: int = 1,
    obs_out: Optional[List[ObsReport]] = None,
    mapper: str = "tree",
) -> List[Table2Row]:
    """Regenerate Table 2 over the named circuits.

    Gate delays and input capacitances are linearly scaled 3µ -> 1µ, as in
    Section 5 (:func:`table2_library`, the default ``library``).  The
    wire capacitance *per unit length* (:data:`TABLE2_WIRE_MODEL`) is
    left unscaled: interconnect capacitance per micron is roughly
    technology-independent, which is exactly why "as technology scales
    down, the contribution of wiring to the delay becomes significant and
    even dominating" [4, 13].

    ``procs`` / ``obs_out`` work exactly as in :func:`run_table1`.
    """
    if library is None:
        library = table2_library()
    args = [
        (name, scale, library, options, verify, TABLE2_WIRE_MODEL, mapper)
        for name in circuits or TABLE2_CIRCUITS
    ]
    return _run_suite(_table2_circuit, args, procs, obs_out)


def geometric_mean_ratios(ratios: Sequence[float]) -> float:
    """Geometric mean of the given ratios (1.0 for an empty sequence)."""
    if not ratios:
        return 1.0
    product = 1.0
    for r in ratios:
        product *= max(r, 1e-12)
    return product ** (1.0 / len(ratios))


def format_table1(rows: Sequence[Table1Row]) -> str:
    """Render Table 1 rows in the paper's layout."""
    lines = [
        "Table 1: area-mode comparison, MIS2.1 vs Lily "
        "(inst/chip area mm^2, wire mm)",
        f"{'Ex.':<10}{'inst':>8}{'chip':>8}{'wire':>9}"
        f"{'inst':>9}{'chip':>8}{'wire':>9}{'ok':>4}",
        f"{'':<10}{'--- MIS2.1 ---':>25}{'---- Lily ----':>26}",
    ]
    for r in rows:
        ok = "y" if (r.mis_ok and r.lily_ok) else "N"
        lines.append(
            f"{r.circuit:<10}{r.mis_inst:>8.3f}{r.mis_chip:>8.3f}"
            f"{r.mis_wire:>9.1f}{r.lily_inst:>9.3f}{r.lily_chip:>8.3f}"
            f"{r.lily_wire:>9.1f}{ok:>4}"
        )
    inst = geometric_mean_ratios([r.inst_ratio for r in rows])
    chip = geometric_mean_ratios([r.chip_ratio for r in rows])
    wire = geometric_mean_ratios([r.wire_ratio for r in rows])
    lines.append(
        f"geomean Lily/MIS: inst {inst:.3f}  chip {chip:.3f}  wire {wire:.3f}"
    )
    return "\n".join(lines)


def format_table2(rows: Sequence[Table2Row]) -> str:
    """Render Table 2 rows in the paper's layout."""
    lines = [
        "Table 2: delay-mode comparison, MIS2.1 vs Lily "
        "(inst area mm^2, delay ns, 1u-scaled library)",
        f"{'Ex.':<10}{'inst':>8}{'delay':>9}{'inst':>9}{'delay':>9}{'ok':>4}",
        f"{'':<10}{'-- MIS2.1 --':>17}{'--- Lily ---':>18}",
    ]
    for r in rows:
        ok = "y" if (r.mis_ok and r.lily_ok) else "N"
        lines.append(
            f"{r.circuit:<10}{r.mis_inst:>8.3f}{r.mis_delay:>9.2f}"
            f"{r.lily_inst:>9.3f}{r.lily_delay:>9.2f}{ok:>4}"
        )
    delay = geometric_mean_ratios([r.delay_ratio for r in rows])
    lines.append(f"geomean Lily/MIS delay: {delay:.3f}")
    return "\n".join(lines)
