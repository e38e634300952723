"""The two experimental pipelines of Section 5.

1. **MIS pipeline** — read the optimized circuit, run the MIS mapper (area
   or timing mode), *then* assign I/O pads, do placement and routing.  The
   mapper cannot see pad locations.
2. **Lily pipeline** — assign I/O pads first, run Lily (which places the
   inchoate network against those pads), then the *same* placement and
   routing back-end.

Both flows share pad ordering (from the source network's connectivity),
the global/detailed placer, the router and the timing model, so any
difference in the reported metrics comes from the mapping itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Union

from repro.area.estimate import ChipEstimate, estimate_chip, mapped_image, subject_image
from repro.core.lily import LilyAreaMapper, LilyDelayMapper, LilyOptions
from repro.geometry import Point
from repro.library.cell import Library
from repro.map.base import MapResult
from repro.map.cuts import CutMapper, FusionMapper, parse_mapper_spec
from repro.map.mis import MisAreaMapper, MisDelayMapper
from repro.map.netlist import MappedNetwork
from repro.network.decompose import decompose_to_subject
from repro.network.network import Network
from repro.network.simulate import networks_equivalent
from repro.obs import OBS, ObsReport, build_report
from repro.place.detailed import DetailedPlacement, detailed_place
from repro.place.global_place import GlobalPlacer
from repro.place.hypergraph import mapped_netlist
from repro.place.pads import io_affinity_order, pads_from_order
from repro.route.global_route import RoutedDesign, route_design
from repro.timing.model import WireCapModel
from repro.timing.sta import TimingReport, analyze
from repro.verify import LEVELS, audit_flow
from repro.verify.result import VerifyReport

__all__ = ["BackendResult", "FlowResult", "mis_flow", "lily_flow",
           "place_and_route", "pads_from_order"]


@dataclass
class BackendResult:
    """Placement + routing + timing of a mapped netlist."""

    detailed: DetailedPlacement
    routed: RoutedDesign
    chip: ChipEstimate
    timing: TimingReport
    pad_positions: Dict[str, Point]

    @property
    def chip_area_mm2(self) -> float:
        """Predicted chip area, mm²."""
        return self.chip.chip_area / 1e6

    @property
    def wire_length_mm(self) -> float:
        """Total routed interconnect length, mm."""
        return self.routed.total_wire_length / 1e3


@dataclass
class FlowResult:
    """Everything one pipeline run reports."""

    circuit: str
    mapper: str  # "mis" | "lily" | "mis-<spec>" (non-tree mapping backends)
    mode: str  # "area" | "timing"
    map_result: MapResult
    backend: BackendResult
    equivalent: bool
    runtime_s: float
    #: Per-phase tracing/metrics report; populated when the global
    #: observability session (``repro.obs.OBS``) is enabled.
    obs: Optional[ObsReport] = None
    #: Full checker report; populated when the flow ran with
    #: ``verify="fast"`` or ``verify="full"`` (the ``repro.verify`` audit).
    verify_report: Optional[VerifyReport] = None

    @property
    def mapped(self) -> MappedNetwork:
        """The mapped netlist the flow produced."""
        return self.map_result.mapped

    @property
    def num_gates(self) -> int:
        """Library-gate instance count of the mapped netlist."""
        return self.map_result.num_gates

    @property
    def instance_area_mm2(self) -> float:
        """Total active cell area, mm² (Table 1/2 'inst' column)."""
        return self.map_result.cell_area / 1e6

    @property
    def chip_area_mm2(self) -> float:
        """Predicted chip area after place-and-route, mm²."""
        return self.backend.chip_area_mm2

    @property
    def wire_length_mm(self) -> float:
        """Total routed interconnect length, mm."""
        return self.backend.wire_length_mm

    @property
    def delay(self) -> float:
        """Critical-path delay of the routed design (STA, wire included)."""
        return self.backend.timing.critical_delay


def place_and_route(
    mapped: MappedNetwork,
    pad_order: List[str],
    wire_model: Optional[WireCapModel] = None,
    seed_positions: Optional[Dict[str, Point]] = None,
    anneal: bool = False,
    anneal_seed: int = 0,
) -> BackendResult:
    """The shared back-end: global + detailed placement, routing, STA.

    Args:
        mapped: the mapped netlist.
        pad_order: circular I/O ordering (shared between pipelines).
        wire_model: wire capacitance for the final STA.
        seed_positions: optional pre-existing gate positions (e.g. Lily's
            constructive placement) used instead of a fresh global
            placement.
        anneal: refine the detailed placement with simulated annealing
            (the TimberWolf-style pass; slower, lower wirelength).
        anneal_seed: RNG seed of the annealing pass.

    Every kernel beneath runs its one production path: the cached
    bounding-box engines in the detailed pass and the annealer, the
    array-assembled quadratic placement, per-net routed-length folds and
    one per-node STA pass, :func:`repro.timing.sta.analyze` (see
    ``docs/SCALING.md``).
    """
    wire_model = wire_model or WireCapModel()
    region = mapped_image(mapped.total_cell_area())
    pads = pads_from_order(pad_order, region)
    netlist = mapped_netlist(mapped, pads)

    if seed_positions is not None:
        positions = {
            name: seed_positions.get(name, region.center)
            for name in netlist.movables
        }
    else:
        with OBS.span("place.global", cells=len(netlist.movables)):
            positions = GlobalPlacer().place(netlist, region).positions

    with OBS.span("place.detailed", cells=len(positions)):
        detailed = detailed_place(netlist, positions)
    del positions  # free the global placement before routing's peak
    if anneal:
        from repro.place.anneal import simulated_annealing

        simulated_annealing(detailed, netlist, seed=anneal_seed)
    routed = route_design(mapped, detailed, pads)
    chip = estimate_chip(
        routed.chip_width, routed.chip_height, mapped.total_cell_area()
    )

    # Final gate positions (post restack) feed the wiring-aware STA.
    for gate in mapped.gates:
        gate.position = routed.placement.positions.get(gate.name, gate.position)
    for name, p in pads.items():
        if name in mapped:
            mapped[name].position = p
    timing = analyze(mapped, wire_model=wire_model)
    return BackendResult(detailed, routed, chip, timing, pads)


def _run_verification(
    net: Network,
    result: MapResult,
    backend: BackendResult,
    verify: Union[bool, str],
    wire_model: Optional[WireCapModel],
):
    """The verification step shared by both flows.

    ``verify`` semantics: ``False`` skips checking entirely; ``True`` runs
    the legacy whole-network simulation check; ``"fast"``/``"full"`` run
    the :mod:`repro.verify` audit at that level (structural invariants,
    per-cone equivalence, placement/timing consistency) and attach the
    full report to the flow result.

    Returns ``(equivalent, verify_report)``.
    """
    if not verify:
        return True, None
    if isinstance(verify, str):
        report = audit_flow(net, result, backend, level=verify,
                            wire_model=wire_model or WireCapModel())
        return report.family_passed("equiv"), report
    return networks_equivalent(net, result.mapped), None


def _check_flow_arguments(mode: str, verify: Union[bool, str]) -> None:
    """Refuse an unknown ``mode`` or ``verify`` level before a flow
    orders a pad or decomposes a node."""
    if mode not in ("area", "timing"):
        raise ValueError(f"unknown mode: {mode!r}")
    if isinstance(verify, str) and verify not in LEVELS:
        raise ValueError(
            f"unknown verify level: {verify!r} (expected one of {LEVELS})"
        )


def mis_flow(
    net: Network,
    library: Library,
    mode: str = "area",
    wire_model: Optional[WireCapModel] = None,
    verify: Union[bool, str] = True,
    matcher=None,
    mapper: str = "tree",
) -> FlowResult:
    """Pipeline 1: MIS mapping, layout afterwards.

    ``verify`` accepts the legacy booleans or an audit level (``"fast"`` /
    ``"full"``, see :func:`_run_verification`).

    ``matcher`` injects a pre-built structural matcher (``repro.serve``
    hands each job a fresh one over its warm pattern set); ``None`` lets
    the mapper build its own.

    ``mapper`` selects the covering backend (see
    :func:`repro.map.cuts.parse_mapper_spec`): ``"tree"`` is the classic
    DAGON/MIS tree matcher, ``"cuts"`` the priority-cut DAG coverer,
    ``"fusion"`` the best-cover-per-cone race of both (or the tree or
    cut cover when it is strictly better on the whole netlist), and
    ``"lut:K"`` the FPGA-style K-input LUT workload.  Non-tree backends
    report their spec in ``FlowResult.mapper`` (e.g. ``"mis-cuts"``)
    since they change the answer.
    """
    _check_flow_arguments(mode, verify)
    spec = parse_mapper_spec(mapper)
    flow_name = "mis" if spec.kind == "tree" else f"mis-{spec.canonical}"
    start = perf_counter()
    counters_before = (
        OBS.metrics.snapshot_counters() if OBS.enabled else None
    )
    histograms_before = (
        OBS.metrics.snapshot_histograms() if OBS.enabled else None
    )
    with OBS.span("flow", mapper=flow_name, circuit=net.name,
                  mode=mode) as root:
        # The pad order is a function of ``net`` alone.  Computed first,
        # as in lily_flow, its dense eigensolve runs on the set-up heap
        # rather than on top of the cover's.
        with OBS.span("pads"):
            pad_order = io_affinity_order(net)
        with OBS.span("decompose"):
            subject = decompose_to_subject(net)
        # Pattern-set generation is cached per library; the first flow in a
        # process pays it here, so it gets its own phase row.  The cut
        # backends pay their NPN-table build in the same phase.
        with OBS.span("patterns"):
            if spec.kind == "cuts":
                mapper_obj = CutMapper(library, mode=mode)
            elif spec.kind == "fusion":
                mapper_obj = FusionMapper(library, mode=mode,
                                          matcher=matcher)
            elif spec.kind == "lut":
                mapper_obj = CutMapper(library, mode=mode,
                                       lut_k=spec.lut_k)
            elif mode == "area":
                mapper_obj = MisAreaMapper(library, matcher=matcher)
            else:
                mapper_obj = MisDelayMapper(library, matcher=matcher)
        with OBS.span("map", gates=len(subject.gates)):
            result = mapper_obj.map(subject)
        # Nothing after the cover reads the mapper: release its tables
        # and per-run state before the back end allocates.
        del mapper_obj
        backend_pad_order = _mapped_terminal_names(result.mapped, pad_order)
        with OBS.span("backend"):
            backend = place_and_route(result.mapped, backend_pad_order,
                                      wire_model)
        with OBS.span("verify", enabled=bool(verify)):
            equivalent, verify_report = _run_verification(
                net, result, backend, verify, wire_model
            )
    runtime = perf_counter() - start
    report = None
    if root is not None:
        report = build_report(root, OBS, counters_before,
                              flow=flow_name, circuit=net.name,
                              histograms_before=histograms_before)
    return FlowResult(
        net.name, flow_name, mode, result, backend, equivalent, runtime,
        obs=report, verify_report=verify_report,
    )


def lily_flow(
    net: Network,
    library: Library,
    mode: str = "area",
    options: Optional[LilyOptions] = None,
    wire_model: Optional[WireCapModel] = None,
    verify: Union[bool, str] = True,
    seed_backend_from_mapper: bool = False,
    layout_driven_decomposition: bool = False,
    matcher=None,
) -> FlowResult:
    """Pipeline 2: pads first, Lily mapping, same layout back-end.

    ``layout_driven_decomposition`` enables the extension the paper's
    conclusion proposes ("consider layout effects during ... node
    decomposition"): the source network is quickly placed against the pads
    and each node's decomposition tree is built proximity-first, so nearby
    signals enter each tree at topologically-near points (Figure 1.1b).

    ``verify`` and ``matcher`` work exactly as in :func:`mis_flow`.
    """
    _check_flow_arguments(mode, verify)
    start = perf_counter()
    counters_before = (
        OBS.metrics.snapshot_counters() if OBS.enabled else None
    )
    histograms_before = (
        OBS.metrics.snapshot_histograms() if OBS.enabled else None
    )
    with OBS.span("flow", mapper="lily", circuit=net.name, mode=mode) as root:
        with OBS.span("pads"):
            pad_order = io_affinity_order(net)
        with OBS.span("decompose", layout_driven=layout_driven_decomposition):
            if layout_driven_decomposition:
                subject = _decompose_layout_driven(net, pad_order)
            else:
                subject = decompose_to_subject(net)
        region = subject_image(len(subject.gates))
        subject_pads = pads_from_order(
            _subject_terminal_names(subject, pad_order), region
        )
        if options is None and mode == "timing":
            # CM-of-Merged keeps the evolving placement balanced and — because
            # both the subject placement and the back-end placement derive from
            # the same connectivity and pad order — transfers best to the final
            # layout in delay mode (Section 3.2's stated advantage).
            options = LilyOptions(position_update="cm_of_merged")
        # Same cached pattern-set note as mis_flow: first flow pays it here.
        with OBS.span("patterns"):
            if mode == "area":
                mapper = LilyAreaMapper(
                    library, options=options, region=region,
                    pad_positions=subject_pads, matcher=matcher
                )
            else:
                mapper = LilyDelayMapper(
                    library,
                    options=options,
                    region=region,
                    pad_positions=subject_pads,
                    wire_cap=wire_model,
                    matcher=matcher,
                )
        with OBS.span("map", gates=len(subject.gates)):
            result = mapper.map(subject)
        # As in mis_flow: the back end never reads the mapper (its net
        # cache, placement state and bound matcher).
        del mapper
        backend_pad_order = _mapped_terminal_names(result.mapped, pad_order)
        seed = None
        if seed_backend_from_mapper:
            seed = {
                g.name: g.position
                for g in result.mapped.gates
                if g.position is not None
            }
        with OBS.span("backend"):
            backend = place_and_route(
                result.mapped, backend_pad_order, wire_model,
                seed_positions=seed,
            )
        with OBS.span("verify", enabled=bool(verify)):
            equivalent, verify_report = _run_verification(
                net, result, backend, verify, wire_model
            )
    runtime = perf_counter() - start
    report = None
    if root is not None:
        report = build_report(root, OBS, counters_before,
                              flow="lily", circuit=net.name,
                              histograms_before=histograms_before)
    return FlowResult(
        net.name, "lily", mode, result, backend, equivalent, runtime,
        obs=report, verify_report=verify_report,
    )


def _decompose_layout_driven(net: Network, pad_order: List[str]):
    """Place the source network, then decompose proximity-first."""
    from repro.place.global_place import GlobalPlacer
    from repro.place.hypergraph import network_netlist

    region = subject_image(max(net.num_literals(), 1))
    known = {n.name for n in net.primary_inputs}
    known.update(n.name for n in net.primary_outputs)
    pads = pads_from_order([n for n in pad_order if n in known], region)
    netlist = network_netlist(net, pads)
    placement = GlobalPlacer().place(netlist, region)
    positions = dict(placement.positions)
    positions.update(pads)  # PIs appear as leaf positions too
    return decompose_to_subject(net, positions=positions)


def _subject_terminal_names(subject, order: List[str]) -> List[str]:
    """Translate source-network terminal names to subject-graph names."""
    known = {n.name for n in subject.primary_inputs}
    known.update(n.name for n in subject.primary_outputs)
    return [name for name in order if name in known]


def _mapped_terminal_names(mapped: MappedNetwork, order: List[str]) -> List[str]:
    known = {n.name for n in mapped.primary_inputs}
    known.update(n.name for n in mapped.primary_outputs)
    return [name for name in order if name in known]
