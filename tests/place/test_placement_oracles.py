"""Global placement and pad ordering against the code they replaced.

``GlobalPlacer._refine_split`` takes a region's nets from a per-cell
incidence built once per placement.  :class:`ScanPlacer` keeps the scan
it replaced: every net of the netlist, tested for a pin in the region.
Both hand FM the same nets in the same order, so placements must be
identical: positions, assignment and leaf regions.  The work-bound test
pins the point of the incidence: one placement iterates
``netlist.nets`` a constant number of times, not once per FM region.

``io_affinity_order`` computes terminal affinities as the Gram product of
a cone-incidence matrix and decomposes the Laplacian in place with LAPACK
``syevd``.  :func:`pair_loop_order` is the implementation it replaced:
one set intersection per terminal pair, a fresh Laplacian and
``np.linalg.eigh``.  The two must order every terminal identically; a
platform whose two ``syevd`` builds disagree fails here.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.circuits.suite import TABLE1_CIRCUITS, TABLE2_CIRCUITS, build_circuit
from repro.core.lily import LilyOptions
from repro.flow.pipeline import (
    _mapped_terminal_names,
    _subject_terminal_names,
    mapped_image,
    mis_flow,
    pads_from_order,
    subject_image,
)
from repro.geometry import Point, Rect
from repro.library.standard import big_library
from repro.map.mis import MisAreaMapper
from repro.map.netlist import MappedNetwork
from repro.network.decompose import decompose_to_subject
from repro.network.network import Network
from repro.obs import observed
from repro.place.fm import fm_bipartition
from repro.place.global_place import GlobalPlacer, _mean_boundary
from repro.place.hypergraph import (
    PlacementNetlist,
    mapped_netlist,
    subject_netlist,
)
from repro.place.pads import _eigh_in_place, io_affinity_order

#: The netlist the ``layout`` benchmark places (about 10k cells).
LAYOUT_CIRCUIT = "synth:19910611:1500"

#: Every Table 1/2 circuit and three Rent's-rule sizes.
PAD_CIRCUITS = sorted(set(TABLE1_CIRCUITS) | set(TABLE2_CIRCUITS)) + [
    "synth:19910611:1000", LAYOUT_CIRCUIT, "synth:19910611:4000",
]


class ScanPlacer(GlobalPlacer):
    """Oracle: each FM region's nets come from a scan of every net.

    ``relevant_nets`` and ``relevant_cells`` sum the nets and cells
    handed to FM over all refinements.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.relevant_nets = 0
        self.relevant_cells = 0

    def _refine_split(self, low_cells, high_cells, netlist, cell_nets,
                      positions, vertical_cut):
        local = set(low_cells) | set(high_cells)
        cut_coord = _mean_boundary(positions, low_cells, high_cells,
                                   vertical_cut)
        initial: Dict[str, int] = {}
        for c in low_cells:
            initial[c] = 0
        for c in high_cells:
            initial[c] = 1
        relevant_nets: List[List[str]] = []
        for net in netlist.nets:
            if not any(pin in local for pin in net):
                continue
            relevant_nets.append(net)
            for pin in net:
                if pin in initial:
                    continue
                p = netlist.fixed.get(pin) or positions.get(pin)
                if p is None:
                    continue
                value = p.x if vertical_cut else p.y
                initial[pin] = 0 if value <= cut_coord else 1
        self.relevant_nets += len(relevant_nets)
        self.relevant_cells += len(local)
        refined = fm_bipartition(
            sorted(local), relevant_nets, initial, sizes=netlist.sizes,
            balance_tolerance=0.1, max_passes=2,
        )
        new_low = [c for c in sorted(local) if refined[c] == 0]
        new_high = [c for c in sorted(local) if refined[c] == 1]
        return new_low, new_high


def pair_loop_order(network) -> List[str]:
    """Oracle: pairwise cone intersections and ``np.linalg.eigh``."""
    pis = [n.name for n in network.primary_inputs]
    pos = [n.name for n in network.primary_outputs]
    names = pis + pos
    n = len(names)
    if n <= 2:
        return names
    membership: Dict[str, set] = {name: set() for name in names}
    for po_idx, po in enumerate(network.primary_outputs):
        cone = network.transitive_fanin([po])
        membership[po.name].add(po_idx)
        cone_names = {node.name for node in cone}
        for pi in network.primary_inputs:
            if pi.name in cone_names:
                membership[pi.name].add(po_idx)
    weights = np.zeros((n, n))
    for i, a in enumerate(names):
        for j in range(i + 1, n):
            b = names[j]
            w = len(membership[a] & membership[b])
            weights[i, j] = weights[j, i] = float(w)
    degree = weights.sum(axis=1)
    if not degree.any():
        return names
    laplacian = np.diag(degree) - weights
    _eigenvalues, eigenvectors = np.linalg.eigh(laplacian)
    fiedler = eigenvectors[:, 1]
    order = sorted(range(n), key=lambda i: (fiedler[i], names[i]))
    return [names[i] for i in order]


class CountingNets(list):
    """A net list that counts how often it is iterated in full."""

    def __init__(self, nets) -> None:
        super().__init__(nets)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def identity_mapped(net) -> MappedNetwork:
    """Each NAND2 subject node as ``nand2``, each INV as ``inv1``."""
    subject = decompose_to_subject(net)
    cells = {c.name: c for c in big_library().cells}
    mapped = MappedNetwork(subject.name)
    built = {}
    for node in subject.topological_order():
        if node.is_pi:
            built[node.uid] = mapped.add_primary_input(node.name)
        elif node.is_po:
            built[node.uid] = mapped.add_primary_output(
                node.name, built[node.fanins[0].uid])
        elif node.is_constant:
            built[node.uid] = mapped.add_constant(
                f"g{node.uid}", node.type.value == "const1")
        else:
            cell = cells["nand2" if len(node.fanins) == 2 else "inv1"]
            built[node.uid] = mapped.add_gate(
                f"g{node.uid}", cell, [built[f.uid] for f in node.fanins])
    return mapped


def lily_subject_netlist(name: str) -> Tuple[PlacementNetlist, Rect]:
    """The subject netlist and image Lily's initial placement gets."""
    net = build_circuit(name)
    order = io_affinity_order(net)
    subject = decompose_to_subject(net)
    region = subject_image(len(subject.gates))
    pads = pads_from_order(_subject_terminal_names(subject, order), region)
    return subject_netlist(subject, pads), region


def backend_netlist(net, mapped) -> Tuple[PlacementNetlist, Rect]:
    """The mapped netlist and image ``place_and_route`` places."""
    order = _mapped_terminal_names(mapped, io_affinity_order(net))
    region = mapped_image(mapped.total_cell_area())
    return mapped_netlist(mapped, pads_from_order(order, region)), region


def random_netlist(rng, cells: int) -> Tuple[PlacementNetlist, Rect]:
    """Random cells, pads and 2-6-pin nets, some with repeated pins."""
    region = Rect(0, 0, rng.uniform(50, 400), rng.uniform(50, 400))
    netlist = PlacementNetlist()
    for i in range(cells):
        name = f"c{i}"
        netlist.movables.append(name)
        netlist.sizes[name] = rng.choice([1.0, 1.0, 2.0, rng.uniform(0.5, 4)])
    pads = [f"p{i}" for i in range(rng.randint(2, 12))]
    for pad in pads:
        netlist.fixed[pad] = Point(rng.uniform(region.lx, region.ux),
                                   rng.choice([region.ly, region.uy]))
    names = netlist.movables + pads
    for _ in range(rng.randint(cells, 3 * cells)):
        pins = [rng.choice(names) for _ in range(rng.randint(2, 6))]
        if rng.random() < 0.1:
            pins.append(pins[0])
        netlist.nets.append(pins)
    return netlist, region


def assert_same_placement(netlist, region, min_cells_per_region=8):
    """The placer and the oracle give the same placement."""
    oracle = ScanPlacer(min_cells_per_region=min_cells_per_region)
    want = oracle.place(netlist, region)
    got = GlobalPlacer(min_cells_per_region=min_cells_per_region).place(
        netlist, region)
    assert got.positions == want.positions
    assert got.assignment == want.assignment
    assert got.leaf_regions == want.leaf_regions
    assert oracle.relevant_nets > 0


@pytest.fixture(scope="module")
def layout_netlist():
    net = build_circuit(LAYOUT_CIRCUIT)
    return backend_netlist(net, identity_mapped(net))


class TestScanOracle:
    @pytest.mark.parametrize("name", ["C880", "apex7"])
    def test_lily_subject_netlists(self, name):
        netlist, region = lily_subject_netlist(name)
        assert_same_placement(netlist, region,
                              LilyOptions().min_cells_per_region)

    def test_c880_mapped_netlist(self):
        net = build_circuit("C880")
        mapped = MisAreaMapper(big_library()).map(
            decompose_to_subject(net)).mapped
        assert_same_placement(*backend_netlist(net, mapped))

    def test_layout_netlist(self, layout_netlist):
        assert_same_placement(*layout_netlist)

    @pytest.mark.parametrize("case", range(12))
    def test_random_netlists(self, seeded_rng, case):
        rng = seeded_rng("global-oracle", case)
        netlist, region = random_netlist(rng, rng.randint(9, 160))
        assert_same_placement(netlist, region, rng.randint(2, 8))


class TestWorkBound:
    def _net_iterations(self, netlist, region):
        counted = PlacementNetlist(netlist.movables, netlist.sizes,
                                   CountingNets(netlist.nets), netlist.fixed)
        with observed() as session:
            GlobalPlacer().place(counted, region)
            refinements = session.metrics.counter(
                "place.fm_refinements").value
        return counted.nets.iterations, refinements

    def test_nets_iterated_a_constant_number_of_times(self, layout_netlist):
        big, big_refinements = self._net_iterations(*layout_netlist)
        small_netlist, small_region = lily_subject_netlist("C880")
        small, small_refinements = self._net_iterations(small_netlist,
                                                        small_region)
        # The layout netlist has about a thousand FM regions: a scan per
        # region would iterate the nets that often.
        assert big_refinements > 500
        assert big_refinements > 4 * small_refinements
        assert big == small
        assert big <= 4


class TestPlacementSpans:
    def test_profiled_flow_splits_global_placement(self, big_lib):
        net = build_circuit("C880")
        with observed():
            result = mis_flow(net, big_lib, verify=False)
        report = result.obs
        fm = report.phase("backend/place.global/place.fm")
        quadratic = report.phase("backend/place.global/place.quadratic")
        assert fm is not None and quadratic is not None
        assert fm.count == report.counters["place.fm_refinements"]
        assert report.phase("pads/place.pad_order").count == 1

        oracle = ScanPlacer()
        oracle.place(*backend_netlist(net, result.map_result.mapped))
        assert report.counters["place.fm_nets"] == oracle.relevant_nets
        assert report.counters["place.fm_cells"] == oracle.relevant_cells


@pytest.fixture(scope="module", params=PAD_CIRCUITS)
def source(request):
    return build_circuit(request.param)


class TestPairLoopOracle:
    def test_network(self, source):
        assert io_affinity_order(source) == pair_loop_order(source)

    def test_subject_graph(self, source):
        subject = decompose_to_subject(source)
        assert io_affinity_order(subject) == pair_loop_order(subject)

    def test_mapped_network(self, source):
        mapped = identity_mapped(source)
        assert io_affinity_order(mapped) == pair_loop_order(mapped)

    def test_eigh_in_place_matches_numpy(self, seeded_rng):
        rng = np.random.default_rng(seeded_rng("eigh-in-place").getrandbits(32))
        for n in (3, 17, 90):
            a = rng.standard_normal((n, n))
            a = a + a.T
            want_values, want_vectors = np.linalg.eigh(a)
            got = a.copy()
            got_values = _eigh_in_place(got)
            assert np.array_equal(got_values, want_values)
            assert np.array_equal(got, want_vectors)
        with pytest.raises(np.linalg.LinAlgError):
            _eigh_in_place(np.full((4, 4), np.nan))

    def test_unconnected_terminals_keep_declaration_order(self):
        net = Network("open")
        for name in ("a", "b", "c"):
            net.add_primary_input(name)
        assert io_affinity_order(net) == pair_loop_order(net) == [
            "a", "b", "c"]
