"""Unit and oracle tests for the cut-based covering backend.

Five families:

* **enumeration oracle** — on random ≤12-gate DAGs, a brute-force
  (unbounded) k-feasible cut enumeration is the ground truth: the
  priority-cut set must be a subset, must retain the direct-fanin
  fallback cut and the best cut under the priority order, and with an
  unbounded budget must equal the full set exactly;
* **cut functions** — the per-graph integer truth table, vacuous-leaf
  verdict and interior of every retained cut equal the independent
  :func:`repro.match.boolmatch.cut_function` / ``cut_cone`` oracle, on
  the random DAGs, every Table 1/2 circuit and a 1000-gate Rent circuit;
* **NPN table** — every binding stored in the match table realises
  exactly the function it is filed under (``realized_bits`` round-trip),
  and LUT cells synthesise their defining truth table;
* **covering** — area/timing/LUT covers of the shared small circuit pass
  the fast audit (including the cut-cover invariant), fusion is never
  worse than either backend on any cone, and mapper specs parse/reject
  with the pinned messages;
* **determinism** — two *separate interpreter processes* with different
  hash seeds produce bit-identical tree and cut covers and lifecycle
  histories.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import subprocess
import sys

import pytest

from repro.circuits.suite import (
    TABLE1_CIRCUITS,
    TABLE2_CIRCUITS,
    build_circuit,
)
from repro.map.blif_io import write_mapped_blif
from repro.map.cuts import (
    CutError,
    CutMapper,
    FusionMapper,
    MapperSpec,
    MapperSpecError,
    _cut_priority,
    cut_functions,
    enumerate_priority_cuts,
    lut_cell,
    match_table_for,
    parse_mapper_spec,
)
from repro.match.boolmatch import cut_cone, cut_function
from repro.network.decompose import decompose_to_subject
from repro.network.logic import TruthTable
from repro.network.subject import SubjectGraph
from repro.verify import audit_mapping

#: Cut width used throughout the oracle tests.
ORACLE_K = 4
#: Random-DAG shape for the oracle family (the brute-force enumeration
#: is exponential in cut count, so stay small).
ORACLE_INPUTS = 4
ORACLE_GATES = 12
ORACLE_CASES = 20


# -- random DAGs and the brute-force oracle -----------------------------------


def _random_subject(rng, num_inputs=ORACLE_INPUTS, num_gates=ORACLE_GATES):
    """A random NAND/INV subject DAG with every sink node made an output."""
    g = SubjectGraph("oracle_dag")
    pis = [g.add_primary_input(f"i{j}") for j in range(num_inputs)]
    pool = list(pis)
    tries = 0
    while len(g.gates) < num_gates and tries < 20 * num_gates:
        tries += 1
        if rng.random() < 0.3:
            node = g.inv(rng.choice(pool))
        else:
            node = g.nand(rng.choice(pool), rng.choice(pool))
        pool.append(node)
    for idx, node in enumerate(list(g.gates)):
        if not node.fanouts:
            g.add_primary_output(f"o{idx}", node)
    return g


def _all_k_feasible_cuts(graph, k):
    """Ground truth: *every* non-trivial k-feasible cut, per gate uid.

    Textbook bottom-up definition with no pruning and no ordering: a cut
    of a node is the union of one cut (possibly trivial) per fanin,
    feasible when it has at most ``k`` leaves.
    """
    with_trivial = {}
    result = {}
    for node in graph.topological_order():
        if node.is_po:
            continue
        if not node.is_gate:
            with_trivial[node.uid] = {frozenset([node])}
            continue
        merged = set()
        fanin_sets = [with_trivial[f.uid] for f in node.fanins]
        for combo in itertools.product(*fanin_sets):
            union = frozenset().union(*combo)
            if len(union) <= k:
                merged.add(union)
        result[node.uid] = merged
        with_trivial[node.uid] = merged | {frozenset([node])}
    return result


@pytest.mark.parametrize("case", range(ORACLE_CASES))
def test_priority_cuts_against_brute_force_oracle(case, seeded_rng):
    """Subset + fallback + best-cut retention, against the full set."""
    graph = _random_subject(seeded_rng("cuts-oracle", case))
    full = _all_k_feasible_cuts(graph, ORACLE_K)
    # Bound 3 forces real pruning (full sets reach dozens of cuts here).
    pruned = enumerate_priority_cuts(graph, ORACLE_K, cuts_per_node=3)
    for node in graph.gates:
        cuts = pruned[node.uid]
        cut_sets = [frozenset(c) for c in cuts]
        full_set = full[node.uid]
        assert set(cut_sets) <= full_set, (
            f"{node.name}: pruned enumeration invented a cut "
            f"not in the brute-force set (case {case})")
        assert len(set(cut_sets)) == len(cut_sets), (
            f"{node.name}: duplicate cuts in priority set")
        direct = frozenset(node.fanins)
        if len(direct) <= ORACLE_K:
            assert direct in cut_sets, (
                f"{node.name}: direct-fanin fallback cut was pruned away")
        best = min(full_set, key=_cut_priority)
        assert best in cut_sets, (
            f"{node.name}: best-priority cut {sorted(n.name for n in best)} "
            f"lost to pruning (case {case})")


@pytest.mark.parametrize("case", range(ORACLE_CASES))
def test_unbounded_priority_cuts_equal_full_set(case, seeded_rng):
    """With an unbounded budget the enumeration is *complete*."""
    graph = _random_subject(seeded_rng("cuts-complete", case))
    full = _all_k_feasible_cuts(graph, ORACLE_K)
    unbounded = enumerate_priority_cuts(
        graph, ORACLE_K, cuts_per_node=10 ** 6)
    for node in graph.gates:
        got = {frozenset(c) for c in unbounded[node.uid]}
        assert got == full[node.uid], f"{node.name} (case {case})"
        # And the returned order is exactly the priority order.
        keys = [_cut_priority(frozenset(c)) for c in unbounded[node.uid]]
        assert keys == sorted(keys), f"{node.name}: cuts out of order"


def test_cut_tuples_are_uid_sorted(seeded_rng):
    graph = _random_subject(seeded_rng("cuts-sorted"))
    for cuts in enumerate_priority_cuts(graph, ORACLE_K).values():
        for cut in cuts:
            uids = [n.uid for n in cut]
            assert uids == sorted(uids)


def test_cyclic_subject_graph_raises_cut_error():
    """A cycle dies with a contextual :class:`CutError`, never a hang."""
    g = SubjectGraph("cyclic")
    a = g.add_primary_input("a")
    b = g.add_primary_input("b")
    n1 = g.nand(a, b)
    n2 = g.nand(n1, a)
    g.add_primary_output("o", n2)
    # Introduce the cycle behind the builder's back: n1 now reads n2.
    n1.fanins[1] = n2
    n2.fanouts.append(n1)
    with pytest.raises(CutError, match="cyclic subject graph"):
        enumerate_priority_cuts(g, ORACLE_K)


def test_nonpositive_cut_width_rejected():
    g = SubjectGraph("empty")
    with pytest.raises(CutError, match="cut width must be positive"):
        enumerate_priority_cuts(g, 0)


# -- per-graph cut functions vs the boolmatch oracle --------------------------


def _assert_cut_functions_match_oracle(graph, cuts, label):
    """Every retained cut's table, verdict and interior match the oracle."""
    table = cut_functions(graph, cuts)
    checked = 0
    for node in graph.gates:
        functions = table[node.uid]
        assert [f.leaves for f in functions] == cuts.get(node.uid, []), (
            f"{label}: {node.name} lost or reordered a retained cut")
        for f in functions:
            tt = cut_function(node, f.leaves)
            assert tt is not None
            assert f.bits == tt.bits, (
                f"{label}: {node.name} over {[n.name for n in f.leaves]}: "
                f"table {f.bits:#x} != oracle {tt.bits:#x}")
            assert f.vacuous == (len(tt.support()) != len(f.leaves))
            assert frozenset(f.interior) == frozenset(
                cut_cone(node, frozenset(f.leaves)))
            assert f.interior[-1] is node
            checked += 1
    return checked


@pytest.mark.parametrize("case", range(ORACLE_CASES))
def test_cut_functions_match_oracle_on_random_dags(case, seeded_rng):
    """Bounded and unbounded cut sets: every k-feasible cut is checked."""
    graph = _random_subject(seeded_rng("cuts-oracle", case))
    for bound in (3, 10 ** 6):
        cuts = enumerate_priority_cuts(graph, ORACLE_K, cuts_per_node=bound)
        _assert_cut_functions_match_oracle(graph, cuts, f"case {case}")


@pytest.mark.slow
@pytest.mark.parametrize(
    "circuit",
    sorted(set(TABLE1_CIRCUITS) | set(TABLE2_CIRCUITS))
    + ["synth:19910611:1000"])
def test_cut_functions_match_oracle_on_circuits(circuit, big_lib):
    """The mapper's cut width and bound, on the paper's circuits."""
    graph = decompose_to_subject(build_circuit(circuit))
    mapper = CutMapper(big_lib)
    cuts = enumerate_priority_cuts(graph, mapper.k, mapper.cuts_per_node)
    assert _assert_cut_functions_match_oracle(graph, cuts, circuit) > 0


# -- NPN match table and LUT cells --------------------------------------------


def test_npn_table_bindings_realize_their_key(tiny_lib):
    """Every stored binding's realised function is the function it's
    filed under — the core soundness of the expansion table."""
    table = match_table_for(tiny_lib, 3)
    assert len(table) > 0
    for (n, bits), bindings in table._table.items():
        for binding in bindings:
            assert binding.cell.num_inputs == n
            assert binding.realized_bits() == bits, (
                f"{binding.cell.name} filed under {bits:#x} realises "
                f"{binding.realized_bits():#x}")


def test_npn_table_binding_lists_sorted_by_area(big_lib):
    table = match_table_for(big_lib, 4)
    for bindings in table._table.values():
        keys = [(b.cell.area, b.cell.name) for b in bindings]
        assert keys == sorted(keys)


def test_npn_table_covers_base_functions(big_lib):
    """NAND2 and INV functions must be matchable — they are the fallback
    that makes the direct-fanin cut always coverable."""
    table = match_table_for(big_lib, 4)
    nand2 = TruthTable(2, 0b0111)
    inv = TruthTable(1, 0b01)
    assert table.lookup(nand2), "no binding for NAND2"
    assert table.lookup(inv), "no binding for INV"


def test_match_table_is_memoised(big_lib):
    assert match_table_for(big_lib, 4) is match_table_for(big_lib, 4)


@pytest.mark.parametrize("case", range(12))
def test_lut_cell_synthesises_its_truth_table(case, seeded_rng):
    rng = seeded_rng("lut-cell", case)
    n = rng.randint(2, 4)
    # Draw until the function depends on every input (the mapper only
    # requests full-support functions, post support-shrink).
    while True:
        bits = rng.randrange(1 << (1 << n))
        tt = TruthTable(n, bits)
        if len(tt.support()) == n:
            break
    cell = lut_cell(n, bits)
    assert cell.truth_table.bits == bits
    assert cell.num_inputs == n
    assert cell.name == f"lut{n}_{bits:x}"
    assert lut_cell(n, bits) is cell  # cached


# -- mapper spec parsing ------------------------------------------------------


def test_parse_mapper_spec_round_trips():
    assert parse_mapper_spec("tree") == MapperSpec("tree")
    assert parse_mapper_spec("cuts") == MapperSpec("cuts")
    assert parse_mapper_spec(" fusion ") == MapperSpec("fusion")
    spec = parse_mapper_spec("lut:4")
    assert spec == MapperSpec("lut", 4)
    assert spec.canonical == "lut:4"
    assert parse_mapper_spec(spec.canonical) == spec


@pytest.mark.parametrize("bad, message", [
    ("lut", "mapper 'lut': lut mode needs a width, e.g. 'lut:4'"),
    ("lut:", "mapper 'lut:': lut mode needs a width, e.g. 'lut:4'"),
    ("lut:x", "mapper 'lut:x': lut width 'x' is not an integer"),
    ("lut:1", "mapper 'lut:1': lut width must be in 2..6, got 1"),
    ("lut:9", "mapper 'lut:9': lut width must be in 2..6, got 9"),
    ("dag", "unknown mapper: 'dag' (expected tree|cuts|fusion|lut:K)"),
    ("", "unknown mapper: '' (expected tree|cuts|fusion|lut:K)"),
])
def test_parse_mapper_spec_pins_error_messages(bad, message):
    with pytest.raises(MapperSpecError) as info:
        parse_mapper_spec(bad)
    assert str(info.value) == message


def test_parse_mapper_spec_rejects_non_strings():
    with pytest.raises(MapperSpecError, match="must be a string"):
        parse_mapper_spec(4)


# -- covering -----------------------------------------------------------------


def _check_names(report):
    return {c.name for c in report.checks}


def test_cut_cover_area_mode_passes_fast_audit(small_network, big_lib):
    result = CutMapper(big_lib, mode="area").map(
        decompose_to_subject(small_network))
    assert result.cut_cover, "cut mapper committed no cover records"
    report = audit_mapping(result, net=small_network, level="fast")
    assert report.passed, [str(c) for c in report.failures]
    assert "invariant.map.cut_cover" in _check_names(report), (
        "the cut-cover invariant never ran")


def test_cut_cover_timing_mode_passes_fast_audit(small_network, big_lib):
    result = CutMapper(big_lib, mode="timing").map(
        decompose_to_subject(small_network))
    report = audit_mapping(result, net=small_network, level="fast")
    assert report.passed, [str(c) for c in report.failures]
    for record in result.cut_cover:
        instance = result.mapped[record.instance]
        assert instance.arrival is not None


def test_lut_mode_covers_with_generated_luts(small_network, big_lib):
    result = CutMapper(big_lib, lut_k=4).map(
        decompose_to_subject(small_network))
    report = audit_mapping(result, net=small_network, level="fast")
    assert report.passed, [str(c) for c in report.failures]
    for gate in result.mapped.gates:
        assert gate.cell.name.startswith("lut"), gate.cell.name
        assert gate.cell.num_inputs <= 4


def test_lut_width_bounds_enforced(big_lib):
    with pytest.raises(ValueError, match="lut width must be in 2..6"):
        CutMapper(big_lib, lut_k=1)
    with pytest.raises(ValueError, match="lut width must be in 2..6"):
        CutMapper(big_lib, lut_k=7)


def test_unknown_mode_rejected(big_lib):
    with pytest.raises(ValueError, match="unknown mode"):
        CutMapper(big_lib, mode="delay")
    with pytest.raises(ValueError, match="unknown mode"):
        FusionMapper(big_lib, mode="delay")


def test_fusion_no_worse_than_either_backend_per_cone(small_network,
                                                      big_lib):
    """The acceptance bound: per output cone, the fused cover's cost is
    ≤ min(tree, cuts) — fusion copies the winning cone verbatim."""
    from repro.map.cuts import _cone_cost

    result = FusionMapper(big_lib, mode="area").map(
        decompose_to_subject(small_network))
    report = audit_mapping(result, net=small_network, level="fast")
    assert report.passed, [str(c) for c in report.failures]
    assert result.choices, "fusion recorded no per-cone choices"
    for choice in result.choices:
        fused_driver = result.mapped[choice.output].fanins[0]
        fused_cost = _cone_cost(fused_driver, "area")
        floor = min(choice.tree_cost, choice.cut_cost)
        assert fused_cost <= floor + 1e-9, (
            f"cone {choice.output}: fused {fused_cost} > "
            f"min(tree={choice.tree_cost}, cuts={choice.cut_cost})")


def test_fusion_records_both_source_results(small_network, big_lib):
    result = FusionMapper(big_lib, mode="area").map(
        decompose_to_subject(small_network))
    assert result.tree_result is not None
    assert result.cut_result is not None
    assert result.cut_result.cut_cover


# -- cross-process determinism ------------------------------------------------

_DETERMINISM_SCRIPT = r"""
import hashlib, sys
from repro.circuits.suite import build_circuit
from repro.library.standard import big_library
from repro.map.blif_io import write_mapped_blif
from repro.map.cuts import CutMapper
from repro.map.mis import MisAreaMapper, MisDelayMapper
from repro.network.decompose import decompose_to_subject

net = build_circuit(sys.argv[1])
mode = sys.argv[2]
tree = MisAreaMapper if mode == "area" else MisDelayMapper
for mapper in (tree(big_library()), CutMapper(big_library(), mode=mode)):
    result = mapper.map(decompose_to_subject(net))
    history = [(uid, a.value, b.value)
               for uid, a, b in result.lifecycle.history]
    blob = "\n".join([
        write_mapped_blif(result.mapped),
        *(repr(r) for r in getattr(result, "cut_cover", ())),
        repr(history),
    ])
    print(type(mapper).__name__, hashlib.sha256(blob.encode()).hexdigest())
"""


@pytest.mark.parametrize("mode", ["area", "timing"])
def test_cut_cover_bit_stable_across_processes(mode, small_network, big_lib):
    """Two fresh interpreters with *different* hash seeds produce the
    same tree and cut covers and the same lifecycle history, byte for
    byte — nothing leans on set/dict hash order or object addresses."""
    digests = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in sys.path if p) or env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SCRIPT, "apex7", mode],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1], (
        f"cover or history differs across processes: {digests}")
    # And the in-process mapping agrees with itself on a repeat run.
    subject = decompose_to_subject(small_network)
    first = write_mapped_blif(
        CutMapper(big_lib, mode=mode).map(subject).mapped)
    again = write_mapped_blif(
        CutMapper(big_lib, mode=mode).map(
            decompose_to_subject(small_network)).mapped)
    assert hashlib.sha256(first.encode()).hexdigest() == \
        hashlib.sha256(again.encode()).hexdigest()
