"""The DP covering engine."""

from __future__ import annotations

import pytest

from repro.library.patterns import pattern_set_for
from repro.map.base import BaseMapper, NoMatchError, SolutionMemo
from repro.map.mis import MisAreaMapper
from repro.match.treematch import Matcher
from repro.network.blif import parse_blif
from repro.network.decompose import decompose_to_subject
from repro.network.simulate import networks_equivalent
from repro.network.subject import SubjectGraph


class TestCoverOptimality:
    def test_and3_uses_single_cell(self, big_lib):
        """An AND3 subject tree must map to one and3 cell, not pieces."""
        net = parse_blif(""".model a3
.inputs a b c
.outputs f
.names a b c f
111 1
.end
""")
        subject = decompose_to_subject(net)
        result = MisAreaMapper(big_lib).map(subject)
        assert result.mapped.cell_histogram() == {"and3": 1}

    def test_exhaustive_cross_check_on_tree(self, big_lib):
        """DP area equals the brute-force minimum cover on a small tree."""
        net = parse_blif(""".model t
.inputs a b c d
.outputs f
.names a b c d f
1111 1
.end
""")
        subject = decompose_to_subject(net)
        result = MisAreaMapper(big_lib, tree_mode=True).map(subject)
        dp_area = result.cell_area

        # Brute force: enumerate all covers of the tree recursively.
        patterns = pattern_set_for(big_lib)
        matcher = Matcher(patterns, tree_mode=True)

        def best_cost(node):
            if not node.is_gate:
                return 0.0
            best = None
            for m in matcher.matches_at(node):
                cost = m.cell.area + sum(best_cost(v) for v in m.inputs)
                if best is None or cost < best:
                    best = cost
            assert best is not None
            return best

        root = subject.primary_outputs[0].fanins[0]
        assert dp_area == pytest.approx(best_cost(root))

    def test_equivalence_preserved(self, big_lib, small_network):
        subject = decompose_to_subject(small_network)
        result = MisAreaMapper(big_lib).map(subject)
        assert networks_equivalent(small_network, result.mapped)


class TestEdgeCases:
    def test_po_driven_by_pi(self, big_lib):
        # A pass-through output: PO attached directly to a PI.
        net2 = parse_blif(""".model wire
.inputs a b
.outputs f
.names a b f
11 1
.end
""")
        subject = decompose_to_subject(net2)
        # attach a PO directly to the PI in the subject graph
        subject.add_primary_output("g__po", subject["a"])
        result = MisAreaMapper(big_lib).map(subject)
        assert "g__po" in result.mapped
        assert result.mapped["g__po"].fanins[0].name == "a"

    def test_constant_output(self, big_lib):
        net = parse_blif(""".model c
.inputs a
.outputs f
.names one
1
.names a one f
11 1
.end
""")
        subject = decompose_to_subject(net)
        result = MisAreaMapper(big_lib).map(subject)
        assert networks_equivalent(net, result.mapped)

    def test_shared_logic_two_outputs(self, big_lib):
        """Hawks are reused: a driver shared by two POs maps once."""
        net = parse_blif(""".model sh
.inputs a b
.outputs f g
.names a b t
11 1
.names t f
1 1
.names t g
1 1
.end
""")
        subject = decompose_to_subject(net)
        result = MisAreaMapper(big_lib).map(subject)
        assert networks_equivalent(net, result.mapped)

    def test_no_match_error(self, small_network):
        """An impoverished pattern set (inverter-only would fail the
        Library invariant, so simulate by removing NAND matches)."""
        from repro.library.cell import Library
        from repro.library.standard import big_library

        lib = big_library()
        mapper = MisAreaMapper(lib)
        subject = decompose_to_subject(small_network)
        # Sabotage the matcher to return nothing for NAND nodes.
        original = mapper.matcher.matches_at
        mapper.matcher.matches_at = lambda n: []
        with pytest.raises(NoMatchError):
            mapper.map(subject)

    def test_diamond_commit(self, big_lib):
        """Cover commitment handles input chains among chosen matches
        (a match input that depends on another input of the same cover)."""
        g = SubjectGraph()
        a = g.add_primary_input("a")
        b = g.add_primary_input("b")
        inv_a = g.inv(a)
        n1 = g.nand(inv_a, b)
        n2 = g.nand(n1, a)
        g.add_primary_output("f", n2)
        result = MisAreaMapper(big_lib).map(g)
        result.mapped.check()

    def test_map_result_fields(self, big_lib, small_network):
        subject = decompose_to_subject(small_network)
        result = MisAreaMapper(big_lib).map(subject)
        assert result.num_gates == len(result.mapped.gates)
        assert result.cell_area == result.mapped.total_cell_area()
        assert sorted(result.cone_order) == list(
            range(len(subject.primary_outputs))
        )


class TestConeOrderingFlag:
    def test_cone_ordering_changes_order_not_function(
        self, big_lib, small_network
    ):
        subject = decompose_to_subject(small_network)
        plain = MisAreaMapper(big_lib, use_cone_ordering=False).map(subject)
        ordered = MisAreaMapper(big_lib, use_cone_ordering=True).map(subject)
        assert networks_equivalent(plain.mapped, ordered.mapped)


class TestSolutionMemo:
    """The cross-cone validity rule, on hand-built read dependencies."""

    def _chain(self):
        g = SubjectGraph("memo")
        a, b, c = (g.add_primary_input(n) for n in "abc")
        x = g.nand(a, b)
        y = g.inv(x)
        z = g.nand(y, c)
        w = g.nand(x, c)
        u = g.nand(a, c)
        return a, x, y, z, w, u

    def test_drop_follows_readers_transitively(self):
        a, x, y, z, w, u = self._chain()
        memo = SolutionMemo()
        memo.store(x, "X", [a])
        memo.store(y, "Y", [x])
        memo.store(z, "Z", [y])
        memo.store(w, "W", [a, x])
        memo.store(u, "U", [a])
        memo.note_hawk(x)
        # y and w read the hawk, z read y; x is final; u read only a PI.
        assert memo.drop_stale() == 3
        assert set(memo) == {u.uid}
        assert memo.drop_stale() == 0

    def test_reads_are_recorded_once_per_node(self):
        a, x, y, z, w, u = self._chain()
        memo = SolutionMemo()
        memo.store(y, "Y", [x])
        memo.store(y, "Y again", [z])  # a re-solve reads the same nodes
        memo.note_hawk(z)
        assert memo.drop_stale() == 0
        assert memo[y.uid] == "Y again"

    def test_emptied_memo_forgets_queued_hawks(self):
        a, x, y, z, w, u = self._chain()
        memo = SolutionMemo()
        memo.store(y, "Y", [x])
        memo.note_hawk(x)
        memo.clear()  # what a per-cone oracle or Lily's re-place does
        assert memo.drop_stale() == 0
        memo.store(y, "Y", [x])
        assert memo.drop_stale() == 0
        assert y.uid in memo

    def test_changed_net_drops_its_readers_not_its_driver(self):
        a, x, y, z, w, u = self._chain()
        memo = SolutionMemo()
        memo.store(x, "X", [a])
        memo.store(y, "Y", [x])
        memo.store(z, "Z", [y])
        memo.store(w, "W", [a, x])
        memo.store(u, "U", [a])
        memo.note_changed([y.uid])
        assert memo.drop_stale() == 1
        assert set(memo) == {x.uid, y.uid, w.uid, u.uid}
        # A primary input's net has readers too: x, w and u, then y and
        # z through x.
        memo.store(z, "Z", [y])
        memo.note_changed([a.uid])
        assert memo.drop_stale() == 5
        assert not memo

    def test_stale_entry_drops_itself_and_its_readers(self):
        a, x, y, z, w, u = self._chain()
        memo = SolutionMemo()
        memo.store(x, "X", [a])
        memo.store(y, "Y", [x])
        memo.store(z, "Z", [y])
        memo.store(u, "U", [a])
        memo.note_stale([y, w])  # w was never solved: nothing to drop
        assert memo.drop_stale() == 2
        assert set(memo) == {x.uid, u.uid}
