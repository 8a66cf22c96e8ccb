import itertools
import math
import random
import re

import pytest
from test_oracles import oracle_perm_rank

from topocode import topcode
from topocode.graphs import ColoredGraph, Graph
from topocode.strings import MOD9, DigitString
from topocode.topcode import (
    ParamTopcode,
    PermIndex,
    TopcodeError,
    TopcodeMatrix,
    adjacency_family,
    assignment_substitute,
    curve_strings,
    inner_matrix,
    nested_topcode,
    parameterize,
    pronbs_solve,
    string_from_topcode,
    topcode_from_graph,
    unit_matrix,
)

# Example 1's public tree G and private trees T, J (vertex colors = labels).
G_ORDER = [(1, 5), (3, 5), (5, 6), (2, 6), (4, 6)]
G_EDGES = {(1, 5): 4, (3, 5): 2, (5, 6): 1, (2, 6): 4, (4, 6): 2}
T_ORDER = [(4, 5), (2, 4), (1, 4), (1, 6), (1, 3)]
T_EDGES = {(4, 5): 1, (2, 4): 2, (1, 4): 3, (1, 6): 5, (1, 3): 2}
J_ORDER = [(1, 2), (2, 5), (2, 3), (3, 4), (3, 6)]
J_EDGES = {(1, 2): 1, (2, 5): 3, (2, 3): 1, (3, 4): 1, (3, 6): 3}


def example_tree(edge_map):
    g = Graph.build(range(1, 7), edge_map.keys())
    return ColoredGraph(g, {v: v for v in range(1, 7)}, dict(edge_map))


class TestTopcodeFromGraph:
    def test_example1_g_matrix(self):
        t = topcode_from_graph(example_tree(G_EDGES), G_ORDER)
        assert t.x_row == (1, 3, 5, 2, 4)
        assert t.e_row == (4, 2, 1, 4, 2)
        assert t.y_row == (5, 5, 6, 6, 6)

    def test_example1_strings(self):
        g = topcode_from_graph(example_tree(G_EDGES), G_ORDER)
        t = topcode_from_graph(example_tree(T_EDGES), T_ORDER)
        j = topcode_from_graph(example_tree(J_EDGES), J_ORDER)
        assert str(string_from_topcode(g)) == "135244214255666"
        assert str(string_from_topcode(t)) == "421111235254463"
        assert str(string_from_topcode(j)) == "122331311325346"

    def test_concatenated_k6_matrix(self):
        g = topcode_from_graph(example_tree(G_EDGES), G_ORDER)
        t = topcode_from_graph(example_tree(T_EDGES), T_ORDER)
        j = topcode_from_graph(example_tree(J_EDGES), J_ORDER)
        whole = g.concat(t).concat(j)
        assert whole.q == 15
        assert whole.x_row == (1, 3, 5, 2, 4, 4, 2, 1, 1, 1, 1, 2, 2, 3, 3)
        assert whole.e_row == (4, 2, 1, 4, 2, 1, 2, 3, 5, 2, 1, 3, 1, 1, 3)
        assert whole.y_row == (5, 5, 6, 6, 6, 5, 4, 4, 6, 3, 2, 5, 3, 4, 6)

    def test_round_trip_columns(self):
        cg = example_tree(G_EDGES)
        t = topcode_from_graph(cg, G_ORDER)
        for i, (u, v) in enumerate(G_ORDER):
            assert t.column(i) == (cg.vcolor(u), cg.ecolor(u, v), cg.vcolor(v))

    def test_x_side_stipulation(self):
        p2 = ColoredGraph(Graph.path(2), {1: 0, 2: 1}, {(1, 2): 1})
        t = topcode_from_graph(p2, x_side={2})
        assert t.x_row == (1,) and t.y_row == (0,)

    def test_edgeless_rejected(self):
        lone = ColoredGraph(Graph.build([1], []), {1: 1}, {})
        with pytest.raises(TopcodeError):
            topcode_from_graph(lone)

    def test_boolean_cell_has_no_digit_form(self):
        # True is an int to isinstance, but its text is "True", not a digit
        with pytest.raises(TopcodeError, match="^cell True has no digit form$"):
            string_from_topcode(TopcodeMatrix((True,), (2,), (3,)))

    @pytest.mark.parametrize("cell", [(1, -2), (True, 3), (1, "2")])
    def test_tuple_cell_without_digit_form(self, cell):
        # every item of a tuple cell must be a non-negative int, named in the error
        with pytest.raises(TopcodeError, match=f"^cell {re.escape(repr(cell))} has no digit form$"):
            string_from_topcode(TopcodeMatrix((cell,), (2,), (3,)))


class TestPermutations:
    def test_identity_is_rank_zero(self):
        p = PermIndex.identity(6)
        assert p.rank == 0

    def test_rank_roundtrip(self):
        for rank in range(24):
            p = PermIndex.from_rank(rank, 4)
            assert PermIndex.from_sequence(p.sequence).rank == rank

    def test_all_permutations_distinct_strings(self):
        t = TopcodeMatrix((1, 2), (3, 4), (5, 6))
        seen = set()
        for seq in itertools.permutations(range(6)):
            seen.add(str(string_from_topcode(t, PermIndex.from_sequence(seq))))
        assert len(seen) == 720

    @pytest.mark.parametrize("q", [*range(1, 81), 300, 1000])
    def test_column_major_rank_by_formula_is_the_lehmer_rank(self, q):
        seq = tuple(itertools.chain.from_iterable((i, q + i, 2 * q + i) for i in range(q)))
        p = PermIndex.column_major(q)
        assert p.sequence == seq
        assert p.rank == PermIndex.from_sequence(seq).rank
        if q <= 8:
            assert p.rank == oracle_perm_rank(seq)

    def test_single_column(self):
        t = TopcodeMatrix((1,), (2,), (3,))
        assert str(string_from_topcode(t)) == "123"

    def test_direct_construction_checks_permutation(self):
        for seq in ((0, 0, 1), (1, 2, 3), (0, 2)):
            with pytest.raises(TopcodeError, match="not a permutation"):
                PermIndex(seq)
        with pytest.raises(TopcodeError, match="not a permutation"):
            PermIndex.from_sequence((0, 0, 1))

    def test_rank_out_of_range(self):
        for n in (0, 1, 4, 9):
            for rank in (-1, math.factorial(n)):
                with pytest.raises(TopcodeError, match=f"rank {rank} out of range for n={n}"):
                    PermIndex.from_rank(rank, n)
        assert PermIndex.from_rank(math.factorial(9) - 1, 9).sequence == tuple(range(8, -1, -1))

    def test_rank_too_long_to_print_out_of_range(self):
        # past the default 4300-digit limit the message gives the bit length
        for rank in (10**5000, -(10**5000)):
            with pytest.raises(TopcodeError, match="rank of 16610 bits out of range for n=10"):
                PermIndex.from_rank(rank, 10)

    def test_column_major_rank_matches_oracle(self):
        for q in range(1, 6):
            p = PermIndex.column_major(q)
            assert p.rank == oracle_perm_rank(p.sequence)
            assert PermIndex(p.sequence) == p

    def test_permutation_constructors_compute_no_rank(self, monkeypatch):
        def no_rank(*args):
            raise AssertionError("a constructor computed a rank")

        t = TopcodeMatrix((1, 2, 3), (4, 5, 6), (7, 8, 9))
        with monkeypatch.context() as m:
            m.setattr(topcode, "_perm_rank", no_rank)
            m.setattr(topcode, "_fold", no_rank)
            perms = [PermIndex.column_major(3), PermIndex.from_rank(123456, 9), PermIndex.identity(9)]
            texts = [str(string_from_topcode(t, p)) for p in perms]
        cells = [str(c) for c in t.cells_row_major()]
        for p, text in zip(perms, texts):
            assert text == "".join(cells[i] for i in p.sequence)
            assert p.rank == PermIndex.from_sequence(p.sequence).rank
        assert texts[0] == "147258369" and texts[2] == "123456789"
        assert perms[1].rank == 123456

    def test_1000_edge_tree_read_in_permuted_orders(self):
        # a random 1000-edge tree read column-major and by a random rank,
        # against the cells concatenated in that order
        q, rng = 1000, random.Random(1000)
        edges = [(rng.randrange(v), v) for v in range(1, q + 1)]
        vcolors = {v: rng.randrange(10**rng.randrange(1, 4)) for v in range(q + 1)}
        ecolors = {e: rng.randrange(1, 100) for e in edges}
        cg = ColoredGraph(Graph.build(range(q + 1), edges), vcolors, ecolors)
        t = topcode_from_graph(cg)
        cells = [str(c) for c in t.cells_row_major()]
        by_column = "".join(str(c) for i in range(q) for c in t.column(i))
        assert str(string_from_topcode(t, PermIndex.column_major(q))) == by_column
        # the order with Lehmer digits d_i, and its rank folded by Horner's rule
        digits = [rng.randrange(3 * q - i) for i in range(3 * q)]
        rank, items, order = 0, list(range(3 * q)), []
        for i, d in enumerate(digits):
            rank = rank * (3 * q - i) + d
            order.append(items.pop(d))
        expected = "".join(cells[i] for i in order)
        assert str(string_from_topcode(t, PermIndex.from_rank(rank, 3 * q))) == expected


class TestParameterized:
    BASE = TopcodeMatrix((1, 2, 3, 3, 3), (5, 4, 3, 2, 1), (6, 6, 6, 5, 4))

    def test_render(self):
        p = parameterize(self.BASE)
        rows = p.render()
        assert rows[0] == ["d", "2d", "3d", "3d", "3d"]
        assert rows[1] == ["k+5d", "k+4d", "k+3d", "k+2d", "k+d"]
        assert rows[2] == ["k+6d", "k+6d", "k+6d", "k+5d", "k+4d"]

    def test_evaluate_identity(self):
        p = parameterize(self.BASE)
        assert p.evaluate(0, 1) == self.BASE

    def test_evaluate_2_3(self):
        p = parameterize(self.BASE)
        out = p.evaluate(2, 3)
        assert out.x_row == (3, 6, 9, 9, 9)
        assert out.e_row == (17, 14, 11, 8, 5)
        assert out.y_row == (20, 20, 20, 17, 14)

    def test_linearity(self):
        p = parameterize(self.BASE)
        for k1, k2, d in [(0, 1, 1), (2, 3, 2), (1, 4, 3)]:
            left = p.evaluate(k1 + k2, d)
            right = p.evaluate(k1, d)
            unit = unit_matrix(p.q)
            for lr, rr, ur in zip(left.rows(), right.rows(), unit.rows()):
                assert lr == tuple(r + k2 * u for r, u in zip(rr, ur))

    def test_negative_d_rejected(self):
        with pytest.raises(TopcodeError):
            parameterize(self.BASE).evaluate(1, -1)

    def test_boolean_base_rejected(self):
        bools = TopcodeMatrix((True,), (1,), (2,))
        assert not bools.is_numeric()
        with pytest.raises(TopcodeError, match="numeric base"):
            parameterize(bools)


class TestCurveStrings:
    def test_parabola_points(self):
        p = parameterize(TopcodeMatrix((0, 1), (1, 2), (1, 2)))
        points = [(1, 1), (2, 4), (3, 9)]
        strings = curve_strings(p, points)
        assert len(strings) == 3
        assert strings[0] == string_from_topcode(p.evaluate(1, 1))

    def test_single_point_identity(self):
        p = parameterize(TopcodeMatrix((0, 1), (1, 2), (1, 2)))
        assert curve_strings(p, [(0, 1)])[0] == string_from_topcode(p.base)

    def test_empty_points(self):
        p = parameterize(TopcodeMatrix((0,), (1,), (1,)))
        assert curve_strings(p, []) == []


class TestAssignment:
    TABLE = {1: "142857", 2: "6174", 3: "0618", 4: "31415926", 5: "8128", 6: "196"}

    def test_assignment_expansion(self):
        s_pub = DigitString.parse("135244214255666")
        out = assignment_substitute(s_pub, self.TABLE)
        expected = (
            "142857" "0618" "8128" "6174" "31415926"
            "31415926" "6174" "142857" "31415926" "6174"
            "8128" "8128" "196" "196" "196"
        )
        assert str(out) == expected

    def test_identity_table(self):
        s = DigitString.parse("123")
        table = {d: str(d) for d in range(10)}
        assert assignment_substitute(s, table) == s

    def test_zero_table_preserves_nothing_but_length(self):
        s = DigitString.parse("409")
        out = assignment_substitute(s, {d: "0" for d in range(10)})
        assert str(out) == "000"

    def test_missing_entry(self):
        with pytest.raises(TopcodeError):
            assignment_substitute(DigitString.parse("12"), {1: "9"})


class TestAdjacencyFamily:
    def h4147(self):
        edges = {(1, 5): 4, (2, 6): 4, (3, 5): 2, (4, 6): 2, (5, 6): 1}
        g = Graph.build(range(1, 7), edges.keys())
        return ColoredGraph(g, {v: v for v in range(1, 7)}, edges)

    def test_adjacency(self):
        a, colored, a_code = adjacency_family(self.h4147())
        assert a == [
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
            [1, 0, 1, 0, 0, 1],
            [0, 1, 0, 1, 1, 0],
        ]
        assert colored == [
            [0, 0, 0, 0, 4, 0],
            [0, 0, 0, 0, 0, 4],
            [0, 0, 0, 0, 2, 0],
            [0, 0, 0, 0, 0, 2],
            [4, 0, 2, 0, 0, 1],
            [0, 4, 0, 2, 1, 0],
        ]
        assert a_code[0] == [0, 1, 2, 3, 4, 5, 6]
        assert [row[0] for row in a_code] == [0, 1, 2, 3, 4, 5, 6]
        for i in range(6):
            assert a_code[i + 1][1:] == a[i]

    def test_symmetry(self):
        a, colored, _ = adjacency_family(self.h4147())
        for i in range(6):
            for j in range(6):
                assert a[i][j] == a[j][i]
                assert colored[i][j] == colored[j][i]

    def test_edgeless(self):
        g = ColoredGraph(Graph.build([1, 2], []), {1: 7, 2: 8}, {})
        a, colored, a_code = adjacency_family(g)
        assert a == [[0, 0], [0, 0]]
        assert a_code == [[0, 7, 8], [7, 0, 0], [8, 0, 0]]


class TestNested:
    def test_single_edge(self):
        g = Graph.path(2)
        cg = ColoredGraph(g, {1: (0, 1), 2: (2, 0)}, {(1, 2): (2, 1)})
        outer = nested_topcode(cg)
        inner = inner_matrix(outer, 0)
        assert inner.q == 2
        assert inner.rows() == ((0, 1), (2, 1), (2, 0))

    def test_flatten_matches_row_major(self):
        g = Graph.path(3)
        cg = ColoredGraph(
            g,
            {1: (0, 2), 2: (3, 1), 3: (1, 0)},
            {(1, 2): (3, 1), (2, 3): (2, 1)},
        )
        outer = nested_topcode(cg)
        # row-major: X cells (0,2),(3,1) then E cells (3,1),(2,1) then Y (3,1),(1,0)
        assert str(string_from_topcode(outer)) == "023131213110"

    def test_ragged_rejected(self):
        g = Graph.path(2)
        cg = ColoredGraph(g, {1: (0, 1), 2: (2,)}, {(1, 2): (2, 1)})
        with pytest.raises(TopcodeError):
            nested_topcode(cg)


class TestPronbs:
    def make_source(self):
        # set-ordered graceful path 0-3: X={0,1}, Y={2,3}; edges 2,1,... build
        # P_4 with colors 0-3-1-2 -> set-ordered bipartition {0,1} vs {2,3}
        g = Graph.build([0, 1, 2, 3], [(0, 3), (1, 3), (1, 2)])
        cg = ColoredGraph(
            g,
            {0: 0, 1: 1, 2: 2, 3: 3},
            {(0, 3): 3, (1, 3): 2, (1, 2): 1},
        )
        return topcode_from_graph(cg, [(0, 3), (1, 3), (1, 2)])

    def test_round_trip(self):
        base = self.make_source()
        s = string_from_topcode(ParamTopcode(base).evaluate(2, 1))
        candidates = pronbs_solve(s, max_q=4, max_color=6)
        assert any(
            c.base.rows() == base.rows() and (c.k, c.d) == (2, 1) for c in candidates
        )

    def test_all_candidates_regenerate(self):
        base = self.make_source()
        s = string_from_topcode(ParamTopcode(base).evaluate(1, 2))
        for cand in pronbs_solve(s, max_q=4, max_color=6):
            assert cand.regenerate() == s

    def test_all_zeros_infeasible(self):
        s = DigitString.parse("000000")
        assert pronbs_solve(s, max_q=2, max_color=6) == []

    def test_multigraph_base_rejected(self):
        # row-major 0,0 | 1,1 | 1,1 is graceful, but both columns join colors 0 and 1
        assert pronbs_solve(DigitString.parse("001111"), max_q=2, k_range=(0,), d_range=(1,)) == []

    def test_mod9_string_has_no_candidates(self):
        # the digits read the same, but k*unit + d*base regenerates a mod-10 string
        s = string_from_topcode(ParamTopcode(self.make_source()).evaluate(2, 1))
        assert pronbs_solve(s) and pronbs_solve(DigitString.parse(str(s), MOD9)) == []

    @pytest.mark.parametrize("d", [0, -1])
    def test_d_below_one_rejected(self, d):
        with pytest.raises(TopcodeError, match="d >= 1"):
            pronbs_solve(DigitString.parse("011"), max_q=1, d_range=(1, d))

    def test_spub_style_string(self):
        s = DigitString.parse("135244214255666")
        candidates = pronbs_solve(s, max_q=5, max_color=6, k_range=(0, 1), d_range=(1,))
        # single digits only at max_color 6, so every candidate has q = 5
        assert candidates and all(c.base.q == 5 for c in candidates)
        for cand in candidates:
            assert cand.regenerate() == s
        # the source tree of the 135244214255666 example appears among them
        g_rows = ((1, 3, 5, 2, 4), (4, 2, 1, 4, 2), (5, 5, 6, 6, 6))
        assert any(c.base.rows() == g_rows and (c.k, c.d) == (0, 1) for c in candidates)


class TestSetCells:
    def test_scaling_rule(self):
        from topocode.topcode import evaluate_set_cells

        t = TopcodeMatrix(
            (frozenset({0, 1}),), (frozenset({2, 3}),), (frozenset({1, 4}),)
        )
        out = evaluate_set_cells(t, k=2, d=3)
        assert out.x_row[0] == frozenset({0, 3})       # X row has zero unit part
        assert out.e_row[0] == frozenset({8, 11})
        assert out.y_row[0] == frozenset({5, 14})

    def test_identity(self):
        from topocode.topcode import evaluate_set_cells

        t = TopcodeMatrix((frozenset({1}),), (frozenset({2}),), (frozenset({3}),))
        assert evaluate_set_cells(t, 0, 1) == t

    def test_boolean_cell_is_no_number(self):
        from topocode.topcode import evaluate_set_cells

        with pytest.raises(TopcodeError, match="^cell False is not a set or number$"):
            evaluate_set_cells(TopcodeMatrix((False,), (2,), (3,)), k=1, d=1)

    def test_boolean_set_member_is_no_number(self):
        from topocode.topcode import evaluate_set_cells

        cell = frozenset({True})
        with pytest.raises(TopcodeError, match=f"^cell {re.escape(repr(cell))} is not a set or number$"):
            evaluate_set_cells(TopcodeMatrix((cell,), (frozenset({2}),), (frozenset({3}),)), k=1, d=1)
