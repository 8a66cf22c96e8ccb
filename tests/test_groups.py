import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topocode import trees
from topocode.graphs import ColoredGraph, Graph
from topocode.groups import (
    CompoundStringGroup,
    GraphicGroup,
    GroupError,
    MultipleJoinNetwork,
    build_graphic_group,
    color_host_by_group,
    graph_based_string,
    graphic_group_op,
    group_compound,
    replay_join_transcript,
)
from topocode.strings import DigitString
from topocode.topcode import PermIndex


def p3_graceful():
    g = Graph.path(3)
    return ColoredGraph(g, {1: 0, 2: 2, 3: 1}, {(1, 2): 2, (2, 3): 1})


def p3_odd_graceful():
    g = Graph.path(3)
    return ColoredGraph(g, {1: 0, 2: 3, 3: 2}, {(1, 2): 3, (2, 3): 1})


class TestGraphicGroup:
    def test_zero_element_is_base(self):
        group = build_graphic_group(p3_odd_graceful(), (10, 10))
        e = group.element(0, 0)
        assert e.vcolors == p3_odd_graceful().vcolors
        assert e.ecolors == p3_odd_graceful().ecolors

    def test_default_window_is_2q(self):
        group = build_graphic_group(p3_odd_graceful())
        assert group.p_window == group.q_window == 4

    def test_shift_by_one(self):
        group = build_graphic_group(p3_odd_graceful(), (10, 10))
        e = group.element(1, 0)
        assert [e.vcolor(v) for v in (1, 2, 3)] == [1, 4, 3]
        assert e.ecolors == p3_odd_graceful().ecolors

    def test_order_when_injective(self):
        group = build_graphic_group(p3_odd_graceful(), (4, 4))
        assert group.distinct_elements() == 16

    def test_op_index_arithmetic(self):
        group = build_graphic_group(p3_odd_graceful(), (4, 4))
        assert graphic_group_op(group, (1, 2), (2, 1), (1, 1)) == (2, 2)

    def test_zero_law(self):
        group = build_graphic_group(p3_odd_graceful(), (4, 4))
        for a in itertools.product(range(4), repeat=2):
            for z in itertools.product(range(4), repeat=2):
                assert graphic_group_op(group, a, z, z) == a

    def test_full_table_laws(self):
        group = build_graphic_group(p3_odd_graceful(), (4, 4))
        idx = list(itertools.product(range(4), repeat=2))
        for a in idx:
            for b in idx:
                for z in idx:
                    lam = graphic_group_op(group, a, b, z)
                    assert lam == graphic_group_op(group, b, a, z)
                    # associativity under the fixed zero
                    for c in idx:
                        left = graphic_group_op(group, graphic_group_op(group, a, b, z), c, z)
                        right = graphic_group_op(group, a, graphic_group_op(group, b, c, z), z)
                        assert left == right

    @pytest.mark.parametrize("bad", [(1.5, 0), (0, 2.0), ("1", 0), (0, -1), (4, 0)])
    def test_op_rejects_an_index_that_is_not_an_int_in_the_window(self, bad):
        group = build_graphic_group(p3_odd_graceful(), (4, 4))
        for args in ((bad, (0, 0), (0, 0)), ((0, 0), bad, (0, 0)), ((0, 0), (0, 0), bad)):
            with pytest.raises(GroupError, match="not integer pairs inside the windows"):
                graphic_group_op(group, *args)

    def test_base_color_bound(self):
        with pytest.raises(GroupError):
            build_graphic_group(p3_odd_graceful(), (2, 2))

    @pytest.mark.parametrize("bad", [True, 0, 1.5, 6.0])
    def test_windows_are_integers_of_at_least_one(self, bad):
        message = r"^window moduli must be integers >= 1, got "
        for window in (bad, (bad, 6), (6, bad)):
            with pytest.raises(GroupError, match=message):
                build_graphic_group(p3_graceful(), window)
        with pytest.raises(GroupError, match=message):
            GraphicGroup(p3_graceful(), 6, bad)


@st.composite
def graphic_groups(draw):
    """A random total coloring of a random graph on 1..n inside a random window."""
    n = draw(st.integers(1, 6))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    p, q = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    vcolors = {v: draw(st.integers(0, p - 1)) for v in range(1, n + 1)}
    ecolors = {e: draw(st.integers(0, q - 1)) for e in sorted(edges)}
    return build_graphic_group(ColoredGraph(Graph.build(range(1, n + 1), edges), vcolors, ecolors), (p, q))


class TestGraphicGroupProperties:
    @given(graphic_groups(), st.data())
    def test_op_is_the_color_wise_law(self, group, data):
        p, q = group.p_window, group.q_window
        cell = st.tuples(st.integers(0, p - 1), st.integers(0, q - 1))
        a, b, z = data.draw(cell), data.draw(cell), data.draw(cell)
        lam = graphic_group_op(group, a, b, z)
        assert lam == ((a[0] + b[0] - z[0]) % p, (a[1] + b[1] - z[1]) % q)
        ea, eb, ez, target = (group.element(*x) for x in (a, b, z, lam))
        for v in group.base.graph.vertices:
            assert target.vcolor(v) == (ea.vcolor(v) + eb.vcolor(v) - ez.vcolor(v)) % p
        for e in group.base.graph.edges:
            assert target.ecolors[e] == (ea.ecolors[e] + eb.ecolors[e] - ez.ecolors[e]) % q

    @given(graphic_groups())
    def test_distinct_elements_counts_materialized_elements(self, group):
        seen = set()
        for s in range(group.p_window):
            for k in range(group.q_window):
                e = group.element(s, k)
                seen.add((tuple(sorted(e.vcolors.items())), tuple(sorted(e.ecolors.items()))))
        assert group.distinct_elements() == len(seen)


class TestGroupCompound:
    def test_p3_m4(self):
        group, matrices, strings = group_compound(p3_graceful(), 4)
        assert len(matrices) == 4
        assert strings.order == 4
        for i in range(4):
            for j in range(4):
                for z in range(4):
                    assert strings.op(i, j, z) == (i + j - z) % 4

    def test_m2_degenerate(self):
        base = ColoredGraph(Graph.path(2), {1: 0, 2: 1}, {(1, 2): 1})
        group, matrices, strings = group_compound(base, 2)
        assert strings.op(0, 1, 1) == 0
        assert strings.op(1, 1, 0) == 0

    def test_perm_changes_strings_not_law(self):
        _, _, row_major = group_compound(p3_graceful(), 4)
        col = PermIndex.column_major(2)
        _, _, col_major = group_compound(p3_graceful(), 4, col)
        assert row_major.strings != col_major.strings
        for i in range(4):
            for j in range(4):
                for z in range(4):
                    assert col_major.op(i, j, z) == row_major.op(i, j, z)

    def test_changed_digit_breaks_the_law(self):
        _, _, compound = group_compound(p3_graceful(), 4)
        strings = list(compound.strings)
        target = strings[2].digits
        strings[2] = DigitString(((target[0] + 1) % 10,) + target[1:])
        broken = CompoundStringGroup(tuple(strings), shift=1, position_moduli=compound.position_moduli)
        with pytest.raises(GroupError, match="element 2 at position 0$"):
            broken.op(1, 1, 0)

    def test_op_rejects_a_negative_index(self):
        _, _, compound = group_compound(p3_graceful(), 4)
        assert compound.closed
        for args in ((-1, 0, 0), (-4, 1, 0), (0, 0, -5)):
            with pytest.raises(GroupError, match="not integers in range"):
                compound.op(*args)

    def test_op_rejects_an_index_past_the_order(self):
        _, _, compound = group_compound(p3_graceful(), 4)
        with pytest.raises(GroupError, match="not integers in range"):
            compound.op(4, 0, 0)
        with pytest.raises(GroupError, match="not integers in range"):
            compound.op(1.0, 0, 0)

    def test_rejects_large_colors(self):
        with pytest.raises(GroupError):
            group_compound(p3_graceful(), 2)


class TestHostColoring:
    def _identity_group_order(self, n):
        return n

    def test_k3_explicit(self):
        gc = color_host_by_group(Graph.cycle(3), order=6, zero=0,
                                 vertex_assignment={1: 1, 2: 2, 3: 3})
        assert gc.edge_index[(1, 2)] == 3
        assert gc.edge_index[(1, 3)] == 4
        assert gc.edge_index[(2, 3)] == 5
        assert gc.law_holds()

    @pytest.mark.parametrize("bad", [7, -1, 2.5, "1", True, False])
    def test_assignment_rejects_an_index_outside_the_order(self, bad):
        with pytest.raises(GroupError, match="not integers in range"):
            color_host_by_group(Graph.path(3), 4, 0, {1: 0, 2: 1, 3: bad})
        with pytest.raises(GroupError, match="not integers in range"):
            color_host_by_group(Graph.path(3), 4, bad, {1: 0, 2: 1, 3: 2})

    def test_star_proper(self):
        star = Graph.star(5, center=0)
        gc = color_host_by_group(star, order=6, zero=0, proper=True)
        center = gc.vertex_index[0]
        for leaf in range(1, 6):
            assert gc.vertex_index[leaf] != center
        assert gc.law_holds()

    def test_order_too_small(self):
        star = Graph.star(5, center=0)
        with pytest.raises(GroupError):
            color_host_by_group(star, order=5, zero=0, proper=True)

    def test_proper_search_reports_budget(self):
        # the tree colors at its max degree + 1; the Petersen graph, whose ten
        # vertices lie within distance 2 of each other, cannot, and the
        # backtracking behind it runs for millions of placements
        tree = trees.random_tree(40, random.Random(1))
        order = tree.max_degree() + 1
        gc = color_host_by_group(tree, order=order, zero=0, proper=True, budget=20_000)
        assert gc.law_holds() and is_proper(gc)
        petersen = [(100 + i, 100 + (i + 1) % 5) for i in range(5)]
        petersen += [(100 + i, 105 + i) for i in range(5)]
        petersen += [(105 + i, 105 + (i + 2) % 5) for i in range(5)]
        host = Graph.build([*tree.vertices, *range(100, 110)], [*tree.edges, *petersen])
        assert host.max_degree() + 1 == order
        with pytest.raises(GroupError, match="budget"):
            color_host_by_group(host, order=order, zero=0, proper=True, budget=20_000)

    @pytest.mark.parametrize("bad", [True, 0, -1, 1.5, 6.0])
    def test_budget_is_a_positive_integer(self, bad):
        with pytest.raises(GroupError, match=f"^budget must be a positive integer, got {bad!r}$"):
            color_host_by_group(Graph.path(3), 3, 0, proper=True, budget=bad)

    def test_budget_counts_every_index_tried(self):
        # P3 by falling degree: vertex 2 takes 0 at the first try, vertex 1
        # takes 1 at the second, vertex 3 takes 2 at the third: six in all
        host = Graph.path(3)
        gc = color_host_by_group(host, 3, 0, proper=True, budget=6)
        assert gc.vertex_index == {2: 0, 1: 1, 3: 2}
        with pytest.raises(GroupError, match="^proper group coloring search ran out of its budget of 5 placements$"):
            color_host_by_group(host, 3, 0, proper=True, budget=5)

    def test_proper_search_is_not_bounded_by_recursion_depth(self):
        host = Graph.path(1200)
        gc = color_host_by_group(host, 5, 0, proper=True)
        assert gc.law_holds() and is_proper(gc)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 9).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.sampled_from(list(itertools.combinations(range(n), 2)))))),
        st.integers(0, 2), st.integers(0, 8))
    def test_proper_coloring_matches_parent_search(self, graph, extra, zero):
        n, edges = graph
        host = Graph.build(range(n), edges)
        order = host.max_degree() + 1 + extra
        zero %= order
        expected = parent_proper_assignment(host, order, zero)
        if expected == "budget":
            return  # both searches cost too much to compare here
        try:
            gc = color_host_by_group(host, order=order, zero=zero, proper=True)
        except GroupError as exc:
            assert expected is None and "no proper group coloring" in str(exc)
        else:
            assert gc.vertex_index == expected
            assert gc.law_holds() and is_proper(gc)


def is_proper(gc):
    """Adjacent vertices and edges sharing an end hold distinct indices."""
    edges = list(gc.edge_index)
    return all(gc.vertex_index[u] != gc.vertex_index[v] for u, v in edges) and all(
        gc.edge_index[e] != gc.edge_index[f] for e, f in itertools.combinations(edges, 2) if set(e) & set(f))


class _OutOfBudget(Exception):
    pass


def parent_proper_assignment(host, order, zero, budget=20_000):
    """The vertex-by-vertex backtracking that checked each placed vertex's
    edges against the edges next to them, kept as an oracle; None if it
    finds nothing, "budget" past ``budget`` placements."""
    verts = sorted(host.vertices, key=lambda v: (-host.degree(v), v))
    assignment = {}
    nodes = 0

    def edge_of(u, v):
        return (assignment[u] + assignment[v] - zero) % order

    def ok(v):
        for w in host.neighbors(v):
            if w not in assignment:
                continue
            if assignment[w] == assignment[v]:
                return False
            e = edge_of(v, w)
            for x in (v, w):
                for y in host.neighbors(x):
                    if y in assignment and {x, y} != {v, w} and edge_of(x, y) == e:
                        return False
        return True

    def place(i):
        nonlocal nodes
        if i == len(verts):
            return True
        v = verts[i]
        for idx in range(order):
            nodes += 1
            if nodes > budget:
                raise _OutOfBudget
            assignment[v] = idx
            if ok(v) and place(i + 1):
                return True
            del assignment[v]
        return False

    try:
        return assignment if place(0) else None
    except _OutOfBudget:
        return "budget"


class TestMultipleJoin:
    def test_single_edge_growth(self):
        net = MultipleJoinNetwork(seed=1)
        net.start(0, (0, 0))
        net.add_vertex(1, [0], (2, 3))
        assert len(net.edges) == 1
        su, ku = net.vertices[1]
        sx, kx = net.vertices[0]
        assert net.edges[(0, 1)] == (su + sx - 2, ku + kx - 3)

    def test_ba_style_growth(self):
        net = MultipleJoinNetwork(seed=7)
        net.start(0, (0, 0))
        net.add_vertex(1, [0], (1, 1))
        for t in range(2, 12):
            attach = [t - 1, t - 2]
            net.add_vertex(t, attach, (t, t))
        assert len(net.edges) == 1 + 10 * 2
        assert net.edge_law_holds()

    def test_replay_reproduces(self):
        net = MultipleJoinNetwork(seed=42)
        net.start(0, (0, 0))
        net.add_vertex(1, [0], (5, 5))
        net.add_vertex(2, [0, 1], (1, 2))
        replayed = replay_join_transcript(net.to_json())
        assert replayed.vertices == net.vertices
        assert replayed.edges == net.edges

    def test_zero_only_affects_its_step(self):
        a = MultipleJoinNetwork(seed=3)
        a.start(0, (0, 0))
        a.add_vertex(1, [0], (1, 1))
        a.add_vertex(2, [1], (2, 2))
        b = MultipleJoinNetwork(seed=3)
        b.start(0, (0, 0))
        b.add_vertex(1, [0], (1, 1))
        b.add_vertex(2, [1], (9, 9))
        assert a.edges[(0, 1)] == b.edges[(0, 1)]
        assert a.edges[(1, 2)] != b.edges[(1, 2)]

    def test_missing_attach_vertex(self):
        net = MultipleJoinNetwork(seed=1)
        net.start(0, (0, 0))
        with pytest.raises(GroupError):
            net.add_vertex(1, [5], (0, 0))


class TestGraphBasedString:
    def leaf(self, a, b, e):
        return ColoredGraph(Graph.path(2), {1: a, 2: b}, {(1, 2): e})

    def test_k2_host(self):
        host = Graph.path(2)
        values = {1: self.leaf(1, 2, 1), 2: self.leaf(3, 4, 1)}
        s = graph_based_string(host, values)
        assert str(s) == "112" + "314"

    def test_p3_host_lengths(self):
        host = Graph.path(3)
        two_edge = ColoredGraph(
            Graph.path(3), {1: 0, 2: 2, 3: 1}, {(1, 2): 2, (2, 3): 1}
        )
        values = {v: two_edge for v in host.vertices}
        s = graph_based_string(host, values)
        assert len(s) == 3 * 6

    def test_level1_perm_permutes_blocks(self):
        host = Graph.path(2)
        values = {1: self.leaf(1, 2, 1), 2: self.leaf(3, 4, 1)}
        forward = str(graph_based_string(host, values))
        swapped = str(graph_based_string(host, values, level1_perm=[1, 0]))
        assert swapped == forward[3:] + forward[:3]

    def test_depth_guard(self):
        host = Graph.path(2)
        deep = ColoredGraph(Graph.path(2), {1: (1, 2), 2: (3, 4)}, {(1, 2): (1, 1)})
        with pytest.raises(GroupError):
            graph_based_string(host, {1: deep, 2: deep})

    def test_boolean_leaf_color_is_no_number(self):
        values = {1: self.leaf(True, 2, 1), 2: self.leaf(3, 4, 1)}
        with pytest.raises(GroupError, match="deeper than numbers"):
            graph_based_string(Graph.path(2), values)
