import itertools
import random
import time

import pytest

from topocode.graphs import (
    ColoredGraph,
    CoincideRule,
    Graph,
    GraphError,
    HomMode,
    UnionFind,
    VertexSplitPlan,
    are_isomorphic,
    bipartite_tree_count,
    cayley_count,
    check_colored_homomorphism,
    count_spanning_trees,
    edge_add_sub,
    edge_join,
    graph_from_json,
    split_complete_even,
    split_complete_odd,
    verify_edge_disjoint_spanning,
    vertex_coincide,
    vertex_split,
)
from topocode.trees import (
    FREE_TREE_COUNTS,
    all_trees,
    canonical_form,
    is_caterpillar,
    iter_trees,
    random_caterpillar,
    random_tree,
)

# Example 1's three colored spanning trees of K_6, with their edge colors.
G_EDGES = {(1, 5): 4, (3, 5): 2, (5, 6): 1, (2, 6): 4, (4, 6): 2}
T_EDGES = {(4, 5): 1, (2, 4): 2, (1, 4): 3, (1, 6): 5, (1, 3): 2}
J_EDGES = {(1, 2): 1, (2, 5): 3, (2, 3): 1, (3, 4): 1, (3, 6): 3}


def colored(edge_map):
    g = Graph.build(range(1, 7), edge_map.keys())
    return ColoredGraph(g, {v: v for v in range(1, 7)}, dict(edge_map))


class TestVertexSplit:
    def test_triangle_split_is_path(self):
        c3 = Graph.cycle(3)
        plan = VertexSplitPlan(1, (frozenset({2}), frozenset({3})))
        out = vertex_split(c3, plan)
        assert out.q == c3.q
        assert out.n == 4
        assert out.is_tree()

    def test_k4_split_preserves_edges(self):
        k4 = Graph.complete(4)
        plan = VertexSplitPlan(1, (frozenset({2}), frozenset({3, 4})))
        out = vertex_split(k4, plan)
        assert out.q == 6
        assert out.n == 5

    def test_split_then_coincide_restores(self):
        k4 = Graph.complete(4)
        plan = VertexSplitPlan(1, (frozenset({2}), frozenset({3, 4})))
        split = vertex_split(k4, plan)
        copies = sorted(set(split.vertices) - set(k4.vertices)) + [1]
        colors = {v: v for v in split.vertices}
        for c in copies:
            colors[c] = 1  # restore: both copies take the original color
        merged = vertex_coincide([ColoredGraph(split, colors)], CoincideRule.BY_COLOR)
        assert are_isomorphic(merged.graph, k4)

    def test_degree_one_target_rejected(self):
        p2 = Graph.path(2)
        with pytest.raises(GraphError):
            vertex_split(p2, VertexSplitPlan(1, (frozenset({2}), frozenset({3}))))

    def test_missing_target_rejected(self):
        with pytest.raises(GraphError):
            vertex_split(Graph.path(3), VertexSplitPlan(9, (frozenset({1}), frozenset({3}))))

    def test_invalid_partition_rejected(self):
        k4 = Graph.complete(4)
        with pytest.raises(GraphError):
            vertex_split(k4, VertexSplitPlan(1, (frozenset({2}), frozenset({3}))))


class TestVertexCoincide:
    def test_example1_k6(self):
        merged = vertex_coincide([colored(G_EDGES), colored(T_EDGES), colored(J_EDGES)])
        assert merged.graph == Graph.complete(6)
        for edges in (G_EDGES, T_EDGES, J_EDGES):
            for e, c in edges.items():
                assert merged.ecolors[e] == c

    def test_single_graph_identity(self):
        g = colored(G_EDGES)
        merged = vertex_coincide([g])
        assert merged.graph == g.graph

    def test_shared_edge_rejected(self):
        tri = ColoredGraph(Graph.cycle(3), {1: 1, 2: 2, 3: 3}, None)
        with pytest.raises(GraphError):
            vertex_coincide([tri, tri])

    def test_disjoint_edge_sets_required(self):
        a = ColoredGraph(Graph.build([1, 2], [(1, 2)]), {1: 1, 2: 2}, None)
        b = ColoredGraph(Graph.build([5, 6], [(5, 6)]), {5: 1, 6: 2}, None)
        with pytest.raises(GraphError):
            vertex_coincide([a, b])

    def test_edge_colors_kept_only_when_every_part_has_them(self):
        bare = ColoredGraph(colored(J_EDGES).graph, {v: v for v in range(1, 7)})
        merged = vertex_coincide([colored(G_EDGES), colored(T_EDGES), bare])
        assert merged.graph == Graph.complete(6)
        assert merged.ecolors is None


class TestEdgeOps:
    def test_edge_join_two_k1(self):
        a = Graph.build([1], [])
        b = Graph.build([2], [])
        assert edge_join(a, 1, b, 2) == Graph.build([1, 2], [(1, 2)])

    def test_p3_add_sub(self):
        p3 = Graph.path(3)
        out = edge_add_sub(p3, add=(1, 3), remove=(1, 2))
        assert out.q == p3.q
        assert are_isomorphic(out, p3)

    def test_c4_add_sub_preserves_q(self):
        c4 = Graph.cycle(4)
        out = edge_add_sub(c4, add=(1, 3), remove=(1, 2))
        assert out.q == 4

    def test_bad_preconditions(self):
        c4 = Graph.cycle(4)
        with pytest.raises(GraphError):
            edge_add_sub(c4, add=(1, 2), remove=(2, 3))
        with pytest.raises(GraphError):
            edge_add_sub(c4, add=(1, 3), remove=(2, 4))


class TestCompleteSplits:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 40])
    def test_even_split(self, m):
        trees = split_complete_even(m)
        host = Graph.complete(2 * m)
        assert len(trees) == m
        assert all(t.q == 2 * m - 1 for t in trees)
        assert all(t.is_tree() for t in trees)
        assert verify_edge_disjoint_spanning(host, trees)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_odd_split(self, m):
        star, trees = split_complete_odd(m)
        host = Graph.complete(2 * m + 1)
        assert star.q == m
        assert len(trees) == m
        assert all(t.q == 2 * m for t in trees)
        assert all(t.is_tree() for t in trees)
        assert verify_edge_disjoint_spanning(host, list(trees) + [star])

    def test_disconnected_part_is_no_spanning_tree(self):
        # a triangle has the 3 edges of a spanning tree of K4 but misses vertex 4
        triangle = Graph.build(range(1, 4), [(1, 2), (1, 3), (2, 3)])
        star = Graph.build(range(1, 5), [(1, 4), (2, 4), (3, 4)])
        assert verify_edge_disjoint_spanning(Graph.complete(4), [triangle, star]) is False

    def test_m3_matches_edge_budget(self):
        trees = split_complete_even(3)
        assert sum(t.q for t in trees) == 15


class TestSpanningTreeCounts:
    def test_k4(self):
        closed, enumerated = count_spanning_trees("complete", 4)
        assert closed == enumerated == 16

    def test_k6(self):
        closed, enumerated = count_spanning_trees("complete", 6)
        assert closed == enumerated == 1296

    def test_k23(self):
        closed, enumerated = count_spanning_trees("bipartite", 2, 3)
        assert closed == enumerated == 12

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 30])
    def test_cayley_range(self, n):
        closed, enumerated = count_spanning_trees("complete", n)
        assert closed == cayley_count(n) == enumerated

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 7) for n in range(1, 7) if m + n <= 8] + [(10, 12)])
    def test_bipartite_range(self, m, n):
        closed, enumerated = count_spanning_trees("bipartite", m, n)
        assert closed == bipartite_tree_count(m, n) == enumerated


class TestHomomorphism:
    def test_identity_on_proper_c5(self):
        c5 = Graph.cycle(5)
        colored_c5 = ColoredGraph(c5, {1: 1, 2: 2, 3: 1, 4: 2, 5: 3}, None)
        phi = {v: v for v in c5.vertices}
        assert check_colored_homomorphism(colored_c5, colored_c5, phi, HomMode.V)

    def test_c6_folds_to_c3(self):
        c6 = Graph.cycle(6)
        c3 = Graph.cycle(3)
        lifted = ColoredGraph(c6, {1: 1, 2: 2, 3: 3, 4: 1, 5: 2, 6: 3}, None)
        base = ColoredGraph(c3, {1: 1, 2: 2, 3: 3}, None)
        phi = {1: 1, 2: 2, 3: 3, 4: 1, 5: 2, 6: 3}
        assert check_colored_homomorphism(lifted, base, phi, HomMode.V)

    def test_collapsed_edge_fails(self):
        k2 = ColoredGraph(Graph.path(2), {1: 1, 2: 2}, None)
        assert not check_colored_homomorphism(k2, k2, {1: 1, 2: 1}, HomMode.V)

    def test_search_mode(self):
        c6 = Graph.cycle(6)
        c3 = Graph.cycle(3)
        lifted = ColoredGraph(c6, {1: 1, 2: 2, 3: 3, 4: 1, 5: 2, 6: 3}, None)
        base = ColoredGraph(c3, {1: 1, 2: 2, 3: 3}, None)
        assert check_colored_homomorphism(lifted, base, None, HomMode.V)

    def test_partial_mapping_rejected(self):
        k2 = ColoredGraph(Graph.path(2), {1: 1, 2: 2}, None)
        with pytest.raises(GraphError):
            check_colored_homomorphism(k2, k2, {1: 1}, HomMode.V)

    @pytest.mark.parametrize("mode", list(HomMode))
    def test_image_outside_g_rejected(self, mode):
        h = ColoredGraph(Graph.path(1), {1: 1}, {})
        g = ColoredGraph(Graph.path(2), {1: 1, 2: 2}, {(1, 2): 1})
        with pytest.raises(GraphError, match="vertex 1 to 99"):
            check_colored_homomorphism(h, g, {1: 99}, mode)

    @pytest.mark.parametrize("mode", [HomMode.V, HomMode.VE])
    @pytest.mark.parametrize("mapping", [None, {1: 1, 2: 2}])
    def test_vertex_modes_need_vertex_colors(self, mode, mapping):
        colored = ColoredGraph(Graph.path(2), {1: 1, 2: 2}, {(1, 2): 1})
        bare = ColoredGraph(Graph.path(2), {}, {(1, 2): 1})
        for h, g in ((bare, colored), (colored, bare)):
            with pytest.raises(GraphError, match="^vertex-colored homomorphism needs vertex colors$"):
                check_colored_homomorphism(h, g, mapping, mode)

    def test_search_past_eight_vertices_stops_at_the_first_vertex(self):
        # no vertex of K10 has a color of P7, so the search ends before it
        # tries an image; the product over 10^7 maps took about half a minute
        p7 = ColoredGraph(Graph.path(7), {v: v % 2 for v in range(1, 8)})
        k10 = ColoredGraph(Graph.complete(10), {v: 2 + v for v in range(1, 11)})
        start = time.perf_counter()
        assert not check_colored_homomorphism(p7, k10, None, HomMode.V)
        assert time.perf_counter() - start < 1.0

    def test_odd_cycle_into_bipartite_runs_out_of_budget(self):
        # C7 has no homomorphism into a bipartite graph, and every color-
        # compatible map of the path 1..6 is a dead end only at vertex 7
        c7 = ColoredGraph(Graph.cycle(7), dict(zip(range(1, 8), [1, 2, 1, 2, 1, 2, 3])))
        k = Graph.complete_bipartite(12, 12)
        g = ColoredGraph(k, {v: 1 if v <= 12 else 2 if v < 24 else 3 for v in k.vertices})
        with pytest.raises(GraphError, match="budget"):
            check_colored_homomorphism(c7, g, None, HomMode.V)


class TestDegrees:
    def test_max_degree_matches_degree_on_random_graphs(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randrange(30)
            pairs = list(itertools.combinations(range(n), 2))
            g = Graph.build(range(n), rng.sample(pairs, rng.randrange(len(pairs) + 1)))
            assert g.max_degree() == max((g.degree(u) for u in g.vertices), default=0)


class TestIsomorphism:
    def test_relabeled_cycle_past_ten_vertices(self):
        assert are_isomorphic(Graph.cycle(12), Graph.cycle(12, first=5))

    def test_cycle_with_shuffled_ids(self):
        # mapped in id order, consecutive vertices of this cycle share no
        # edge, so no partial map prunes and the budget runs out after seconds
        ids = dict(zip(range(1, 25), random.Random(24).sample(range(100, 124), 24)))
        shuffled = Graph.build(ids.values(), ((ids[u], ids[v]) for u, v in Graph.cycle(24).edges))
        start = time.perf_counter()
        assert are_isomorphic(shuffled, Graph.cycle(24))
        assert time.perf_counter() - start < 1.0

    def test_equal_degrees_one_switch_apart(self):
        # one edge switch of K_{2,3}: 1-4 and 2-5 become 1-2 and 4-5.  The
        # twins 1 and 2 of K_{2,3} can share an image under a map that keeps
        # every edge and non-edge, so only a one-to-one map tells them apart
        k23 = Graph.complete_bipartite(2, 3)
        switched = Graph.build(k23.vertices, k23.edges - {(1, 4), (2, 5)} | {(1, 2), (4, 5)})
        assert sorted(map(len, switched.adjacency().values())) == sorted(map(len, k23.adjacency().values()))
        assert not are_isomorphic(k23, switched)

    def test_cycle_against_two_hexagons(self):
        two_c6 = Graph.build(range(12), [(i, i // 6 * 6 + (i + 1) % 6) for i in range(12)])
        assert two_c6.q == 12 and not two_c6.is_connected()
        assert not are_isomorphic(Graph.cycle(12), two_c6)


class TestTrees:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_tree_counts(self, n):
        assert len(all_trees(n)) == FREE_TREE_COUNTS[n - 1]

    def test_no_trees_below_one_vertex(self):
        with pytest.raises(ValueError):
            all_trees(0)
        with pytest.raises(ValueError):
            iter_trees(-1)

    def test_lazy(self):
        # there are about 1.5e10 free trees on 30 vertices, so this only
        # returns if the first tree comes without the rest
        tree = next(iter_trees(30))
        assert tree.n == 30 and tree.is_tree()

    def test_all_are_trees(self):
        for t in all_trees(7):
            assert t.is_tree()

    def test_canonical_form_invariant_under_relabeling(self):
        import random

        rng = random.Random(7)
        # the long path and the large tree are deeper than the default recursion limit
        for t in [random_tree(7, rng) for _ in range(20)] + [Graph.path(3000), random_tree(2000, rng)]:
            perm = list(t.vertices)
            rng.shuffle(perm)
            relabel = dict(zip(t.vertices, perm))
            t2 = Graph.build(perm, [(relabel[u], relabel[v]) for u, v in t.edges])
            assert canonical_form(t) == canonical_form(t2)
        assert len(canonical_form(Graph.path(3000))) == 6000  # one pair of parentheses per vertex

    def test_random_tree_is_tree(self):
        import random

        rng = random.Random(3)
        for n in range(2, 12):
            assert random_tree(n, rng).is_tree()

    def test_random_caterpillar(self):
        import random

        rng = random.Random(11)
        for q in range(1, 12):
            cat = random_caterpillar(q, rng)
            assert cat.q == q
            assert is_caterpillar(cat)


class TestSerialization:
    def test_json_roundtrip(self):
        g = Graph.cycle(4)
        assert graph_from_json(g.to_json()) == g

    def test_dot_export(self):
        g = Graph.path(3)
        dot = g.to_dot(vcolors={1: 0, 2: 1, 3: 2}, ecolors={(1, 2): 9, (2, 3): 8})
        assert "1 -- 2" in dot and 'label="9"' in dot


class TestExplicitCoincide:
    def test_merge_two_edges_into_path(self):
        from topocode.graphs import CoincideRule, vertex_coincide

        a = ColoredGraph(Graph.path(2), {1: "a", 2: "b"}, None)
        b = ColoredGraph(Graph.path(2), {1: "c", 2: "d"}, None)
        merged = vertex_coincide(
            [a, b], CoincideRule.EXPLICIT, pairs=[((0, 2), (1, 1))]
        )
        assert merged.graph.q == 2
        assert merged.graph.is_tree()

    def test_explicit_keeps_edge_colors_like_by_color(self):
        # K2 on {1, 2} and the path 1-3-2 meet at 1 and at 2: a triangle
        k2 = ColoredGraph(Graph.build([1, 2], [(1, 2)]), {1: 1, 2: 2}, {(1, 2): 3})
        path = ColoredGraph(Graph.build([1, 2, 3], [(1, 3), (2, 3)]), {1: 1, 2: 2, 3: 4}, {(1, 3): 5, (2, 3): 6})
        by_color = vertex_coincide([k2, path])
        assert by_color.graph.vertices == (1, 2, 3)
        assert by_color.ecolors == {(1, 2): 3, (1, 3): 5, (2, 3): 6}
        pairs = [((0, 1), (1, 1)), ((0, 2), (1, 2))]
        explicit = vertex_coincide([k2, path], CoincideRule.EXPLICIT, pairs=pairs)
        # K2 spans union numbers 0-1, the path 2-4; its 1 and 2 merge into 0 and 1
        assert explicit.graph.vertices == (0, 1, 4)
        assert explicit.vcolors == {0: 1, 1: 2, 4: 4}
        assert explicit.ecolors == {(0, 1): 3, (0, 4): 5, (1, 4): 6}
        bare = ColoredGraph(path.graph, path.vcolors)
        assert vertex_coincide([k2, bare], CoincideRule.EXPLICIT, pairs=pairs).ecolors is None

    def test_explicit_merge_keeps_smallest_numbered_color(self):
        # K2 vertex 1 (union 0, color 1) merges with path vertex 1 (union 2, color 7)
        k2 = ColoredGraph(Graph.build([1, 2], [(1, 2)]), {1: 1, 2: 2})
        path = ColoredGraph(Graph.build([1, 2, 3], [(1, 3), (2, 3)]), {1: 7, 2: 2, 3: 4})
        pairs = [((0, 1), (1, 1)), ((0, 2), (1, 2))]
        merged = vertex_coincide([k2, path], CoincideRule.EXPLICIT, pairs=pairs)
        assert merged.vcolors == {0: 1, 1: 2, 4: 4}
        # the other way round, the path's vertex is the smaller number
        swapped = [((1, 1), (0, 1)), ((1, 2), (0, 2))]
        merged = vertex_coincide([path, k2], CoincideRule.EXPLICIT, pairs=swapped)
        assert merged.vcolors == {0: 7, 1: 2, 2: 4}

    def test_explicit_needs_pairs(self):
        from topocode.graphs import CoincideRule, vertex_coincide

        a = ColoredGraph(Graph.path(2), {1: "a", 2: "b"}, None)
        with pytest.raises(GraphError):
            vertex_coincide([a], CoincideRule.EXPLICIT)

    def test_explicit_pair_naming_a_missing_vertex_rejected(self):
        # part 0 spans union numbers 0-1, so its "vertex 3" would be part 1's vertex 1
        a = ColoredGraph(Graph.path(2), {1: "a", 2: "b"})
        with pytest.raises(GraphError, match="no vertex 3 of part 0"):
            vertex_coincide([a, a], CoincideRule.EXPLICIT, pairs=[((0, 3), (1, 1))])

    def test_explicit_pair_naming_a_missing_part_rejected(self):
        a = ColoredGraph(Graph.path(2), {1: "a", 2: "b"})
        with pytest.raises(GraphError, match="of part 2"):
            vertex_coincide([a, a], CoincideRule.EXPLICIT, pairs=[((2, 1), (1, 1))])


class TestByColorIds:
    def test_two_colors_on_one_smallest_id_rejected(self):
        # 'a' and 'c' both have 1 as their smallest id; 'a' used to be lost
        k2 = ColoredGraph(Graph.path(2), {1: "a", 2: "b"})
        edge = ColoredGraph(Graph.build([1, 3], [(1, 3)]), {1: "c", 3: "d"})
        with pytest.raises(GraphError, match="colors a and c would both be vertex 1"):
            vertex_coincide([k2, edge])

    def test_disjoint_colors_on_shared_ids_rejected_not_a_multi_edge(self):
        a = ColoredGraph(Graph.path(2), {1: 5, 2: 6})
        b = ColoredGraph(Graph.path(2), {1: 7, 2: 8})
        with pytest.raises(GraphError, match="would both be vertex"):
            vertex_coincide([a, b])

    def test_loop_named_by_merged_vertex(self):
        a = ColoredGraph(Graph.path(3), {1: 1, 2: 1, 3: 3})
        with pytest.raises(GraphError, match="loop at vertex 1"):
            vertex_coincide([a])
