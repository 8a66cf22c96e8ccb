import random
import time

import pytest

from topocode.graphs import ColoredGraph, Graph
from topocode.labelings import (
    ConstraintSpec,
    Family,
    IndexedColor,
    IndexedOp,
    KLEIN_ADD_TABLE,
    KLEIN_MUL_TABLE,
    LabelingError,
    PairingKind,
    SearchStatus,
    check_pairing,
    compose_string_coloring,
    construct_witness,
    indexed_op,
    lift_from_set_ordered_graceful,
    magic_transform,
    rainbow_set_labeling,
    search,
    twin_shift,
    verify,
    verify_rainbow,
    verify_string_coloring,
)
from topocode.trees import all_trees, random_caterpillar


def example1_g():
    edges = {(1, 5): 4, (3, 5): 2, (5, 6): 1, (2, 6): 4, (4, 6): 2}
    g = Graph.build(range(1, 7), edges.keys())
    return ColoredGraph(g, {v: v for v in range(1, 7)}, edges)


def magic_star():
    # center 1, edges i+1, leaves 8-i: every sum is 10
    g = Graph.star(6, center=0)
    vcolors = {0: 1}
    ecolors = {}
    for i in range(1, 7):
        vcolors[i] = 8 - i
        ecolors[(0, i)] = i + 1
    return ColoredGraph(g, vcolors, ecolors)


class TestVerify:
    def test_example1_constraint_vs_labeling(self):
        cg = example1_g()
        assert verify(cg, ConstraintSpec(Family.GRACEFUL)).verdict
        report = verify(cg, ConstraintSpec(Family.GRACEFUL, labeling=True))
        assert not report.verdict
        assert any(clause == "edge-set" for clause, _ in report.violations)

    def test_magic_star(self):
        report = verify(magic_star(), ConstraintSpec(Family.EDGE_MAGIC))
        assert report.verdict
        assert report.magic_constant == 10

    def test_magic_star_with_declared_constant(self):
        assert verify(magic_star(), ConstraintSpec(Family.EDGE_MAGIC, magic_constant=10)).verdict
        assert not verify(magic_star(), ConstraintSpec(Family.EDGE_MAGIC, magic_constant=11)).verdict

    def test_p4_graceful_labeling(self):
        g = Graph.path(4)
        cg = ColoredGraph(g, {1: 0, 2: 3, 3: 1, 4: 2}, None)
        assert verify(cg, ConstraintSpec(Family.GRACEFUL, labeling=True)).verdict

    def test_p4_brute_force_oracle(self):
        # independent enumeration: count graceful labelings of P_4 and check
        # verify agrees with the direct clause evaluation on each
        import itertools

        g = Graph.path(4)
        hits = 0
        for values in itertools.permutations(range(4)):
            cg = ColoredGraph(g, dict(zip(g.vertices, values)), None)
            edge_vals = sorted(abs(values[i] - values[i + 1]) for i in range(3))
            direct = edge_vals == [1, 2, 3] and min(values) == 0
            assert verify(cg, ConstraintSpec(Family.GRACEFUL, labeling=True)).verdict == direct
            hits += direct
        assert hits > 0

    def test_set_ordered_flag(self):
        g = Graph.path(3)
        cg = ColoredGraph(g, {1: 0, 2: 2, 3: 1}, None)
        assert verify(cg, ConstraintSpec(Family.GRACEFUL, set_ordered=True, labeling=True)).verdict
        # colors 0/5 in one class straddle the other class's 2
        bad = ColoredGraph(g, {1: 0, 2: 2, 3: 5}, None)
        report = verify(bad, ConstraintSpec(Family.GRACEFUL, set_ordered=True))
        assert not report.verdict
        assert any(clause == "C-6" for clause, _ in report.violations)

    def test_kd_orientation_found_without_a_declared_side(self):
        # X = {2} holds 2 in {0, 2, ..}, Y = {1, 3} holds 1 and 5 in {1, 3, ..};
        # Y holds the smaller minimum color, so only the second orientation fits
        cg = ColoredGraph(Graph.path(3), {1: 1, 2: 2, 3: 5}, None)
        spec = ConstraintSpec.parse("graceful;k=1;d=2")
        report = verify(cg, spec)
        assert report.verdict, report.violations
        assert report.bipartition == (frozenset({2}), frozenset({1, 3}))
        assert verify(cg, spec, x_side=[2]).verdict
        declared = verify(cg, spec, x_side=[1, 3])
        assert not declared.verdict
        assert {clause for clause, _ in declared.violations} == {"range-X", "range-YE"}

    def test_proper_flag(self):
        cg = magic_star()
        assert verify(cg, ConstraintSpec(Family.EDGE_MAGIC, proper=True)).verdict

    def test_spec_text_roundtrip(self):
        spec = ConstraintSpec(Family.GRACEFUL, set_ordered=True, k=1, d=2, labeling=True)
        assert spec.to_text() == "graceful;set-ordered;labeling;k=1;d=2"
        assert ConstraintSpec.parse(spec.to_text()) == spec

    def test_pseudo_drops_only_the_edge_set_clause(self):
        # P_3 colored 0, 1, 0: edge colors 1, 1 miss the graceful set {1, 2},
        # and the vertex colors repeat
        spec = ConstraintSpec.parse("graceful;labeling;pseudo")
        assert spec == ConstraintSpec(Family.GRACEFUL, labeling=True, pseudo=True)
        assert spec.to_text() == "graceful;labeling;pseudo"
        assert ConstraintSpec.parse(spec.to_text()) == spec
        cg = ColoredGraph(Graph.path(3), {1: 0, 2: 1, 3: 0})
        clauses = lambda spec: [clause for clause, _ in verify(cg, spec).violations]
        assert clauses(ConstraintSpec.parse("graceful;labeling")) == ["edge-set", "C-1"]
        assert clauses(spec) == ["C-1"]

    def test_strongly_flag(self):
        # P_4 with the perfect matching {1-2, 3-4}; graceful labels 0,3,1,2
        g = Graph.path(4)
        cg = ColoredGraph(g, {1: 0, 2: 3, 3: 1, 4: 2}, None)
        assert verify(cg, ConstraintSpec(Family.GRACEFUL, labeling=True, strongly=True)).verdict

    def test_strongly_on_p2000_searches_without_recursion(self):
        # the P_4 labeling above, grown: vertices 2i+1 and 2i+2 take i and
        # q - i, so each of the 1000 matched pairs sums to q
        n = 2000
        g = Graph.path(n)
        colors = {v: (v - 1) // 2 if v % 2 else n - 1 - (v - 1) // 2 for v in g.vertices}
        report = verify(ColoredGraph(g, colors), ConstraintSpec(Family.GRACEFUL, labeling=True, strongly=True))
        assert report.verdict, report.violations

    def test_strongly_on_k20_reads_the_target_sum_edges_only(self):
        # K_20 has 19!! (about 6.5e8) perfect matchings; with q = 190 as the
        # target, i and 21 - i pair up through colors i and 190 - i
        g = Graph.complete(20)
        colors = {i: i for i in range(1, 11)} | {21 - i: 190 - i for i in range(1, 11)}
        spec = ConstraintSpec(Family.GRACEFUL, strongly=True)
        clauses = lambda cg: [clause for clause, _ in verify(cg, spec).violations]
        assert "C-7/C-8" not in clauses(ColoredGraph(g, colors))
        assert "C-7/C-8" in clauses(ColoredGraph(g, colors | {20: 191}))

    @pytest.mark.parametrize("n", [10, 20])
    def test_strongly_on_unequal_partner_classes_fails_at_once(self, n):
        # K_2n with n - 1 vertices colored 1 and n + 1 colored q - 1: the
        # target-sum edges form K_{n-1,n+1}, one even component without a
        # perfect matching, since the two partner classes differ in size
        g = Graph.complete(2 * n)
        cg = ColoredGraph(g, {v: 1 if v < n else g.q - 1 for v in g.vertices})
        start = time.perf_counter()
        report = verify(cg, ConstraintSpec(Family.GRACEFUL, strongly=True))
        assert time.perf_counter() - start < 1.0
        assert ("C-7/C-8", f"no perfect matching with pair sums {g.q}") in report.violations

    def test_strongly_on_k20_with_repeated_colors_fails_by_component_order(self):
        # vertices 1-19 colored 95 make the target-sum edges a K_19 of odd
        # order, and vertex 20 (191) has none: no pairing of 1-19 is tried
        g = Graph.complete(20)
        cg = ColoredGraph(g, dict.fromkeys(range(1, 20), 95) | {20: 191})
        start = time.perf_counter()
        report = verify(cg, ConstraintSpec(Family.GRACEFUL, strongly=True))
        assert time.perf_counter() - start < 1.0
        assert ("C-7/C-8", "no perfect matching with pair sums 190") in report.violations


class TestSearch:
    def test_k2_graceful(self):
        result = search(Graph.path(2), ConstraintSpec(Family.GRACEFUL, labeling=True))
        assert result.status is SearchStatus.FOUND
        colors = sorted(result.coloring.vcolors.values())
        assert colors == [0, 1]

    def test_all_trees_up_to_7_graceful(self):
        for n in range(2, 8):
            for tree in all_trees(n):
                result = search(tree, ConstraintSpec(Family.GRACEFUL, labeling=True))
                assert result.status is SearchStatus.FOUND
                assert verify(result.coloring, ConstraintSpec(Family.GRACEFUL, labeling=True)).verdict

    def test_c5_odd_graceful_none(self):
        result = search(Graph.cycle(5), ConstraintSpec(Family.ODD_GRACEFUL, labeling=True))
        assert result.status is SearchStatus.NONE_EXHAUSTED

    def test_budget_exhaustion_reported(self):
        result = search(Graph.cycle(6), ConstraintSpec(Family.GRACEFUL, labeling=True), budget=10)
        assert result.status is SearchStatus.BUDGET_EXHAUSTED

    def test_search_verify_fuzz(self):
        rng = random.Random(20)
        specs = [
            ConstraintSpec(Family.GRACEFUL, labeling=True),
            ConstraintSpec(Family.ODD_GRACEFUL, labeling=True),
            ConstraintSpec(Family.HARMONIOUS),
            ConstraintSpec(Family.ODD_ELEGANT),
            ConstraintSpec(Family.EDGE_MAGIC, magic_constant=12),
            ConstraintSpec(Family.EDGE_DIFFERENCE, magic_constant=9),
            ConstraintSpec(Family.GRACEFUL_DIFFERENCE, magic_constant=1),
            ConstraintSpec(Family.FELICITOUS_DIFFERENCE, magic_constant=0),
        ]
        from topocode.trees import random_tree

        for spec in specs:
            for _ in range(4):
                tree = random_tree(rng.randint(3, 7), rng)
                result = search(tree, spec, budget=400_000)
                if result.coloring is not None:
                    assert verify(result.coloring, spec).verdict

    def test_max_edges_guard(self):
        with pytest.raises(LabelingError):
            search(Graph.complete(8), ConstraintSpec(Family.GRACEFUL))

    def test_k5_graceful_none(self):
        result = search(Graph.complete(5), ConstraintSpec(Family.GRACEFUL, labeling=True))
        assert result.status is SearchStatus.NONE_EXHAUSTED

    def test_set_ordered_caterpillar_within_default_budget(self):
        # the 4th caterpillar of random_caterpillar(12, Random(12)), which the
        # vertex-order search could not finish within 2 M nodes
        edges = [(0, 1), (0, 4), (0, 5), (0, 7), (0, 8), (1, 2), (1, 3), (1, 11), (2, 6), (2, 9), (2, 10), (2, 12)]
        g = Graph.build(range(13), edges)
        spec = ConstraintSpec(Family.GRACEFUL, set_ordered=True, labeling=True)
        result = search(g, spec)
        assert result.status is SearchStatus.FOUND
        assert verify(result.coloring, spec).verdict

    def test_edge_difference_without_constant(self):
        # every constant below the first feasible one fails at its first value
        spec = ConstraintSpec.parse("edge-difference;labeling")
        result = search(Graph.path(8, first=0), spec)
        assert result.status is SearchStatus.FOUND
        assert verify(result.coloring, spec).verdict

    def test_same_call_same_witness(self):
        g = Graph.build(range(10), [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6), (5, 7), (7, 8), (7, 9)])
        spec = ConstraintSpec(Family.GRACEFUL, labeling=True)
        first, second = search(g, spec), search(g, spec)
        assert first.status is SearchStatus.FOUND
        assert first.coloring == second.coloring
        assert (first.nodes, first.restarts) == (second.nodes, second.restarts)

    def test_twenty_vertex_random_trees(self):
        from topocode.trees import random_tree

        rng = random.Random(2020)
        spec = ConstraintSpec(Family.GRACEFUL, labeling=True)
        for _ in range(20):
            result = search(random_tree(20, rng), spec)
            assert result.status is SearchStatus.FOUND
            assert verify(result.coloring, spec).verdict

    def test_unreachable_modular_values_end_at_once(self):
        # harmonious values are k + (s - k) mod q*d, at most k + q*d - 1; the
        # odd-edge set k + (2i - 1)d runs past that from q >= 1
        spec = ConstraintSpec.parse("harmonious;odd-edge;labeling")
        for n in (5, 7):
            result = search(Graph.path(n), spec, budget=200_000)
            assert (result.status, result.nodes, result.restarts) == (SearchStatus.NONE_EXHAUSTED, 0, 0)

    def test_restarts_counted(self):
        # C_6 has no graceful labeling; proving it takes attempts beyond the first
        result = search(Graph.cycle(6), ConstraintSpec(Family.GRACEFUL, labeling=True))
        assert result.status is SearchStatus.NONE_EXHAUSTED
        assert result.restarts > 0


class TestLifts:
    def p4_set_ordered(self):
        g = Graph.path(4)
        return ColoredGraph(g, {1: 0, 2: 3, 3: 1, 4: 2}, None)

    @pytest.mark.parametrize(
        "family",
        [
            Family.GRACEFUL,
            Family.EDGE_MAGIC,
            Family.EDGE_DIFFERENCE,
            Family.GRACEFUL_DIFFERENCE,
            Family.FELICITOUS_DIFFERENCE,
        ],
    )
    @pytest.mark.parametrize("kd", [(1, 1), (2, 3), (0, 2)])
    def test_lift_passes_verify(self, family, kd):
        k, d = kd
        lifted, constant = lift_from_set_ordered_graceful(self.p4_set_ordered(), family, k, d)
        spec = ConstraintSpec(family, k=k, d=d, magic_constant=constant)
        report = verify(lifted, spec)
        assert report.verdict, report.violations
        if constant is not None:
            assert report.magic_constant == constant

    def test_lift_constants(self):
        cg = self.p4_set_ordered()
        q = cg.graph.q
        _, c_em = lift_from_set_ordered_graceful(cg, Family.EDGE_MAGIC, 1, 1)
        assert c_em == 2 + (q - 1)
        _, c_ed = lift_from_set_ordered_graceful(cg, Family.EDGE_DIFFERENCE, 1, 1)
        assert c_ed == 2 + q
        _, c_gd = lift_from_set_ordered_graceful(cg, Family.GRACEFUL_DIFFERENCE, 1, 1)
        assert c_gd == 1
        _, c_fd = lift_from_set_ordered_graceful(cg, Family.FELICITOUS_DIFFERENCE, 1, 1)
        assert c_fd == 0

    def test_translation_shifts_edge_magic_constant(self):
        lifted, constant = lift_from_set_ordered_graceful(self.p4_set_ordered(), Family.EDGE_MAGIC)
        beta = 5
        shifted = ColoredGraph(
            lifted.graph,
            {v: c + beta for v, c in lifted.vcolors.items()},
            dict(lifted.ecolors),
        )
        report = verify(shifted, ConstraintSpec(Family.EDGE_MAGIC))
        assert report.verdict
        assert report.magic_constant == constant + 2 * beta

    def test_translation_preserves_graceful_difference(self):
        lifted, constant = lift_from_set_ordered_graceful(
            self.p4_set_ordered(), Family.GRACEFUL_DIFFERENCE
        )
        beta = 4
        shifted = ColoredGraph(
            lifted.graph,
            {v: c + beta for v, c in lifted.vcolors.items()},
            dict(lifted.ecolors),
        )
        report = verify(shifted, ConstraintSpec(Family.GRACEFUL_DIFFERENCE))
        assert report.verdict and report.magic_constant == constant


class TestMagicTransform:
    def test_star_edge_magic_to_edge_difference(self):
        report = magic_transform(magic_star(), Family.EDGE_MAGIC, Family.EDGE_DIFFERENCE)
        assert report.verdict
        assert report.source_constant == 10
        # X = {center} with f = 1, so the set-ordered closed form is {10 - 2}
        assert report.derived_set == (8,)
        assert report.closed_form_set == (8,)

    def test_felicitous_to_edge_magic(self):
        lifted, c = lift_from_set_ordered_graceful(
            ColoredGraph(Graph.path(4), {1: 0, 2: 3, 3: 1, 4: 2}, None),
            Family.FELICITOUS_DIFFERENCE,
        )
        report = magic_transform(lifted, Family.FELICITOUS_DIFFERENCE, Family.EDGE_MAGIC)
        assert report.verdict
        for (u, v), value in report.derived_values.items():
            assert value == lifted.vcolor(u) + lifted.vcolor(v) + lifted.ecolor(u, v)

    def test_constant_zero_graceful_difference(self):
        lifted, c = lift_from_set_ordered_graceful(
            ColoredGraph(Graph.path(4), {1: 0, 2: 3, 3: 1, 4: 2}, None),
            Family.FELICITOUS_DIFFERENCE,
        )
        assert c == 0
        report = magic_transform(lifted, Family.FELICITOUS_DIFFERENCE, Family.EDGE_DIFFERENCE)
        assert report.verdict

    def test_all_pairs_on_lifted_trees(self):
        cg = ColoredGraph(Graph.path(4), {1: 0, 2: 3, 3: 1, 4: 2}, None)
        magic = [
            Family.EDGE_MAGIC,
            Family.EDGE_DIFFERENCE,
            Family.GRACEFUL_DIFFERENCE,
            Family.FELICITOUS_DIFFERENCE,
        ]
        for src in magic:
            lifted, _ = lift_from_set_ordered_graceful(cg, src)
            for dst in magic:
                assert magic_transform(lifted, src, dst).verdict

    def test_non_magic_rejected(self):
        with pytest.raises(LabelingError):
            magic_transform(magic_star(), Family.GRACEFUL, Family.EDGE_MAGIC)


class TestWitnesses:
    def test_m10_edge_magic_star(self):
        w = construct_witness(10, Family.EDGE_MAGIC)
        report = verify(w, ConstraintSpec(Family.EDGE_MAGIC, proper=True))
        assert report.verdict and report.magic_constant == 10
        assert w.graph.max_degree() <= 6  # m - 4

    def test_m5_edge_magic(self):
        w = construct_witness(5, Family.EDGE_MAGIC)
        report = verify(w, ConstraintSpec(Family.EDGE_MAGIC, proper=True))
        assert report.verdict and report.magic_constant == 5

    def test_m6_edge_difference(self):
        w = construct_witness(6, Family.EDGE_DIFFERENCE)
        report = verify(w, ConstraintSpec(Family.EDGE_DIFFERENCE, proper=True))
        assert report.verdict and report.magic_constant == 6

    @pytest.mark.parametrize("family", [Family.EDGE_MAGIC, Family.EDGE_DIFFERENCE,
                                        Family.FELICITOUS_DIFFERENCE, Family.GRACEFUL_DIFFERENCE])
    @pytest.mark.parametrize("m", [5, 6, 7, 8, 11, 16])
    def test_witness_range(self, family, m):
        w = construct_witness(m, family)
        report = verify(w, ConstraintSpec(family, proper=True))
        assert report.verdict and report.magic_constant == m
        assert w.graph.is_connected()

    def test_graceful_difference_low_constants(self):
        for m in (0, 1, 2):
            w = construct_witness(m, Family.GRACEFUL_DIFFERENCE)
            report = verify(w, ConstraintSpec(Family.GRACEFUL_DIFFERENCE, proper=True))
            assert report.verdict and report.magic_constant == m

    def test_below_floor_rejected(self):
        with pytest.raises(LabelingError):
            construct_witness(4, Family.EDGE_MAGIC)

    def test_abc_holds_on_edge_magic_star(self):
        # f(x) + f(y) + f(xy) is the magic sum on every edge
        report = verify(construct_witness(9, Family.EDGE_MAGIC), ConstraintSpec.parse("edge-magic;c=9;abc=1,1,1"))
        assert report.verdict, report.violations
        assert report.bipartition == (frozenset({0}), frozenset({1, 2, 3, 4}))

    def test_abc_fails_in_both_orientations(self):
        # f(x) + 2f(y) + f(xy) is not constant with either class as X; the
        # report keeps the first, whose X holds the least color
        cg, spec = example1_g(), ConstraintSpec(Family.GRACEFUL, abc=(1, 2, 1))
        x_first, x_second = frozenset({1, 3, 6}), frozenset({2, 4, 5})
        report = verify(cg, spec)
        assert report.bipartition == (x_first, x_second)
        assert report.violations == [
            ("abc", f"edge {e}: abc value {value} != 15") for e, value in (((2, 6), 14), ((4, 6), 16), ((5, 6), 17))
        ]
        assert [clause for clause, _ in verify(cg, spec, x_side=x_second).violations] == ["abc"] * 4

    def test_abc_needs_a_bipartite_graph(self):
        triangle = ColoredGraph(Graph.cycle(3), {1: 0, 2: 1, 3: 3}, None)
        report = verify(triangle, ConstraintSpec(Family.GRACEFUL, abc=(1, 1, 1)))
        assert report.violations == [("abc", "abc-linear check needs a bipartite graph")]


class TestTwin:
    def p3_odd_graceful(self):
        g = Graph.path(3)
        return ColoredGraph(g, {1: 0, 2: 3, 3: 2}, {(1, 2): 3, (2, 3): 1})

    def test_p3_shift(self):
        shifted = twin_shift(self.p3_odd_graceful())
        assert [shifted.vcolor(v) for v in (1, 2, 3)] == [1, 4, 3]
        overlap = {0, 3, 2} & {1, 4, 3}
        assert overlap == {3}

    def test_single_edge(self):
        g = Graph.path(2)
        cg = ColoredGraph(g, {1: 0, 2: 1}, {(1, 2): 1})
        shifted = twin_shift(cg)
        assert [shifted.vcolor(v) for v in (1, 2)] == [1, 2]

    def test_twin_pairing_clauses(self):
        cg = self.p3_odd_graceful()
        shifted = twin_shift(cg)
        report = check_pairing(cg, shifted, PairingKind.TWIN)
        assert report.verdict
        assert report.magic_constant <= 1  # overlap size

    def test_searched_trees_twin(self):
        for n in range(2, 7):
            for tree in all_trees(n):
                result = search(
                    tree, ConstraintSpec(Family.ODD_GRACEFUL, set_ordered=True, labeling=True)
                )
                if result.coloring is None:
                    continue
                shifted = twin_shift(result.coloring)
                report = check_pairing(result.coloring, shifted, PairingKind.TWIN)
                assert report.verdict and report.magic_constant <= 1

    def test_rejects_non_set_ordered(self):
        # odd-graceful on P_4 but the classes {2,0} and {5,1} interleave
        g = Graph.path(4)
        bad = ColoredGraph(
            g, {1: 2, 2: 5, 3: 0, 4: 1}, {(1, 2): 3, (2, 3): 5, (3, 4): 1}
        )
        assert verify(bad, ConstraintSpec(Family.ODD_GRACEFUL, labeling=True)).verdict
        with pytest.raises(LabelingError):
            twin_shift(bad)

    def test_rejects_non_odd_graceful(self):
        g = Graph.path(3)
        bad = ColoredGraph(g, {1: 0, 2: 1, 3: 2}, {(1, 2): 1, (2, 3): 1})
        with pytest.raises(LabelingError):
            twin_shift(bad)


def _p3(vcolors, ecolors, first=1):
    """P3 on first..first+2, colors listed in vertex order, edge colors in edge order."""
    g = Graph.path(3, first)
    return ColoredGraph(g, dict(zip(g.vertices, vcolors)), dict(zip(g.sorted_edges(), ecolors)))


# odd-graceful on P3 and its +1 shift, a twin pair; the odd-edge edge-magic
# labeling of P3 with constant 7 (k=0, d=1) under TWIN_SPEC, and a copy whose
# second edge sums to 8
ODD_P3, SHIFTED_P3 = _p3((0, 3, 2), (3, 1)), _p3((1, 4, 3), (3, 1))
TWIN_SPEC = ConstraintSpec(Family.EDGE_MAGIC, odd_edge=True, k=0, d=1, magic_constant=7)
MAGIC_P3, OFF_MAGIC_P3 = _p3((0, 4, 2), (3, 1)), _p3((0, 4, 3), (3, 1))
DISJOINT_EDGES = ColoredGraph(
    Graph.build(range(1, 5), [(1, 2), (3, 4)]), {1: 0, 2: 3, 3: 0, 4: 1}, {(1, 2): 3, (3, 4): 1}
)


def _fails(a, b, kind, clause, name=None, **options):
    return pytest.param(a, b, kind, options, clause, id=name or clause)


TWIN = PairingKind.TWIN
PAIRING_FAILURES = [
    _fails(ODD_P3, ColoredGraph(Graph.path(2), {1: 0, 2: 1}, {(1, 2): 1}), TWIN, "twin-size"),
    _fails(SHIFTED_P3, SHIFTED_P3, TWIN, "twin-first"),
    _fails(ODD_P3, _p3((1, 4, 3), (1, 3)), TWIN, "twin-rule"),
    _fails(ODD_P3, DISJOINT_EDGES, TWIN, "twin-injective"),
    _fails(ODD_P3, _p3((0, 1, 2), (1, 1)), TWIN, "twin-edges"),
    _fails(ODD_P3, _p3((2, 5, 4), (3, 1)), TWIN, "twin-span"),
    _fails(OFF_MAGIC_P3, MAGIC_P3, TWIN, "twin-first", "twin-first-spec", twin_spec=TWIN_SPEC),
    _fails(MAGIC_P3, OFF_MAGIC_P3, TWIN, "twin-second", "twin-second-spec", twin_spec=TWIN_SPEC),
    _fails(ODD_P3, _p3((0, 3, 2), (3, 1), first=2), PairingKind.V_IMAGE, "image-domain", "image-domain-v", constant=2),
    _fails(ODD_P3, _p3((0, 3, 2), (3, 1), first=2), PairingKind.E_IMAGE, "image-domain", "image-domain-e", constant=4),
    _fails(ODD_P3, ODD_P3, PairingKind.V_IMAGE, "v-image", constant=4),
    _fails(ODD_P3, ODD_P3, PairingKind.E_IMAGE, "e-image", constant=5),
    _fails(ODD_P3, ODD_P3, PairingKind.SET_DUAL, "set-dual", constant=4),
    _fails(ODD_P3, SHIFTED_P3, PairingKind.EDGE_SEPARABLE, "edge-separable"),
    _fails(ODD_P3, _p3((0, 1, 2), (1, 1)), PairingKind.EDGE_UNIFORM, "edge-uniform"),
]


class TestPairings:
    @pytest.mark.parametrize("a, b, kind, options, clause", PAIRING_FAILURES)
    def test_each_clause_fails_alone(self, a, b, kind, options, clause):
        report = check_pairing(a, b, kind, **options)
        assert not report.verdict
        assert {failed for failed, _ in report.violations} == {clause}

    def test_v_image_by_reflection(self):
        g = Graph.path(4)
        f = ColoredGraph(g, {1: 0, 2: 3, 3: 1, 4: 2}, None)
        p = g.n
        mirror = ColoredGraph(g, {v: (p - 1) - f.vcolor(v) for v in g.vertices}, None)
        assert verify(mirror, ConstraintSpec(Family.GRACEFUL, labeling=True)).verdict
        report = check_pairing(f, mirror, PairingKind.V_IMAGE, constant=p - 1)
        assert report.verdict

    def test_set_dual_identity(self):
        g = Graph.path(2)
        a = ColoredGraph(g, {1: 2, 2: 2}, None)
        report = check_pairing(a, a, PairingKind.SET_DUAL, constant=4)
        assert report.verdict

    def test_e_image(self):
        g = Graph.path(3)
        a = ColoredGraph(g, {1: 0, 2: 2, 3: 1}, {(1, 2): 2, (2, 3): 1})
        b = ColoredGraph(g, {1: 0, 2: 1, 3: 0}, {(1, 2): 1, (2, 3): 2})
        assert check_pairing(a, b, PairingKind.E_IMAGE, constant=3).verdict

    def test_edge_separable_and_uniform(self):
        g1 = ColoredGraph(Graph.path(2), {1: 0, 2: 1}, {(1, 2): 1})
        g2 = ColoredGraph(Graph.path(2), {1: 0, 2: 3}, {(1, 2): 3})
        assert check_pairing(g1, g2, PairingKind.EDGE_SEPARABLE).verdict
        assert not check_pairing(g1, g2, PairingKind.EDGE_UNIFORM).verdict
        assert check_pairing(g1, g1, PairingKind.EDGE_UNIFORM).verdict


class TestIndexedOps:
    def test_plain_ops(self):
        assert indexed_op(IndexedColor(2, 3), IndexedColor(3, 4), IndexedOp.ADD) == IndexedColor(5, 7)
        assert indexed_op(IndexedColor(2, 3), IndexedColor(3, 4), IndexedOp.MUL) == IndexedColor(6, 12)
        assert indexed_op(IndexedColor(2, 3), IndexedColor(3, 4), IndexedOp.SUB) == IndexedColor(1, 1)

    def test_klein_known_products(self):
        out = indexed_op(IndexedColor(2, 5), IndexedColor(3, 7), IndexedOp.KLEIN_ADD)
        assert out == IndexedColor(4, 12)
        out = indexed_op(IndexedColor(3, 5), IndexedColor(4, 7), IndexedOp.KLEIN_MUL)
        assert out == IndexedColor(2, 35)

    def test_klein_add_table_structure(self):
        # 1 is the group zero; every element is self-inverse
        for r in range(4):
            assert KLEIN_ADD_TABLE[0][r] == r + 1
            assert KLEIN_ADD_TABLE[r][r] == 1
            for s in range(4):
                assert KLEIN_ADD_TABLE[r][s] == KLEIN_ADD_TABLE[s][r]

    def test_klein_mul_table_structure(self):
        # 1 is absorbing (the field zero), 2 the multiplicative identity
        for r in range(4):
            assert KLEIN_MUL_TABLE[0][r] == 1
            assert KLEIN_MUL_TABLE[1][r] == r + 1
        # distributivity of x over + on the nonzero part
        for a in range(1, 5):
            for b in range(1, 5):
                for c in range(1, 5):
                    left = KLEIN_MUL_TABLE[a - 1][KLEIN_ADD_TABLE[b - 1][c - 1] - 1]
                    right = KLEIN_ADD_TABLE[
                        KLEIN_MUL_TABLE[a - 1][b - 1] - 1
                    ][KLEIN_MUL_TABLE[a - 1][c - 1] - 1]
                    assert left == right

    def test_klein_range_check(self):
        with pytest.raises(LabelingError):
            indexed_op(IndexedColor(5, 0), IndexedColor(1, 0), IndexedOp.KLEIN_ADD)


class TestComposition:
    def p4_components(self):
        g = Graph.path(4)
        f1 = ColoredGraph(g, {1: 0, 2: 3, 3: 1, 4: 2}, None)
        f2 = ColoredGraph(g, {1: 2, 2: 1, 3: 3, 4: 0}, None)
        spec = ConstraintSpec(Family.GRACEFUL, labeling=True)
        return g, [(f1, spec), (f2, spec)]

    def test_two_graceful_components(self):
        # no graceful labeling of P_4 is proper total, so the whole-string
        # distinctness clauses are waived; both positions must verify
        g, comps = self.p4_components()
        out = compose_string_coloring(g, comps)
        report = verify_string_coloring(out, [spec for _, spec in comps])
        assert report.verdict, report.violations
        assert not report.proper_total

    def test_proper_component_enforces_distinctness(self):
        g = Graph.path(3)
        graceful = ColoredGraph(g, {1: 0, 2: 2, 3: 1}, None)
        # vertex colors 5,1,8 induce edge colors 4,7: a proper total coloring
        proper = ColoredGraph(g, {1: 5, 2: 1, 3: 8}, None)
        comps = [
            (graceful, ConstraintSpec(Family.GRACEFUL, labeling=True)),
            (proper, ConstraintSpec(Family.GRACEFUL, proper=True)),
        ]
        out = compose_string_coloring(g, comps)
        report = verify_string_coloring(out, [spec for _, spec in comps])
        assert report.proper_total
        assert report.verdict, report.violations

    def test_single_component_identity(self):
        g, comps = self.p4_components()
        out = compose_string_coloring(g, comps[:1])
        assert all(out.vcolor(v) == (comps[0][0].vcolor(v),) for v in g.vertices)

    def test_order_changes_strings(self):
        g, comps = self.p4_components()
        a = compose_string_coloring(g, comps)
        b = compose_string_coloring(g, list(reversed(comps)))
        assert any(a.vcolor(v) != b.vcolor(v) for v in g.vertices)

    def test_permutations_distinct_for_three(self):
        import itertools

        g = Graph.path(4)
        f1 = ColoredGraph(g, {1: 0, 2: 3, 3: 1, 4: 2}, None)
        f2 = ColoredGraph(g, {1: 2, 2: 1, 3: 3, 4: 0}, None)
        f3 = ColoredGraph(g, {1: 3, 2: 0, 3: 2, 4: 1}, None)
        spec = ConstraintSpec(Family.GRACEFUL, labeling=True)
        comps = [(f1, spec), (f2, spec), (f3, spec)]
        seen = set()
        for perm in itertools.permutations(comps):
            out = compose_string_coloring(g, list(perm))
            seen.add(tuple(out.vcolor(v) for v in g.vertices))
        assert len(seen) == 6

    def test_empty_rejected(self):
        with pytest.raises(LabelingError):
            compose_string_coloring(Graph.path(2), [])


class TestRainbow:
    def test_k2(self):
        lab = rainbow_set_labeling(Graph.path(2))
        assert sorted(len(s) for s in lab.vsets.values()) == [1, 2]
        assert list(lab.esets.values())[0] == frozenset({1})

    def test_p3(self):
        g = Graph.path(3)
        lab = rainbow_set_labeling(g)
        assert verify_rainbow(g, lab)
        assert sorted(len(s) for s in lab.vsets.values()) == [1, 2, 3]

    def test_thirteen_edge_tree(self):
        rng = random.Random(9)
        tree = random_caterpillar(13, rng)
        lab = rainbow_set_labeling(tree)
        assert verify_rainbow(tree, lab)

    def test_all_small_trees(self):
        for n in range(2, 8):
            for tree in all_trees(n):
                assert verify_rainbow(tree, rainbow_set_labeling(tree))

    def test_non_tree_rejected(self):
        with pytest.raises(LabelingError):
            rainbow_set_labeling(Graph.cycle(4))


class TestOddEdgeTwin:
    def test_odd_edge_edge_magic_twin(self):
        # from a set-ordered odd-graceful labeling g (X below Y, odd edges),
        # F(x)=g(x), F(y)=M-g(y), F(uv)=g(uv) is odd-edge edge-magic with
        # constant M
        g = Graph.path(3)
        base = ColoredGraph(g, {1: 0, 2: 3, 3: 2}, {(1, 2): 3, (2, 3): 1})
        q = g.q
        m = 2 * q + 3  # keeps Y colors within the twin span [0, 2q]
        xs = {1, 3}
        vcolors = {v: base.vcolor(v) if v in xs else m - base.vcolor(v) for v in g.vertices}
        ecolors = dict(base.ecolors)
        fm = ColoredGraph(g, vcolors, ecolors)
        spec = ConstraintSpec(Family.EDGE_MAGIC, odd_edge=True, k=0, d=1, magic_constant=m)
        assert verify(fm, spec).verdict
        report = check_pairing(fm, fm, PairingKind.TWIN, twin_spec=spec)
        assert report.verdict, report.violations


class TestStringRules:
    def test_gcd_rule(self):
        from topocode.labelings import StringRule, verify_string_rules

        g = Graph.path(2)
        cg = ColoredGraph(g, {1: (6, 4), 2: (9, 10)}, {(1, 2): (3, 2)})
        assert verify_string_rules(cg, StringRule.GCD).verdict
        bad = ColoredGraph(g, {1: (6, 4), 2: (9, 10)}, {(1, 2): (3, 5)})
        assert not verify_string_rules(bad, StringRule.GCD).verdict

    def test_prime_sum_and_product(self):
        from topocode.labelings import StringRule, verify_string_rules

        g = Graph.path(2)
        cg = ColoredGraph(g, {1: (3, 5), 2: (7, 2)}, {(1, 2): (10, 10)})
        assert verify_string_rules(cg, {0: StringRule.PRIME_SUM, 1: StringRule.PRIME_PRODUCT}).verdict
        not_prime = ColoredGraph(g, {1: (4, 5), 2: (7, 2)}, {(1, 2): (11, 10)})
        assert not verify_string_rules(not_prime, {0: StringRule.PRIME_SUM}).verdict

    def test_anti_equitable(self):
        from topocode.labelings import StringRule, verify_string_rules

        g = Graph.path(2)
        ok = ColoredGraph(g, {1: (1, 2), 2: (3, 4)}, {(1, 2): (5, 6)})
        assert verify_string_rules(ok, StringRule.ANTI_EQUITABLE).verdict
        bad = ColoredGraph(g, {1: (1, 2), 2: (3, 4)}, {(1, 2): (5, 5)})
        assert not verify_string_rules(bad, StringRule.ANTI_EQUITABLE).verdict

    def test_position_past_the_color_tuples_is_a_labeling_error(self):
        from topocode.labelings import StringRule, verify_string_rules

        cg = ColoredGraph(Graph.path(2), {1: (6, 4), 2: (9, 10)}, {(1, 2): (3, 2)})
        with pytest.raises(LabelingError, match=r"edge \(1, 2\) pos 5 lies outside its color tuples"):
            verify_string_rules(cg, {5: StringRule.GCD})

    def test_non_tuple_color_is_a_labeling_error(self):
        from topocode.labelings import StringRule, verify_string_rules

        g = Graph.path(2)
        ints = ColoredGraph(g, {1: 6, 2: 9}, {(1, 2): (3,)})
        with pytest.raises(LabelingError, match=r"vertex 1 of edge \(1, 2\) has color 6, not a tuple"):
            verify_string_rules(ints, {0: StringRule.GCD})
        int_edge = ColoredGraph(g, {1: (6,), 2: (9,)}, {(1, 2): 3})
        with pytest.raises(LabelingError, match=r"edge \(1, 2\) has color 3, not a tuple"):
            verify_string_rules(int_edge, StringRule.GCD)

    def test_anti_equitable_at_two_positions_reports_each_edge_once(self):
        from topocode.labelings import StringRule, verify_string_rules

        g = Graph.path(3)
        cg = ColoredGraph(g, {1: (1, 2, 3), 2: (3, 4, 5), 3: (6, 7, 8)}, {(1, 2): (5, 5, 1), (2, 3): (2, 9, 2)})
        rules = {0: StringRule.ANTI_EQUITABLE, 2: StringRule.ANTI_EQUITABLE}
        assert verify_string_rules(cg, rules).violations == [
            ("anti-equitable", "edge (1, 2) repeats a position value"),
            ("anti-equitable", "edge (2, 3) repeats a position value"),
        ]
