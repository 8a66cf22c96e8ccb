"""Independent brute-force oracles cross-checking the engineered paths."""

import itertools
import json
import math
import random
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topocode.graphs import (
    CoincideRule,
    ColoredGraph,
    Graph,
    GraphError,
    HomMode,
    UnionFind,
    _matrix_tree_count,
    _norm_edge,
    are_isomorphic,
    check_colored_homomorphism,
    graph_from_json,
    vertex_coincide,
)
from topocode.groups import CompoundStringGroup, build_graphic_group, graphic_group_op
from topocode.labelings import (
    MAGIC_FAMILIES,
    ConstraintSpec,
    Family,
    LabelingError,
    SearchResult,
    SearchStatus,
    _LUBY_UNIT,
    _SHUFFLE_SEED,
    _domain_variants,
    construct_witness,
    lift_from_set_ordered_graceful,
    magic_transform,
    search,
    verify,
    verify_string_coloring,
)
from topocode.protocols import KeySource, authenticate, gen_keypair
from topocode.strings import MOD9, DigitRing, DigitString, StringError, StringGroup, build_shift_group, law_closed
from topocode.topcode import (
    ParamTopcode,
    PermIndex,
    PronbsCandidate,
    TopcodeError,
    TopcodeMatrix,
    _cell_text,
    _perm_rank,
    _perm_unrank,
    pronbs_solve,
    string_from_topcode,
)
from topocode.trees import all_trees, canonical_form, iter_trees


def brute_force_graceful(g, set_ordered=False):
    """Enumerate all injective labelings into [0, q] directly."""
    q = g.q
    verts = list(g.vertices)
    for values in itertools.permutations(range(q + 1), len(verts)):
        f = dict(zip(verts, values))
        edge_vals = sorted(abs(f[u] - f[v]) for u, v in g.edges)
        if edge_vals != list(range(1, q + 1)):
            continue
        if min(values) != 0:
            continue
        if set_ordered:
            sides = g.bipartition()
            a, b = sides
            amax, bmax = max(f[v] for v in a), max(f[v] for v in b)
            amin, bmin = min(f[v] for v in a), min(f[v] for v in b)
            if not (amax < bmin or bmax < amin):
                continue
        return f
    return None


def grown_free_trees(n_max):
    """Every free tree on 1..n_max vertices, keyed by size and then by
    canonical form: each tree on n - 1 vertices grown by a leaf at every
    vertex, deduplicated by canonical form."""
    single = Graph.build([0], [])
    by_size = {1: {canonical_form(single): single}}
    for n in range(2, n_max + 1):
        grown = {}
        for tree in by_size[n - 1].values():
            for attach in tree.vertices:
                g = Graph.build(list(tree.vertices) + [n - 1], list(tree.edges) + [(attach, n - 1)])
                grown.setdefault(canonical_form(g), g)
        by_size[n] = grown
    return by_size


def test_iter_trees_agrees_with_grow_and_dedupe():
    for n, oracle in grown_free_trees(12).items():
        forms = [canonical_form(tree) for tree in iter_trees(n)]
        assert len(set(forms)) == len(forms), n  # no tree comes twice
        assert set(forms) == set(oracle), n


def test_search_agrees_with_brute_force_graceful():
    spec = ConstraintSpec(Family.GRACEFUL, labeling=True)
    for n in range(2, 7):
        for tree in all_trees(n):
            oracle = brute_force_graceful(tree)
            result = search(tree, spec)
            assert (result.status is SearchStatus.FOUND) == (oracle is not None)


def test_search_agrees_with_brute_force_set_ordered():
    spec = ConstraintSpec(Family.GRACEFUL, set_ordered=True, labeling=True)
    for n in range(2, 8):
        for tree in all_trees(n):
            oracle = brute_force_graceful(tree, set_ordered=True)
            result = search(tree, spec, budget=3_000_000)
            assert result.status is not SearchStatus.BUDGET_EXHAUSTED
            assert (result.status is SearchStatus.FOUND) == (oracle is not None), n


def test_c5_odd_graceful_brute_force():
    # independent confirmation that C_5 admits no odd-graceful labeling
    c5 = Graph.cycle(5)
    q = 5
    found = False
    for values in itertools.permutations(range(2 * q), 5):
        f = dict(zip(c5.vertices, values))
        if min(values) != 0:
            continue
        edge_vals = sorted(abs(f[u] - f[v]) for u, v in c5.edges)
        if edge_vals == [1, 3, 5, 7, 9]:
            found = True
            break
    assert not found
    result = search(c5, ConstraintSpec(Family.ODD_GRACEFUL, labeling=True))
    assert result.status is SearchStatus.NONE_EXHAUSTED


def test_pronbs_covers_enumerated_sources():
    # enumerate every graceful-constraint base with q <= 2 and colors <= 3,
    # generate its string, and demand the solver returns it
    sources = []
    for q in (1, 2):
        for xs in itertools.product(range(4), repeat=q):
            for ys in itertools.product(range(4), repeat=q):
                es = tuple(abs(y - x) for x, y in zip(xs, ys))
                if any(e < 1 for e in es):
                    continue
                edges = {tuple(sorted((x, y))) for x, y in zip(xs, ys)}
                if len(edges) != q:
                    continue
                sources.append(TopcodeMatrix(xs, es, ys))
    assert sources
    for base in sources[::7]:  # sample deterministically for speed
        for k, d in ((0, 1), (2, 1), (1, 2)):
            s = string_from_topcode(ParamTopcode(base).evaluate(k, d))
            candidates = pronbs_solve(s, max_q=2, max_color=3, k_range=(0, 1, 2), d_range=(1, 2))
            assert any(
                c.base.rows() == base.rows() and (c.k, c.d) == (k, d) for c in candidates
            ), (base.rows(), k, d)


# --- PRONBS against the split-then-check enumeration -------------------------


def oracle_segmentations(text, pieces):
    """All splits into the given number of nonempty segments without leading
    zeros (a lone '0' segment is allowed)."""
    if pieces == 1:
        if text and (len(text) == 1 or text[0] != "0"):
            yield (text,)
        return
    for cut in range(1, len(text) - pieces + 2):
        head = text[:cut]
        if len(head) > 1 and head[0] == "0":
            break
        for rest in oracle_segmentations(text[cut:], pieces - 1):
            yield (head,) + rest


def oracle_candidate(xs, es, ys, k, d, max_color, layout):
    """Invert the split cells arithmetically: X cells are d*b, E and Y cells
    k + d*b; keep a base within max_color that is graceful on a simple graph."""
    if any(v % d for v in xs) or any(v < k or (v - k) % d for v in es + ys):
        return None
    base_x = [v // d for v in xs]
    base_e, base_y = [(v - k) // d for v in es], [(v - k) // d for v in ys]
    if any(v > max_color for v in base_x + base_e + base_y):
        return None
    if any(abs(y - x) != e or e < 1 for x, e, y in zip(base_x, base_e, base_y)):
        return None
    edges = {(min(x, y), max(x, y)) for x, y in zip(base_x, base_y)}
    if len(edges) < len(xs):
        return None
    graph = Graph.build(set(base_x) | set(base_y), edges)
    base = TopcodeMatrix(tuple(base_x), tuple(base_e), tuple(base_y))
    return PronbsCandidate(graph, base, k, d, layout, max(base_x) < min(base_y))


def oracle_pronbs(s, max_q, max_color, k_range, d_range):
    """PRONBS by search: every split of s into 3q cells, read in each layout
    and inverted under each (k, d)."""
    text = str(s)
    found = {}
    for q in range(1, max_q + 1):
        for seg in oracle_segmentations(text, 3 * q):
            values = [int(p) for p in seg]
            for layout in ("row-major", "column-major"):
                if layout == "row-major":
                    rows = values[:q], values[q : 2 * q], values[2 * q :]
                else:
                    rows = values[0::3], values[1::3], values[2::3]
                for k in k_range:
                    for d in d_range:
                        cand = oracle_candidate(*rows, k, d, max_color, layout)
                        if cand is not None and cand.regenerate() == s:
                            found.setdefault((cand.base.rows(), k, d, layout), cand)
    return sorted(found.values(), key=lambda c: (c.base.q, c.k, c.d, c.layout, c.base.rows()))


@st.composite
def graceful_bases(draw, max_q=4, max_color=6, simple=True):
    """A base obeying the graceful constraint: up to max_q color pairs,
    distinct when simple, each put in the X and Y rows either way round."""
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(max_color + 1), 2))),
                          min_size=1, max_size=max_q, unique=simple))
    columns = [(x, y) if draw(st.booleans()) else (y, x) for x, y in pairs]
    return TopcodeMatrix(*(tuple(row) for row in zip(*((x, abs(y - x), y) for x, y in columns))))


def layout_perm(layout, q):
    return None if layout == "row-major" else PermIndex.column_major(q)


@st.composite
def pronbs_inputs(draw):
    """A random digit string of up to 12 digits, or the string of a graceful
    base (on a multigraph, at times) under some (k, d) and layout, with
    random solver bounds that half the time reach the source; k may be
    negative and both ranges may repeat values."""
    max_q, max_color = draw(st.integers(1, 5)), draw(st.integers(-1, 9))
    k_range, d_range = draw(st.lists(st.integers(-1, 4), max_size=4)), draw(st.lists(st.integers(1, 3), max_size=3))
    if draw(st.booleans()):
        return DigitString.parse(draw(st.text("0123456789", min_size=1, max_size=12))), max_q, max_color, k_range, d_range
    base, k, d = draw(graceful_bases(simple=False)), draw(st.integers(0, 3)), draw(st.integers(1, 2))
    layout = draw(st.sampled_from(("row-major", "column-major")))
    s = string_from_topcode(ParamTopcode(base).evaluate(k, d), layout_perm(layout, base.q))
    if draw(st.booleans()):
        max_q, max_color, k_range, d_range = max(max_q, base.q), max(max_color, 6), k_range + [k], d_range + [d]
    return s, max_q, max_color, k_range, d_range


@settings(max_examples=40, deadline=None)
@given(pronbs_inputs())
def test_pronbs_matches_split_then_check_oracle(args):
    assert pronbs_solve(*args) == oracle_pronbs(*args)


@settings(max_examples=40, deadline=None)
@given(pronbs_inputs(), st.booleans())
@example((DigitString.parse("135244214255666"), 5, 6, [0, 1], [1]), False)
def test_pronbs_never_regenerates(args, mod9):
    # every reading spells s cell by cell, so the solver has nothing to regenerate
    if mod9:
        args = (DigitString.parse(str(args[0]), MOD9),) + args[1:]

    def no_regenerate(self):
        raise AssertionError("pronbs_solve regenerated a candidate")

    with patch.object(PronbsCandidate, "regenerate", no_regenerate):
        found = pronbs_solve(*args)
    assert found == oracle_pronbs(*args)


@settings(max_examples=100, deadline=None)
@given(graceful_bases(), st.integers(0, 3), st.integers(1, 2), st.sampled_from(("row-major", "column-major")))
def test_topcode_string_pronbs_round_trip(base, k, d, layout):
    s = string_from_topcode(ParamTopcode(base).evaluate(k, d), layout_perm(layout, base.q))
    candidates = pronbs_solve(s, max_q=4, max_color=6, k_range=range(4), d_range=(1, 2))
    assert any(c.base == base and (c.k, c.d, c.layout) == (k, d, layout) for c in candidates)
    assert all(c.regenerate() == s for c in candidates)


# --- Topcode strings against the per-cell derivation -------------------------


def oracle_string_from_topcode(t, perm=None):
    """Each cell's text in reading order, joined, then the range-checking
    DigitString constructor."""
    cells = list(t.x_row) + list(t.e_row) + list(t.y_row)
    if perm is not None:
        if len(perm.sequence) != len(cells):
            raise TopcodeError(f"permutation over {len(perm.sequence)} cells, expected {len(cells)}")
        cells = [cells[i] for i in perm.sequence]
    text = "".join(_cell_text(c) for c in cells)
    if not (text.isascii() and text.isdigit()):
        raise StringError(f"not a digit string: {text!r}")
    return DigitString(tuple(int(ch) for ch in text))


def derivation_outcome(derive, t, perm):
    try:
        return derive(t, perm)
    except (TopcodeError, StringError) as e:
        return type(e), str(e)


GOOD_CELLS = st.one_of(
    st.integers(0, 10**6),
    st.text("0123456789", min_size=1, max_size=4).map(DigitString.parse),
    st.lists(st.integers(0, 12), max_size=3).map(tuple),
)
# negative ints, str and bool cells, nested matrices, and negative tuple items
BAD_CELLS = st.one_of(
    st.integers(-10**6, -1),
    st.sampled_from(["7", True, False, TopcodeMatrix((1,), (1,), (2,)), (1, -2)]),
)


@st.composite
def topcode_readings(draw):
    """A 3 x q matrix of mostly digit-form cells (now and then one that has
    none), read row-major, column-major, by a rank, by a drawn sequence, or
    by a permutation of the wrong length."""
    q = draw(st.integers(1, 8))
    cells = draw(st.lists(GOOD_CELLS, min_size=3 * q, max_size=3 * q))
    if draw(st.integers(0, 3)) == 0:
        cells[draw(st.integers(0, 3 * q - 1))] = draw(BAD_CELLS)
    t = TopcodeMatrix(tuple(cells[:q]), tuple(cells[q : 2 * q]), tuple(cells[2 * q :]))
    kind = draw(st.sampled_from(("none", "column_major", "from_rank", "from_sequence", "wrong_length")))
    if kind == "column_major":
        return t, PermIndex.column_major(q)
    if kind == "from_rank":
        return t, PermIndex.from_rank(draw(st.integers(0, math.factorial(3 * q) - 1)), 3 * q)
    if kind == "from_sequence":
        return t, PermIndex.from_sequence(draw(st.permutations(range(3 * q))))
    if kind == "wrong_length":
        n = draw(st.integers(1, 3 * q + 3).filter(lambda n: n != 3 * q))
        return t, PermIndex.from_sequence(draw(st.permutations(range(n))))
    return t, None


@settings(max_examples=300, deadline=None)
@given(topcode_readings())
@example((TopcodeMatrix((True,), (2,), (3,)), None))
@example((TopcodeMatrix(((),), ((),), ((),)), None))
def test_string_from_topcode_matches_per_cell_oracle(reading):
    t, perm = reading
    assert derivation_outcome(string_from_topcode, t, perm) == derivation_outcome(oracle_string_from_topcode, t, perm)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(-2, 9), st.sampled_from([0.0, 1.0, 1.5, -0.5])), max_size=10)
       | st.integers(0, 10).flatmap(lambda n: st.permutations(range(n))))
@example([[0]])
@example([[1], [0]])
@example([1.0, 0])
@example([True, 0])
def test_perm_index_rejects_what_sorting_rejects(seq):
    # duplicates, gaps, negatives and floats other than whole numbers
    if sorted(seq) == list(range(len(seq))):
        assert PermIndex(tuple(seq)).sequence == tuple(seq)
    else:
        with pytest.raises(TopcodeError, match="^not a permutation$"):
            PermIndex(tuple(seq))


def test_verify_magic_constant_against_direct_evaluation():
    # the verifier's inferred constant equals a direct per-edge evaluation
    g = Graph.star(4, center=0)
    vcolors = {0: 1, 1: 6, 2: 5, 3: 4, 4: 3}
    ecolors = {(0, i): 10 - 1 - vcolors[i] for i in range(1, 5)}
    cg = ColoredGraph(g, vcolors, ecolors)
    report = verify(cg, ConstraintSpec(Family.EDGE_MAGIC))
    direct = {vcolors[0] + vcolors[i] + ecolors[(0, i)] for i in range(1, 5)}
    assert report.verdict and direct == {report.magic_constant}


def test_search_finds_lifted_magic_instances():
    # strip a lifted coloring and ask search to find any coloring at the
    # same constant; the backtracker must succeed within budget
    from topocode.labelings import lift_from_set_ordered_graceful

    base = ColoredGraph(Graph.path(4), {1: 0, 2: 3, 3: 1, 4: 2}, None)
    for family in (
        Family.EDGE_MAGIC,
        Family.EDGE_DIFFERENCE,
        Family.GRACEFUL_DIFFERENCE,
        Family.FELICITOUS_DIFFERENCE,
    ):
        lifted, constant = lift_from_set_ordered_graceful(base, family, 1, 1)
        spec = ConstraintSpec(family, k=1, d=1, magic_constant=constant)
        result = search(lifted.graph, spec, budget=2_000_000)
        assert result.status is SearchStatus.FOUND, family
        assert verify(result.coloring, spec).verdict


def test_verify_with_declared_bipartition():
    g = Graph.path(4)
    cg = ColoredGraph(g, {1: 0, 2: 3, 3: 1, 4: 2}, None)
    spec = ConstraintSpec(Family.GRACEFUL, set_ordered=True, labeling=True)
    auto = verify(cg, spec)
    declared = verify(cg, spec, x_side={1, 3})
    assert auto.verdict and declared.verdict
    assert declared.bipartition[0] == frozenset({1, 3})


def test_search_timeout_reports_budget():
    import time

    result = search(
        Graph.cycle(6),
        ConstraintSpec(Family.GRACEFUL, labeling=True),
        budget=10**9,
        timeout=0.0,
    )
    assert result.status is SearchStatus.BUDGET_EXHAUSTED


# --- search against a brute-force enumeration on random small graphs -------

_ORACLE_FAMILIES = (Family.GRACEFUL, Family.ODD_GRACEFUL, Family.HARMONIOUS, Family.ODD_ELEGANT)


@st.composite
def small_connected_graphs(draw):
    """A random recursive tree on up to 6 vertices plus up to three random
    chords (none, or only tree edges, leave the tree)."""
    n = draw(st.integers(2, 6))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    edges |= draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2))), max_size=3))
    return Graph.build(range(n), edges)


def brute_force_labeling(g, family, set_ordered=False):
    """Whether some labeling of g meets the classical definition, found by
    enumerating every injective vertex labeling over the family's range and
    dropping a branch once two placed edges repeat or miss the value set."""
    q = g.q
    top, required = {
        Family.GRACEFUL: (q, range(1, q + 1)),
        Family.ODD_GRACEFUL: (2 * q - 1, range(1, 2 * q, 2)),
        Family.HARMONIOUS: (2 * q - 1, range(1, q + 1)),
        Family.ODD_ELEGANT: (2 * q - 1, range(1, 2 * q, 2)),
    }[family]
    required = set(required)

    def value(a, b):
        if family is Family.HARMONIOUS:
            return 1 + (a + b - 1) % q
        if family is Family.ODD_ELEGANT:
            return (a + b) % (2 * q)
        return abs(a - b)

    verts = list(g.vertices)
    f = {}

    def complete():
        if family in (Family.GRACEFUL, Family.ODD_GRACEFUL) and min(f.values()) != 0:
            return False
        if not set_ordered:
            return True
        a, b = g.bipartition()
        return max(f[v] for v in a) < min(f[v] for v in b) or max(f[v] for v in b) < min(f[v] for v in a)

    def extend(i, used_values):
        if i == len(verts):
            return complete()
        v = verts[i]
        for x in range(top + 1):
            if x in f.values():
                continue
            values = [value(x, f[w]) for w in verts[:i] if g.has_edge(v, w)]
            if len(set(values)) != len(values) or not set(values) <= required - used_values:
                continue
            f[v] = x
            if extend(i + 1, used_values | set(values)):
                return True
            del f[v]
        return False

    if set_ordered and g.bipartition() is None:
        return False
    return extend(0, set())


def _check_against_brute_force(g, spec):
    result = search(g, spec)
    expected = brute_force_labeling(g, spec.family, spec.set_ordered)
    assert (result.status is SearchStatus.FOUND) == expected, (sorted(g.edges), result.status)
    if result.coloring is not None:
        assert verify(result.coloring, spec).verdict


@settings(max_examples=100, deadline=None)
@given(small_connected_graphs(), st.sampled_from(_ORACLE_FAMILIES))
def test_search_matches_brute_force_on_small_connected_graphs(g, family):
    _check_against_brute_force(g, ConstraintSpec(family, labeling=True))


@settings(max_examples=60, deadline=None)
@given(small_connected_graphs(), st.sampled_from((Family.GRACEFUL, Family.ODD_GRACEFUL)))
def test_set_ordered_search_matches_brute_force(g, family):
    if g.bipartition() is None:
        return  # set-ordered search needs a connected bipartite graph
    _check_against_brute_force(g, ConstraintSpec(family, set_ordered=True, labeling=True))


# --- search against its earlier form, node for node -------------------------


def oracle_partners(rule, e, labels, q, d, c):
    """EdgeRule.partners as first written: each list's order (from iterating
    the set {a - s, a + s}) fixes the order of the moves."""
    if rule.period:
        m = rule.period * q * d
        return {a: [b for b in labels if (a + b - e) % m == 0] for a in labels}
    sums = rule._mirror(e, c)
    if rule.difference:
        return {a: [b for s in sums if s >= 0 for b in {a - s, a + s} if b in labels] for a in labels}
    return {a: [s - a for s in sums if s - a in labels] for a in labels}


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(tuple(Family)),
    st.integers(-3, 40),
    st.sets(st.integers(-3, 40), max_size=20),
    st.integers(1, 10),
    st.integers(1, 3),
    st.integers(-3, 40),
)
def test_partners_match_oracle_in_order(family, e, labels, q, d, c):
    # the key order and each list's order fix the order of a search's moves
    rule, c = family.rule, c if family in MAGIC_FAMILIES else None
    assert list(rule.partners(e, labels, q, d, c).items()) == list(oracle_partners(rule, e, labels, q, d, c).items())


def test_partners_keep_set_order():
    # the set {7, 9} iterates 9 first, so label 8's partners at value 1 are not ascending
    assert Family.GRACEFUL.rule.partners(1, set(range(10)), 9, 1, None)[8] == [9, 7]


class OracleSearch:
    """The earlier _Search, with no timeout: every node rescans all edges,
    rebuilds the free label pairs, filters its moves against the dead set
    at every depth and shuffles them whatever their number."""

    def __init__(self, g, budget):
        self.g, self.budget = g, budget
        self.nodes = self.restarts = 0
        self.rng, self.edges, self.adj = random.Random(_SHUFFLE_SEED), sorted(g.edges), g.adjacency()

    def attempts(self, spec, domains):
        self.spec, self.members = spec, domains
        self.labels = set().union(*domains.values())
        self.by_value = {}
        self.required = sorted(spec.edge_value_set(self.g.q), reverse=True)
        self.required_set = set(self.required)
        rule, c, (k, d), q = spec.family.rule, spec.magic_constant, spec.kd, self.g.q
        self.values = lambda a, b: rule.values(a, b, q, k, d, c)
        self.partners = lambda e, labels: oracle_partners(rule, e, labels, q, d, c)
        self.dead = set()
        u, weight = 1, 1
        while True:
            self.end = min(self.nodes + _LUBY_UNIT * weight, self.budget)
            self.cut = False
            self.label, self.edge_value, self.used_labels, self.used_values, self.trail = {}, {}, set(), set(), []
            found = self._descend(0)
            if found is not None or not self.cut or self.nodes >= self.budget:
                return found
            self.restarts += 1
            u, weight = (u + 1, 1) if u & -u == weight else (u, 2 * weight)

    def _descend(self, i, path=()):
        while i < len(self.required) and self.required[i] in self.used_values:
            i += 1
        if i == len(self.required):
            return self._leaf()
        moves = [m for m in self._moves(self.required[i]) if path is None or path + (m,) not in self.dead]
        self.rng.shuffle(moves)
        for move in moves:
            if self.cut:
                return None
            self.nodes += 1
            self.cut = self.nodes >= self.end
            mark = len(self.trail)
            self._record(self.edge_value, move[0], self.required[i], self.used_values)
            below = (move,) if path == () else None
            if all(self._place(v, x) for v, x in move[1:]) and (found := self._descend(i + 1, below)):
                return found
            self._undo(mark)
            if path is not None and not self.cut:
                self.dead.add(path + (move,))
        return None

    def _moves(self, e):
        label, used, members = self.label, self.used_labels, self.members
        if (partners := self.by_value.get(e)) is None:
            partners = self.by_value[e] = self.partners(e, self.labels)
        pairs = [(a, b) for a, bs in partners.items() if a not in used for b in bs
                 if b not in used and (a != b or not self.spec.labeling)]
        moves = []
        for u, w in self.edges:
            if u in label and w in label:
                if (u, w) not in self.edge_value and e in self.values(label[u], label[w]):
                    moves.append(((u, w),))
            elif u in label or w in label:
                x, y = (u, w) if u in label else (w, u)
                moves += [((u, w), (y, b)) for b in partners[label[x]] if b in members[y] and b not in used]
            else:
                moves += [((u, w), (u, a), (w, b)) for a, b in pairs if a in members[u] and b in members[w]]
        return moves

    def _record(self, store, key, value, used):
        store[key] = value
        used.add(value)
        self.trail.append((store, key, used))

    def _undo(self, mark):
        while len(self.trail) > mark:
            store, key, used = self.trail.pop()
            used.discard(store.pop(key))

    def _place(self, v, x):
        self._record(self.label, v, x, self.used_labels if self.spec.labeling else set())
        for w in self.adj[v] & self.label.keys():
            if (edge := _norm_edge(v, w)) not in self.edge_value:
                cands = (self.values(x, self.label[w]) & self.required_set) - self.used_values
                if not cands:
                    return False
                if len(cands) == 1:
                    self._record(self.edge_value, edge, cands.pop(), self.used_values)
        return True

    def _leaf(self):
        rest = [v for v in self.g.vertices if v not in self.label]
        free = sorted(self.members[rest[0]] - self.used_labels) if rest else []
        if len(free) < len(rest) and self.spec.labeling:
            return None
        witness = ColoredGraph(self.g, {**self.label, **dict(zip(rest, itertools.cycle(free)))}, dict(self.edge_value))
        return witness if verify(witness, self.spec).verdict else None


def oracle_search(g, spec, budget):
    """The earlier search, over OracleSearch (argument checks left out)."""
    variants = _domain_variants(g, spec)
    period, (k, d) = spec.family.rule.period, spec.kd
    if period and not all(k <= e < k + period * g.q * d for e in spec.edge_value_set(g.q)):
        return SearchResult(None, SearchStatus.NONE_EXHAUSTED, 0, 0)
    constants = [spec.magic_constant]
    if spec.family in MAGIC_FAMILIES and spec.magic_constant is None:
        constants = range(3 * max((max(dom) for doms in variants for dom in doms.values()), default=0) + 1)
    run = OracleSearch(g, budget)
    for constant, domains in itertools.product(constants, variants):
        found = run.attempts(spec if constant is None else replace(spec, magic_constant=constant), domains)
        if found is not None or run.nodes >= budget:
            status = SearchStatus.FOUND if found is not None else SearchStatus.BUDGET_EXHAUSTED
            return SearchResult(found, status, run.nodes, run.restarts)
    return SearchResult(None, SearchStatus.NONE_EXHAUSTED, run.nodes, run.restarts)


def search_outcome(call, g, spec, budget):
    """Status, nodes, restarts and witness colors of a search, or its error."""
    try:
        r = call(g, spec, budget=budget)
    except LabelingError as exc:
        return str(exc)
    c = r.coloring
    return r.status, r.nodes, r.restarts, c and sorted(c.vcolors.items()), c and sorted(c.ecolors.items())


@st.composite
def search_specs(draw):
    """Any family, with or without set-ordered and labeling, (k, d) and a
    declared constant, under a budget small enough that attempts are cut and
    restart."""
    family = draw(st.sampled_from(tuple(Family)))
    kwargs = {"set_ordered": draw(st.booleans()), "labeling": draw(st.booleans())}
    if draw(st.booleans()):
        kwargs["k"], kwargs["d"] = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    if family in MAGIC_FAMILIES and draw(st.booleans()):
        kwargs["magic_constant"] = draw(st.integers(0, 15))
    return ConstraintSpec(family, **kwargs), draw(st.one_of(st.integers(1, 400), st.just(5000)))


@settings(max_examples=300, deadline=None)
@given(small_connected_graphs(), search_specs())
def test_search_matches_oracle_node_for_node(g, case):
    spec, budget = case
    assert search_outcome(search, g, spec, budget) == search_outcome(oracle_search, g, spec, budget)


def benchmark_specs(q):
    """The specs the label_search benchmark searches under, with the (k, d)
    magic ones at k = 2, d = 3 and the constant a lifted labeling has."""
    texts = ["graceful;labeling", "graceful;set-ordered;labeling", "odd-graceful;labeling", "harmonious;labeling",
             "odd-elegant;labeling", "edge-magic;labeling", "edge-difference;labeling"]
    lifted = {Family.GRACEFUL: None, Family.EDGE_MAGIC: 4 + 3 * (q - 1), Family.EDGE_DIFFERENCE: 4 + 3 * q,
              Family.GRACEFUL_DIFFERENCE: 3, Family.FELICITOUS_DIFFERENCE: 0}
    return [ConstraintSpec.parse(t) for t in texts] + [
        ConstraintSpec(family, k=2, d=3, magic_constant=c) for family, c in lifted.items()
    ]


def test_search_matches_oracle_on_every_tree_up_to_9():
    for n in range(2, 10):
        for tree in iter_trees(n):
            for spec in benchmark_specs(tree.q):
                budget = 20_000
                assert search_outcome(search, tree, spec, budget) == search_outcome(oracle_search, tree, spec, budget), (
                    sorted(tree.edges), spec.to_text())


# --- verify's edge rule and magic constant against the textbook rules -------


def oracle_edge_value(family, a, b, q, k, d):
    """The edge color a non-magic family induces from end labels a and b
    (Gallian, Dynamic Survey of Graph Labeling), or None for a magic family."""
    if family in (Family.GRACEFUL, Family.ODD_GRACEFUL):
        return abs(a - b)
    if family is Family.HARMONIOUS:
        return k + (a + b - k) % (q * d)
    if family is Family.ODD_ELEGANT:
        return k + (a + b - k) % (2 * q * d)
    return None


def oracle_magic_value(family, a, b, e):
    """The quantity a magic family holds equal to its constant on every edge."""
    return {
        Family.EDGE_MAGIC: a + b + e,
        Family.EDGE_DIFFERENCE: e + abs(a - b),
        Family.GRACEFUL_DIFFERENCE: abs(abs(a - b) - e),
        Family.FELICITOUS_DIFFERENCE: abs(a + b - e),
    }[family]


@settings(max_examples=300, deadline=None)
@given(small_connected_graphs(), st.sampled_from(tuple(Family)), st.data())
def test_verify_edge_rule_and_magic_constant_match_oracle(g, family, data):
    small = st.integers(0, 6)
    f = {v: data.draw(small) for v in g.vertices}
    magic = family in (Family.EDGE_MAGIC, Family.EDGE_DIFFERENCE, Family.GRACEFUL_DIFFERENCE,
                       Family.FELICITOUS_DIFFERENCE)
    k = d = None
    if family in (Family.HARMONIOUS, Family.ODD_ELEGANT):
        k, d = data.draw(st.none() | st.integers(0, 3)), data.draw(st.none() | st.integers(1, 3))
    c = data.draw(st.none() | st.integers(0, 18))
    spec = ConstraintSpec(family, k=k, d=d, magic_constant=c)
    k = k if k is not None else {Family.HARMONIOUS: 1}.get(family, 0)
    d = d if d is not None else 1
    edges = g.sorted_edges()
    stored = None
    if magic or data.draw(st.booleans()):
        # an edge holds its induced color or, half the time, an arbitrary one
        stored = {}
        for u, v in edges:
            induced = oracle_edge_value(family, f[u], f[v], g.q, k, d)
            stored[(u, v)] = induced if induced is not None and data.draw(st.booleans()) else data.draw(small)

    expected, constant = [], c if magic else None  # declared, else the first edge's
    for u, v in edges:
        if magic:
            value = oracle_magic_value(family, f[u], f[v], stored[(u, v)])
            if constant is None:
                constant = value
            elif value != constant:
                expected.append(("magic-constant", f"edge {(u, v)}"))
        elif stored is not None and stored[(u, v)] != oracle_edge_value(family, f[u], f[v], g.q, k, d):
            expected.append(("edge-rule", f"edge {(u, v)}"))

    report = verify(ColoredGraph(g, f, stored), spec)
    got = [(clause, detail.split(":")[0]) for clause, detail in report.violations
           if clause in ("edge-rule", "magic-constant")]
    assert got == expected
    assert report.magic_constant == constant


# --- graph JSON round trip ---------------------------------------------------


@st.composite
def labeled_graphs(draw):
    """Any graph on up to 8 distinct vertex ids in [-20, 20]: negative and
    isolated vertices included."""
    vertices = draw(st.sets(st.integers(-20, 20), max_size=8))
    pairs = list(itertools.combinations(sorted(vertices), 2))
    return Graph.build(vertices, draw(st.sets(st.sampled_from(pairs))) if pairs else ())


@settings(max_examples=100, deadline=None)
@given(labeled_graphs())
def test_graph_json_round_trip(g):
    assert graph_from_json(g.to_json()) == g
    assert graph_from_json(json.dumps(g.to_json())) == g


# --- matrix-tree count against a brute-force enumeration --------------------


def brute_force_spanning_trees(g):
    """Count the spanning trees of g by trying every (n-1)-edge subset."""
    count = 0
    for subset in itertools.combinations(sorted(g.edges), g.n - 1):
        uf = UnionFind(g.vertices)
        count += all(uf.union(u, v) for u, v in subset)
    return count


@st.composite
def small_graphs(draw):
    """Any graph on 1 to 7 vertices, edgeless and disconnected ones included."""
    n = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.build(range(n), (p for p, k in zip(pairs, keep) if k))


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_matrix_tree_count_matches_brute_force(g):
    assert _matrix_tree_count(g) == brute_force_spanning_trees(g), sorted(g.edges)


# --- permutation ranks against the list-and-factorial definition ------------


def oracle_perm_rank(seq):
    """Lexicographic rank by the definition: sum of Lehmer digits times factorials."""
    n = len(seq)
    rank = 0
    items = list(range(n))
    for i, s in enumerate(seq):
        rank += items.index(s) * math.factorial(n - 1 - i)
        items.remove(s)
    return rank


def oracle_perm_unrank(rank, n):
    items = list(range(n))
    seq = []
    for i in range(n):
        idx, rank = divmod(rank, math.factorial(n - 1 - i))
        seq.append(items.pop(idx))
    return tuple(seq)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 60).flatmap(lambda n: st.permutations(range(n))))
def test_perm_rank_matches_oracle(perm):
    rank = _perm_rank(perm)
    assert rank == oracle_perm_rank(perm)
    assert _perm_unrank(rank, len(perm)) == tuple(perm)


def test_every_rank_matches_oracle_up_to_n6():
    for n in range(7):
        for rank, perm in enumerate(itertools.permutations(range(n))):
            assert _perm_rank(perm) == oracle_perm_rank(perm) == rank
            assert _perm_unrank(rank, n) == oracle_perm_unrank(rank, n) == perm


def test_perm_rank_round_trip_3000_cells():
    perm = list(range(3000))
    random.Random(3000).shuffle(perm)
    rank = _perm_rank(perm)
    assert rank == oracle_perm_rank(perm)
    assert _perm_unrank(rank, 3000) == tuple(perm)


def test_perm_rank_round_trip_30000_cells():
    n, k = 30000, 20
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    rank = _perm_rank(perm)
    assert _perm_unrank(rank, n) == tuple(perm)
    # both ends against the definition: the first k Lehmer digits are the
    # rank's quotient by (n - k)!, and the last k items' own order its
    # remainder mod k!
    high, items = 0, list(range(n))
    for i, s in enumerate(perm[:k]):
        high = high * (n - i) + items.index(s)
        items.remove(s)
    assert rank // math.factorial(n - k) == high
    tail = perm[-k:]
    assert rank % math.factorial(k) == oracle_perm_rank([sorted(tail).index(s) for s in tail])


@pytest.mark.parametrize("rank", [-1, math.factorial(3000)], ids=["-1", "3000!"])
def test_perm_unrank_out_of_range_3000_cells(rank):
    shown = str(rank) if rank < 0 else f"of {rank.bit_length()} bits"  # 3000! has 9131 digits
    with pytest.raises(TopcodeError, match=f"rank {shown} out of range for n=3000"):
        _perm_unrank(rank, 3000)
    assert _perm_unrank(math.factorial(3000) - 1, 3000) == tuple(range(2999, -1, -1))


# --- digit parsing against the per-character reading --------------------------


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10), st.text(alphabet="0123456789", min_size=1, max_size=200))
def test_parse_matches_per_character_reading(modulus, text):
    ring = DigitRing(modulus)
    assert DigitString.parse(text, ring) == DigitString(tuple(int(c) % modulus for c in text), ring)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10), st.text(st.sampled_from("0123456789a -\u00b2\u0663\uff11"), max_size=12))
@example(10, "")
def test_parse_admits_only_ascii_digits(modulus, text):
    # parse builds its result without the constructor's range check, so every
    # string it accepts must be one the checking constructor accepts too
    ring = DigitRing(modulus)
    if text and all(c in "0123456789" for c in text):
        assert DigitString.parse(text, ring) == DigitString(tuple(int(c) % modulus for c in text), ring)
    else:
        with pytest.raises(StringError, match="^not a digit string: "):
            DigitString.parse(text, ring)


def test_out_of_range_digit_named_in_error():
    with pytest.raises(StringError, match="^digit 12 out of range for mod10$"):
        DigitString((3, 12, 11))


# --- every-zero closure against the all-triples law --------------------------


def brute_force_closed(rows, moduli):
    """Whether rows obey the every-zero law digit-wise for every triple in
    both modes: row_i + row_j - row_z and row_i - row_j + row_z, mod each
    position's modulus, equal the rows at i + j - z and i - j + z mod m."""
    m = len(rows)
    for i, j, z in itertools.product(range(m), repeat=3):
        for sign in (1, -1):
            got = tuple((x + sign * (y - w)) % mod for x, y, w, mod in zip(rows[i], rows[j], rows[z], moduli))
            if got != tuple(rows[(i + sign * (j - z)) % m]):
                return False
    return True


def oracle_shift_elements(seed, k, m, mask=None, moduli=None):
    """The shift group's elements by the direct loop: element t advances
    each masked-in digit by t*k mod its position's modulus and keeps every
    masked-out digit as it is, unreduced."""
    elements = []
    for t in range(m):
        digs = []
        for pos, d in enumerate(seed.digits):
            if mask is None or pos in mask:
                digs.append((d + t * k) % (moduli[pos] if moduli is not None else seed.ring.modulus))
            else:
                digs.append(d)
        elements.append(DigitString(tuple(digs), seed.ring))
    return tuple(elements)


@st.composite
def shift_group_inputs(draw):
    """(seed, k, m, mask, position moduli) over a random ring: any k, so
    k*m is often not 0 mod a modulus, and masked-out seed digits may reach
    their position modulus."""
    ring = DigitRing(draw(st.integers(2, 10)))
    n, m = draw(st.integers(1, 6)), draw(st.integers(2, 10))
    seed = DigitString(tuple(draw(st.lists(st.integers(0, ring.modulus - 1), min_size=n, max_size=n))), ring)
    moduli = draw(st.none() | st.lists(st.integers(2, ring.modulus), min_size=n, max_size=n).map(tuple))
    # two choices of k that close more groups than chance: m*k = 0 mod the
    # ring modulus for the first, every step 0 for the second
    closing = (ring.modulus // math.gcd(ring.modulus, m), math.lcm(*(moduli or (ring.modulus,))))
    k = draw(st.integers(1, 12) | st.sampled_from(closing))
    mask = draw(st.none() | st.sets(st.integers(0, n - 1)))
    return seed, k, m, mask, moduli


@settings(max_examples=300, deadline=None)
@given(shift_group_inputs())
def test_build_shift_group_matches_oracle(inputs):
    seed, k, m, mask, moduli = inputs
    fixed = [] if mask is None or moduli is None else [
        (d, mod) for pos, (d, mod) in enumerate(zip(seed.digits, moduli)) if pos not in mask
    ]
    if all(d < mod for d, mod in fixed):
        assert build_shift_group(*inputs).elements == oracle_shift_elements(*inputs)
    else:
        with pytest.raises(StringError, match="not below its modulus"):
            build_shift_group(*inputs)


@st.composite
def group_elements(draw):
    """Elements and their position moduli (None: the ring's): a shift
    group's by the direct loop, or an arbitrary element set; either may
    hold digits at or above a position modulus."""
    seed, k, m, mask, moduli = draw(shift_group_inputs())
    if draw(st.booleans()):
        return oracle_shift_elements(seed, k, m, mask, moduli), moduli
    digits = st.lists(st.integers(0, seed.ring.modulus - 1), min_size=len(seed), max_size=len(seed)).map(tuple)
    return tuple(DigitString(draw(digits), seed.ring) for _ in range(m)), moduli


@settings(max_examples=300, deadline=None)
@given(group_elements(), st.integers(2, 10))
def test_closure_proof_matches_all_triples(case, modulus):
    elements, position_moduli = case
    rows = [e.digits for e in elements]
    length = len(rows[0])
    for cls, moduli in ((StringGroup, position_moduli), (CompoundStringGroup, (modulus,) * length)):
        full = moduli or (elements[0].ring.modulus,) * length
        want = brute_force_closed(rows, full)
        assert law_closed(rows, full) == want
        if all(d < mod for row in rows for d, mod in zip(row, full)):
            assert cls(elements, shift=1, position_moduli=moduli).closed == want
        else:
            # an unreduced digit breaks the law at i = j = zero
            assert not want
            with pytest.raises(StringError, match="not below its modulus"):
                cls(elements, shift=1, position_moduli=moduli)


@st.composite
def graphic_tree_groups(draw):
    """A random recursive tree on 1 to 7 vertices, totally colored inside
    windows p, q in 1..8."""
    n = draw(st.integers(1, 7))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    p, q = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    vcolors = {v: draw(st.integers(0, p - 1)) for v in range(n)}
    ecolors = {e: draw(st.integers(0, q - 1)) for e in edges}
    return build_graphic_group(ColoredGraph(Graph.build(range(n), edges), vcolors, ecolors), (p, q))


def color_wise_law_holds(group, a, b, zero, lam):
    """Elements a (+) b (-) zero, color by color, is element lam: each
    element's vertex colors (c + s) mod p, then its edge colors (c + k) mod q."""
    base, p, q = group.base, group.p_window, group.q_window

    def residues(s, k):
        return ([(base.vcolor(v) + s) % p for v in base.graph.vertices]
                + [(base.ecolors[e] + k) % q for e in base.graph.edges])

    moduli = [p] * base.graph.n + [q] * base.graph.q
    got = [(x + y - z) % mod for x, y, z, mod in zip(residues(*a), residues(*b), residues(*zero), moduli)]
    return got == residues(*lam)


@settings(max_examples=100, deadline=None)
@given(graphic_tree_groups())
def test_graphic_color_wise_law_holds_for_every_triple(group):
    # vertex colors read only the first index and edge colors only the
    # second, so every triple passes exactly when every triple of first
    # indices (second ones 0) and every triple of second indices (first
    # ones 0) passes: p^3 + q^3 checks stand for all (pq)^3
    p, q = group.p_window, group.q_window
    triples = [tuple((x, 0) for x in t) for t in itertools.product(range(p), repeat=3)]
    triples += [tuple((0, y) for y in t) for t in itertools.product(range(q), repeat=3)]
    for a, b, zero in triples:
        lam = graphic_group_op(group, a, b, zero)
        assert lam == ((a[0] + b[0] - zero[0]) % p, (a[1] + b[1] - zero[1]) % q)
        assert color_wise_law_holds(group, a, b, zero, lam), (a, b, zero)


# --- lifts, magic transforms, witnesses and string colorings -----------------

MAGIC = (Family.EDGE_MAGIC, Family.EDGE_DIFFERENCE, Family.GRACEFUL_DIFFERENCE, Family.FELICITOUS_DIFFERENCE)


@st.composite
def set_ordered_graceful_caterpillars(draw):
    """A caterpillar with its set-ordered graceful labeling, built directly.
    Spine vertex 0 takes label 0; each spine vertex hands labels to its
    leaves and then to the next spine vertex, from the top (q, q-1, ..)
    after a low spine vertex and from the bottom after a high one, so the
    edge values fall q, q-1, .., 1."""
    legs = draw(st.lists(st.integers(0, 3), min_size=2, max_size=5))
    spine = len(legs)
    q = spine - 1 + sum(legs)
    f, lo, hi, nxt, edges = {0: 0}, 1, q, spine, []
    for i, count in enumerate(legs):
        children = list(range(nxt, nxt + count)) + ([i + 1] if i + 1 < spine else [])
        nxt += count
        for child in children:
            edges.append((i, child))
            if i % 2 == 0:
                f[child], hi = hi, hi - 1
            else:
                f[child], lo = lo, lo + 1
    return ColoredGraph(Graph.build(range(nxt), edges), f)


def oracle_lift(cg, family, k, d):
    """The formulas of ``lift_from_set_ordered_graceful``'s docstring, read
    directly: (vertex colors, edge colors, constant), or None for a family
    with no lift.  X is the class holding label 0, f(e) = f(y) - f(x)."""
    f, q = cg.vcolor, cg.graph.q
    xs = next(side for side in cg.graph.bipartition() if any(f(v) == 0 for v in side))
    rows = {  # F(y) from f(y), F(e) from f(e), c
        Family.GRACEFUL: (lambda y: k + d * (y - 1), lambda e: k + d * (e - 1), None),
        Family.EDGE_MAGIC: (lambda y: k + d * (q - y), lambda e: k + d * (e - 1), 2 * k + d * (q - 1)),
        Family.EDGE_DIFFERENCE: (lambda y: k + d * y, lambda e: k + d * (q - e), 2 * k + d * q),
        Family.GRACEFUL_DIFFERENCE: (lambda y: k + d * y, lambda e: k + d * (e - 1), d),
        Family.FELICITOUS_DIFFERENCE: (lambda y: k + d * (q - y), lambda e: k + d * (q - e), 0),
    }
    if family not in rows:
        return None
    fy, fe, c = rows[family]
    vcolors = {v: d * f(v) if v in xs else fy(f(v)) for v in cg.graph.vertices}
    return vcolors, {(u, v): fe(abs(f(u) - f(v))) for u, v in cg.graph.edges}, c


@settings(max_examples=200, deadline=None)
@given(set_ordered_graceful_caterpillars(), st.sampled_from(tuple(Family)), st.integers(0, 4), st.integers(1, 4))
def test_lift_matches_docstring_formulas(base, family, k, d):
    expected = oracle_lift(base, family, k, d)
    if expected is None:
        with pytest.raises(LabelingError, match="no lift defined"):
            lift_from_set_ordered_graceful(base, family, k, d)
        return
    lifted, c = lift_from_set_ordered_graceful(base, family, k, d)
    assert (lifted.vcolors, lifted.ecolors, c) == expected
    assert verify(lifted, ConstraintSpec(family, k=k, d=d, magic_constant=c)).verdict


def oracle_closed_form(src, dst, c, x, y, e):
    """The dst value of an edge xy of a set-ordered src coloring (f(x) < f(y))
    from the src constant: s = x + y - e (felicitous-difference) or
    y - x - e (graceful-difference) is +c or -c, as the colors say."""
    if src is dst:
        return c
    s = {Family.FELICITOUS_DIFFERENCE: x + y - e, Family.GRACEFUL_DIFFERENCE: y - x - e}.get(src)
    return {
        (Family.EDGE_MAGIC, Family.EDGE_DIFFERENCE): lambda: c - 2 * x,
        (Family.EDGE_MAGIC, Family.GRACEFUL_DIFFERENCE): lambda: abs(c - 2 * y),
        (Family.EDGE_MAGIC, Family.FELICITOUS_DIFFERENCE): lambda: abs(c - 2 * e),
        (Family.EDGE_DIFFERENCE, Family.EDGE_MAGIC): lambda: c + 2 * x,
        (Family.EDGE_DIFFERENCE, Family.GRACEFUL_DIFFERENCE): lambda: abs(c - 2 * e),
        (Family.EDGE_DIFFERENCE, Family.FELICITOUS_DIFFERENCE): lambda: abs(c - 2 * y),
        (Family.FELICITOUS_DIFFERENCE, Family.EDGE_MAGIC): lambda: 2 * e + s,
        (Family.FELICITOUS_DIFFERENCE, Family.EDGE_DIFFERENCE): lambda: 2 * y - s,
        (Family.FELICITOUS_DIFFERENCE, Family.GRACEFUL_DIFFERENCE): lambda: abs(s - 2 * x),
        (Family.GRACEFUL_DIFFERENCE, Family.EDGE_MAGIC): lambda: 2 * y - s,
        (Family.GRACEFUL_DIFFERENCE, Family.EDGE_DIFFERENCE): lambda: 2 * e + s,
        (Family.GRACEFUL_DIFFERENCE, Family.FELICITOUS_DIFFERENCE): lambda: abs(2 * x + s),
    }[(src, dst)]()


@st.composite
def magic_colorings(draw):
    """A coloring that meets one magic family: random vertex colors with
    each edge color solved from a constant c (either sign of |s - e| = c),
    a constructed star witness, or a lift of a set-ordered graceful
    caterpillar with every vertex color shifted by t."""
    family = draw(st.sampled_from(MAGIC))
    kind = draw(st.sampled_from(("random", "witness", "lift")))
    if kind == "random":
        g, c = draw(small_connected_graphs()), draw(st.integers(0, 12))
        f = {v: draw(st.integers(0, 6)) for v in g.vertices}
        s = {(u, v): family.rule.s(f[u], f[v]) for u, v in g.edges}
        e = {edge: c - s[edge] if family.rule.magic == "s+e" else s[edge] + draw(st.sampled_from((c, -c)))
             for edge in g.edges}
        return ColoredGraph(g, f, e)
    if kind == "witness":
        return construct_witness(draw(st.integers(5, 14)), family)
    lifted, _ = lift_from_set_ordered_graceful(
        draw(set_ordered_graceful_caterpillars()), family, draw(st.integers(0, 4)), draw(st.integers(1, 4))
    )
    t = draw(st.integers(0, 3))
    return ColoredGraph(lifted.graph, {v: x + t for v, x in lifted.vcolors.items()}, lifted.ecolors)


@settings(max_examples=150, deadline=None)
@given(magic_colorings())
def test_magic_transform_matches_closed_form_oracle(cg):
    f, edges = cg.vcolor, cg.graph.sorted_edges()
    for src, dst in itertools.product(MAGIC, MAGIC):
        constants = {oracle_magic_value(src, f(u), f(v), cg.ecolor(u, v)) for u, v in edges}
        if len(constants) > 1:
            with pytest.raises(LabelingError):
                magic_transform(cg, src, dst)
            continue
        report = magic_transform(cg, src, dst)
        direct = {(u, v): oracle_magic_value(dst, f(u), f(v), cg.ecolor(u, v)) for u, v in edges}
        assert report.source_constant == min(constants)
        assert report.derived_values == direct
        assert report.violations == [] and report.verdict
        sides = cg.graph.bipartition()
        orientations = (sides, sides[::-1]) if sides else ()
        low = next((a for a, b in orientations if max(map(f, a)) < min(map(f, b))), None)
        if low is None:
            assert report.closed_form_set is None
            continue
        xy = [(u, v) if u in low else (v, u) for u, v in edges]
        closed = {(x, y): oracle_closed_form(src, dst, min(constants), f(x), f(y), cg.ecolor(x, y)) for x, y in xy}
        assert all(closed[(x, y)] == direct[tuple(sorted((x, y)))] for x, y in xy)
        assert report.closed_form_set == tuple(sorted(set(closed.values())))


def oracle_proper_total(g, vcolors, ecolors):
    """Adjacent vertices, a vertex and its edges, and edges at one vertex all
    differ."""
    if any(vcolors[u] == vcolors[v] or ecolors[(u, v)] in (vcolors[u], vcolors[v]) for u, v in g.edges):
        return False
    return all(ecolors[e] != ecolors[h] for e, h in itertools.combinations(g.edges, 2) if set(e) & set(h))


@settings(max_examples=150, deadline=None)
@given(small_connected_graphs(), st.integers(1, 3), st.data())
def test_string_coloring_proper_position_keeps_whole_strings_apart(g, width, data):
    color = st.integers(0, 4)
    vcolors = {v: tuple(data.draw(color) for _ in range(width)) for v in g.vertices}
    ecolors = {e: tuple(data.draw(color) for _ in range(width)) for e in g.edges}
    if data.draw(st.booleans()):  # plant a proper position: every element its own color
        pos = data.draw(st.integers(0, width - 1))
        order = list(g.vertices) + sorted(g.edges)
        planted = {x: i for i, x in enumerate(order)}
        vcolors = {v: c[:pos] + (planted[v],) + c[pos + 1:] for v, c in vcolors.items()}
        ecolors = {e: c[:pos] + (planted[e],) + c[pos + 1:] for e, c in ecolors.items()}
    specs = [ConstraintSpec(data.draw(st.sampled_from(tuple(Family))), proper=data.draw(st.booleans()))
             for _ in range(width)]
    report = verify_string_coloring(ColoredGraph(g, vcolors, ecolors), specs)
    slices = [({v: c[p] for v, c in vcolors.items()}, {e: c[p] for e, c in ecolors.items()}) for p in range(width)]
    assert report.proper_total == any(oracle_proper_total(g, *s) for s in slices)
    if report.proper_total:
        assert oracle_proper_total(g, vcolors, ecolors)


def oracle_witness(m, family):
    """The star witnesses written out one branch per family: (vertex colors,
    edge colors), or None when no leaf survives the properness filter."""
    if family is Family.EDGE_MAGIC and m == 5:
        return {0: 0, 1: 3}, {(0, 1): 2}
    leaves = []
    for i in range(1, max(2, m - 4) + 1):
        if family is Family.EDGE_MAGIC:
            leaf, edge = m - 2 - i, i + 1
        elif family is Family.EDGE_DIFFERENCE:
            leaf, edge = i + 1, m - i
        elif family is Family.FELICITOUS_DIFFERENCE:
            leaf, edge = i + 1, m + i + 2
        elif m == 1:
            leaf, edge = i + 3, i + 1
        else:
            leaf, edge = i + 1, i + m
        if leaf != 1 and edge != 1 and leaf != edge and leaf >= 0 and edge >= 1:
            leaves.append((leaf, edge))
    if not leaves:
        return None
    vcolors = {0: 1}
    for j, (leaf, _) in enumerate(leaves):
        vcolors[j + 1] = leaf
    return vcolors, {(0, j + 1): edge for j, (_, edge) in enumerate(leaves)}


@pytest.mark.parametrize("family", MAGIC, ids=lambda f: f.value)
def test_construct_witness_matches_per_family_formulas(family):
    floor = 0 if family is Family.GRACEFUL_DIFFERENCE else 5
    for m in range(41):
        expected = oracle_witness(m, family) if m >= floor else None
        if expected is None:
            with pytest.raises(LabelingError):
                construct_witness(m, family)
            continue
        witness = construct_witness(m, family)
        assert (witness.vcolors, witness.ecolors) == expected, m
        assert witness.graph == Graph.build(expected[0], expected[1])


def oracle_bipartite_partition(pub, pri, host):
    """The public and private edge sets are disjoint and together make up the
    host's edges."""
    return not (pub.edges & pri.edges) and (pub.edges | pri.edges) == host.edges


@st.composite
def bipartite_pairs(draw):
    """A BIPARTITE key pair, then optionally one private edge moved into the
    public part, copied into it, or dropped."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    host = Graph.complete_bipartite(m, n)
    edges = sorted(host.edges)
    public = draw(st.lists(st.sampled_from(edges), unique=True))
    pair = gen_keypair(KeySource.BIPARTITE, {"m": m, "n": n, "public_edges": public})
    pub, pri = pair.public_graphs[0].graph, pair.private_graphs[0].graph
    change = draw(st.sampled_from(("none", "move", "copy", "drop")))
    if change != "none" and pri.edges:
        e = draw(st.sampled_from(sorted(pri.edges)))
        if change in ("move", "copy"):
            pub = Graph.build(pub.vertices, pub.edges | {e})
        if change in ("move", "drop"):
            pri = Graph.build(pri.vertices, pri.edges - {e})
        by_id = lambda g: ColoredGraph(g, {v: v for v in g.vertices})
        pair.public_graphs, pair.private_graphs = (by_id(pub),), (by_id(pri),)
    return pair, pub, pri, host


@settings(max_examples=150, deadline=None)
@given(bipartite_pairs())
def test_bipartite_authentication_matches_edge_partition_oracle(case):
    pair, pub, pri, host = case
    assert authenticate(pair).verdict == oracle_bipartite_partition(pub, pri, host)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 3), (3, 2)])
def test_bipartite_pair_rejected_by_a_larger_target(m, n):
    pair = gen_keypair(KeySource.BIPARTITE, {"m": m, "n": n, "public_edges": [(1, m + 1)]})
    assert authenticate(pair).verdict
    assert not authenticate(pair, {"target": Graph.complete_bipartite(m, n + 1)}).verdict


def oracle_vertex_coincide(parts, rule=CoincideRule.BY_COLOR, pairs=None):
    """The two-engine vertex merge: BY_COLOR renames every vertex to the
    smallest id of its color, EXPLICIT merges listed pairs in the disjoint
    union by union-find; each engine checks loops, multi-edges and edge
    colors on its own."""
    if not parts:
        raise GraphError("nothing to coincide")
    all_ecolors = all(p.ecolors is not None for p in parts)
    if rule is CoincideRule.BY_COLOR:
        ids = {}
        for pi, part in enumerate(parts):
            if not part.vcolors:
                raise GraphError(f"part {pi} has no vertex colors")
            for u in part.graph.vertices:
                key = str(part.vcolor(u))
                ids[key] = min(ids.get(key, u), u)
        mapped_vcolors, edges, ecolors = {}, set(), {}
        for part in parts:
            vmap = {u: ids[str(part.vcolor(u))] for u in part.graph.vertices}
            for u in part.graph.vertices:
                mapped_vcolors[vmap[u]] = part.vcolor(u)
            for u, v in part.graph.edges:
                mu, mv = vmap[u], vmap[v]
                if mu == mv:
                    raise GraphError("coinciding would create a loop")
                e = _norm_edge(mu, mv)
                if e in edges:
                    raise GraphError(f"coinciding would create a multi-edge at {e}")
                edges.add(e)
                if all_ecolors:
                    ecolors[e] = part.ecolor(u, v)
        graph = Graph.build(mapped_vcolors.keys(), edges)
        return ColoredGraph(graph, mapped_vcolors, ecolors if all_ecolors else None)
    if pairs is None:
        raise GraphError("explicit coinciding needs vertex pairs")
    offset, union_edges, union_vcolors, offsets = 0, [], {}, []
    for part in parts:
        offsets.append(offset)
        shift = offset - min(part.graph.vertices)
        for u in part.graph.vertices:
            union_vcolors[u + shift] = part.vcolors.get(u) if part.vcolors else None
        union_edges.extend(
            (u + shift, v + shift, part.ecolor(u, v) if all_ecolors else None) for u, v in part.graph.edges
        )
        offset += max(part.graph.vertices) - min(part.graph.vertices) + 1
    uf = UnionFind(union_vcolors.keys())
    for (pa, va), (pb, vb) in pairs:
        uf.union(va + offsets[pa] - min(parts[pa].graph.vertices), vb + offsets[pb] - min(parts[pb].graph.vertices))
    roots = {}
    for v in union_vcolors:
        roots[uf.find(v)] = min(roots.get(uf.find(v), v), v)
    merged_edges = {}
    for u, v, color in union_edges:
        mu, mv = roots[uf.find(u)], roots[uf.find(v)]
        if mu == mv:
            raise GraphError("coinciding would create a loop")
        e = _norm_edge(mu, mv)
        if e in merged_edges:
            raise GraphError(f"coinciding would create a multi-edge at {e}")
        merged_edges[e] = color
    vcolors = {}
    for v, c in sorted(union_vcolors.items()):
        if c is not None:
            vcolors.setdefault(roots[uf.find(v)], c)
    graph = Graph.build({roots[uf.find(v)] for v in union_vcolors}, merged_edges)
    return ColoredGraph(graph, vcolors, merged_edges if all_ecolors else None)


def rejected_on_purpose(parts, rule, pairs):
    """The inputs the two-engine merge mishandles and the one merge rejects:
    under BY_COLOR, two colors whose smallest ids coincide (one color was
    lost, or a false multi-edge reported); under EXPLICIT, a pair naming a
    part or a vertex that does not exist (a wrong vertex was merged, or an
    IndexError raised)."""
    if rule is CoincideRule.EXPLICIT:
        return any(
            not (0 <= pi < len(parts) and u in parts[pi].graph.vertices) for ends in pairs or () for pi, u in ends
        )
    ids = {}
    for part in parts:
        for u, c in part.vcolors.items():
            ids[str(c)] = min(ids.get(str(c), u), u)
    return len(set(ids.values())) < len(ids)


@st.composite
def coincide_inputs(draw):
    """One to three parts on vertices from 1..6, colored from one shared
    vertex-to-color map with the odd color changed, so merges, loops and
    multi-edges all occur; some parts lack vertex or edge colors, and
    EXPLICIT pairs sometimes name a missing part or vertex.  Colors are ints,
    so two distinct colors never print alike."""
    rule = draw(st.sampled_from(CoincideRule))
    shared = {v: draw(st.integers(0, 5)) for v in range(1, 7)}
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        verts = sorted(draw(st.sets(st.integers(1, 6), min_size=1)))
        edges = draw(st.sets(st.sampled_from(list(itertools.combinations(verts, 2))), max_size=4)) if verts[1:] else set()
        vcolors = {v: shared[v] for v in verts}
        vcolors.update(draw(st.dictionaries(st.sampled_from(verts), st.integers(0, 5), max_size=1)))
        if draw(st.integers(0, 9)) == 7:
            vcolors = {}
        ecolors = None if draw(st.integers(0, 4)) == 3 else {e: draw(st.integers(0, 5)) for e in edges}
        parts.append(ColoredGraph(Graph.build(verts, edges), vcolors, ecolors))
    ends = st.tuples(st.integers(-1, len(parts)), st.integers(0, 7))
    valid = st.integers(0, len(parts) - 1).flatmap(lambda pi: st.tuples(st.just(pi), st.sampled_from(parts[pi].graph.vertices)))
    end = st.one_of(valid, valid, valid, ends)
    pairs = None if draw(st.integers(0, 9)) == 7 else draw(st.lists(st.tuples(end, end), max_size=4))
    return parts, rule, pairs


@settings(max_examples=400, deadline=None)
@given(coincide_inputs())
def test_vertex_coincide_matches_two_engine_oracle(case):
    parts, rule, pairs = case
    try:
        expected = None if rejected_on_purpose(parts, rule, pairs) else oracle_vertex_coincide(parts, rule, pairs)
    except GraphError:
        expected = None
    if expected is None:
        with pytest.raises(GraphError):
            vertex_coincide(parts, rule, pairs)
    else:
        assert vertex_coincide(parts, rule, pairs) == expected


def oracle_strongly(cg, target):
    """Whether some perfect matching of the whole graph has every pair sum
    equal to target, by enumerating all of them."""
    adj = cg.graph.adjacency()

    def matchings(left):
        if not left:
            yield []
            return
        u = min(left)
        for w in adj[u] & left:
            for rest in matchings(left - {u, w}):
                yield [(u, w)] + rest

    return any(all(cg.vcolor(u) + cg.vcolor(w) == target for u, w in m) for m in matchings(set(cg.graph.vertices)))


@st.composite
def strongly_colorings(draw):
    """A graph on 2 to 8 vertices with at least one edge, colored with
    distinct colors, with colors from a small range (so they repeat), or
    through a planted pairing: its edges join the graph, and each pair's
    colors sum to the family's target unless one color is then changed."""
    family = draw(st.sampled_from((Family.GRACEFUL, Family.ODD_GRACEFUL)))
    n = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(("distinct", "repeated", "planted")))
    order = draw(st.permutations(range(n)))
    planted = list(zip(order[::2], order[1::2])) if kind == "planted" else []
    edges = draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2))), min_size=0 if planted else 1))
    g = Graph.build(range(n), edges | set(planted))
    target = g.q if family is Family.GRACEFUL else 2 * g.q - 1
    if kind == "distinct":
        colors = draw(st.permutations(range(target + n)))[:n]
    else:
        colors = draw(st.lists(st.integers(0, target), min_size=n, max_size=n))
    for u, w in planted:
        colors[w] = target - colors[u]
    if planted and draw(st.booleans()):
        colors[draw(st.sampled_from(range(n)))] += 1
    return ColoredGraph(g, dict(enumerate(colors))), family, target


@settings(max_examples=300, deadline=None)
@given(strongly_colorings())
def test_strongly_matches_whole_graph_matching_oracle(case):
    cg, family, target = case
    report = verify(cg, ConstraintSpec(family, strongly=True))
    expected = [] if oracle_strongly(cg, target) else [("C-7/C-8", f"no perfect matching with pair sums {target}")]
    assert [v for v in report.violations if v[0] == "C-7/C-8"] == expected


# --- vertex maps against the product loop and all permutations -------------


def oracle_hom_ok(h, g, phi, mode):
    """Every clause of a colored homomorphism, read off one total map."""
    for u, v in h.graph.edges:
        if phi[u] == phi[v] or not g.graph.has_edge(phi[u], phi[v]):
            return False
    if mode in (HomMode.V, HomMode.VE):
        for u, v in h.graph.edges:
            if h.vcolor(u) == h.vcolor(v):
                return False
        for u in h.graph.vertices:
            if h.vcolor(u) != g.vcolor(phi[u]):
                return False
    if mode in (HomMode.E, HomMode.VE):
        for (u, v), (x, y) in itertools.combinations(h.graph.edges, 2):
            if {u, v} & {x, y} and h.ecolor(u, v) == h.ecolor(x, y):
                return False
        for u, v in h.graph.edges:
            if h.ecolor(u, v) != g.ecolor(phi[u], phi[v]):
                return False
    return True


def oracle_homomorphism(h, g, mapping, mode):
    """The given map, or else every map of V(h) into V(g) in turn."""
    if mapping is not None:
        return oracle_hom_ok(h, g, dict(mapping), mode)
    return any(
        oracle_hom_ok(h, g, dict(zip(h.graph.vertices, images)), mode)
        for images in itertools.product(g.graph.vertices, repeat=h.graph.n)
    )


def some(draw, items):
    """Each of the items, kept or dropped by a coin."""
    return [x for x in items if draw(st.booleans())]


@st.composite
def totally_colored_graphs(draw, min_n=0):
    """A graph on up to 5 vertices with vertex and edge colors from 1..3
    (so that they repeat) or from 1..10."""
    n = draw(st.integers(min_n, 5))
    g = Graph.build(range(n), some(draw, itertools.combinations(range(n), 2)))
    color = st.integers(1, draw(st.sampled_from((3, 10))))
    vcolors = {v: draw(color) for v in g.vertices}
    return ColoredGraph(g, vcolors, {e: draw(color) for e in g.sorted_edges()})


@st.composite
def homomorphism_cases(draw):
    """g, and h drawn apart from g or pulled back from g along a random map
    (some pairs that map to edges are edges of h, colors read off g), so
    that both verdicts come up; the map is the mapping to check half the
    time, and the other half there is none and the search runs."""
    g = draw(totally_colored_graphs(min_n=1))
    if draw(st.booleans()):
        h = draw(totally_colored_graphs())
        phi = {u: draw(st.sampled_from(g.graph.vertices)) for u in h.graph.vertices}
    else:
        n = draw(st.integers(2, 5))
        if draw(st.booleans()):  # one-to-one, so that h is a subgraph of g
            phi = dict(enumerate(draw(st.permutations(g.graph.vertices))[:n]))
        else:
            phi = {u: draw(st.sampled_from(g.graph.vertices)) for u in range(n)}
        adj = g.graph.adjacency()
        pairs = [(u, v) for u, v in itertools.combinations(phi, 2) if phi[v] in adj[phi[u]]]
        edges = some(draw, pairs)
        h = ColoredGraph(
            Graph.build(phi, edges),
            {u: g.vcolor(x) for u, x in phi.items()},
            {(u, v): g.ecolor(phi[u], phi[v]) for u, v in edges},
        )
    return h, g, phi if draw(st.booleans()) else None


@settings(max_examples=400, deadline=None)
@given(homomorphism_cases(), st.sampled_from(tuple(HomMode)))
def test_homomorphism_matches_product_oracle(case, mode):
    h, g, mapping = case
    assert check_colored_homomorphism(h, g, mapping, mode) == oracle_homomorphism(h, g, mapping, mode)


def relabeled(g, rng, offset=100):
    """g on randomly permuted vertex ids offset..offset+n-1."""
    ids = dict(zip(g.vertices, rng.sample(range(offset, offset + g.n), g.n)))
    return Graph.build(ids.values(), ((ids[u], ids[v]) for u, v in g.edges))


def test_isomorphism_matches_canonical_form_on_every_tree_up_to_9():
    rng = random.Random(5)
    for n in range(1, 10):
        trees = all_trees(n)
        forms = [canonical_form(t) for t in trees]
        for a, form_a in zip(trees, forms):
            moved = relabeled(a, rng)
            for b, form_b in zip(trees, forms):
                assert are_isomorphic(moved, b) == (form_a == form_b), (sorted(a.edges), sorted(b.edges))


def oracle_isomorphic(a, b):
    """Some bijection of the vertices carries a's edges onto b's."""
    if a.n != b.n:
        return False
    return any(
        {_norm_edge(phi[u], phi[v]) for u, v in a.edges} == b.edges
        for phi in (dict(zip(a.vertices, images)) for images in itertools.permutations(b.vertices))
    )


def switched(g, rng):
    """g with edges xy and zw replaced by xw and zy, where those are non-edges
    and all four ends differ: the degrees stay, the shape may not."""
    moves = [
        (e, f) for e, f in itertools.permutations(sorted(g.edges), 2)
        if len({*e, *f}) == 4 and not g.has_edge(e[0], f[1]) and not g.has_edge(f[0], e[1])
    ]
    if not moves:
        return g
    (x, y), (z, w) = rng.choice(moves)
    return Graph.build(g.vertices, g.edges - {(x, y), (z, w)} | {_norm_edge(x, w), _norm_edge(z, y)})


@settings(max_examples=300, deadline=None)
@given(small_graphs().filter(lambda g: g.n <= 6), st.randoms(use_true_random=False), st.integers(0, 2))
def test_isomorphism_matches_all_permutations(a, rng, switches):
    """a against a relabeled copy of itself after up to two degree-keeping
    edge switches, so that both verdicts come up past the degree check."""
    b = relabeled(a, rng)
    for _ in range(switches):
        b = switched(b, rng)
    assert are_isomorphic(a, b) == oracle_isomorphic(a, b)
