"""The acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is exact."""

import itertools
import random
import time

import pytest

from topocode.graphs import (
    ColoredGraph,
    Graph,
    count_spanning_trees,
    split_complete_even,
    split_complete_odd,
    verify_edge_disjoint_spanning,
    vertex_coincide,
)
from topocode.labelings import (
    ConstraintSpec,
    Family,
    IndexedColor,
    IndexedOp,
    KLEIN_ADD_TABLE,
    KLEIN_MUL_TABLE,
    PairingKind,
    SearchStatus,
    check_pairing,
    indexed_op,
    lift_from_set_ordered_graceful,
    magic_transform,
    search,
    twin_shift,
    verify,
)
from topocode.strings import (
    MOD9,
    DigitString,
    DigitRing,
    SuperString,
    build_shift_group,
    group_op,
    self_breed,
    super_arith,
)
from topocode.tables import reproduce_table1, reproduce_table2
from topocode.topcode import (
    ParamTopcode,
    adjacency_family,
    assignment_substitute,
    pronbs_solve,
    string_from_topcode,
    topcode_from_graph,
)
from topocode.groups import build_graphic_group, graphic_group_op, group_compound
from topocode.protocols import (
    EXAMPLE1_G,
    EXAMPLE1_J,
    EXAMPLE1_T,
    PROTOCOLS,
    LayerError,
    example1_tree,
    run_protocol,
    unseal,
)
from topocode.trees import FREE_TREE_COUNTS, all_trees, random_caterpillar

from test_tables import TABLE1_ROWS, TABLE2_ROWS


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def timed(limit_seconds: float):
    class _Timer:
        def __enter__(self):
            self.start = time.monotonic()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.monotonic() - self.start
            if exc[0] is None:
                assert self.elapsed < limit_seconds, (
                    f"runtime {self.elapsed:.1f}s exceeded {limit_seconds}s"
                )
            return False

    return _Timer()


def test_criterion_1_tables():
    with timed(1.0) as t:
        t1 = reproduce_table1()
        t2 = reproduce_table2()
        assert list(t1.rows) == TABLE1_ROWS
        assert list(t2.rows) == TABLE2_ROWS
        assert any("mod 10" in note for note in t1.notes)  # the documented erratum
        assert len(t1.rows) == 10 and len(t1.rows[0]) == 8
        assert len(t2.rows) == 9 and len(t2.rows[0]) == 10
    report(1, f"both tables regenerate byte-for-byte in {t.elapsed:.2f}s")


def test_criterion_2_example1_pipeline():
    with timed(1.0) as t:
        orders = {
            "G": [(1, 5), (3, 5), (5, 6), (2, 6), (4, 6)],
            "T": [(4, 5), (2, 4), (1, 4), (1, 6), (1, 3)],
            "J": [(1, 2), (2, 5), (2, 3), (3, 4), (3, 6)],
        }
        g = example1_tree(EXAMPLE1_G)
        tt = example1_tree(EXAMPLE1_T)
        j = example1_tree(EXAMPLE1_J)
        assert str(string_from_topcode(topcode_from_graph(g, orders["G"]))) == "135244214255666"
        merged = vertex_coincide([g, tt, j])
        assert merged.graph == Graph.complete(6)
        assert verify_edge_disjoint_spanning(Graph.complete(6), [g.graph, tt.graph, j.graph])
        plaintext = bytes(range(256)) * 4  # 1 KiB
        transcript = run_protocol("top-en-decryption-1", {"plaintext": plaintext}, seed=2)
        assert transcript.verdict
    report(2, f"matrices, coinciding, and the 1 KiB round trip in {t.elapsed:.2f}s")


def test_criterion_3_complete_splits():
    with timed(1.0) as t:
        for m in range(2, 7):
            trees = split_complete_even(m)
            assert len(trees) == m
            assert all(tr.q == 2 * m - 1 and tr.is_tree() for tr in trees)
            assert verify_edge_disjoint_spanning(Graph.complete(2 * m), trees)
        for m in range(2, 6):
            star, trees = split_complete_odd(m)
            assert star.q == m and len(trees) == m
            assert all(tr.q == 2 * m and tr.is_tree() for tr in trees)
            assert verify_edge_disjoint_spanning(Graph.complete(2 * m + 1), list(trees) + [star])
    report(3, f"even splits m=2..6 and odd splits m=2..5 verified in {t.elapsed:.2f}s")


def test_criterion_4_cayley():
    with timed(30.0) as t:
        for n in range(3, 8):
            closed, enumerated = count_spanning_trees("complete", n)
            assert closed == n ** (n - 2) == enumerated
        for m in range(1, 8):
            for n in range(1, 8 - m + 1):
                closed, enumerated = count_spanning_trees("bipartite", m, n)
                assert closed == m ** (n - 1) * n ** (m - 1) == enumerated
    report(4, f"Cayley n=3..7 and bipartite m+n<=8 matrix-tree counts agree in {t.elapsed:.1f}s")


def test_criterion_5_tree_search_and_twins():
    with timed(300.0) as t:
        graceful_spec = ConstraintSpec(Family.GRACEFUL, labeling=True)
        so_spec = ConstraintSpec(Family.GRACEFUL, set_ordered=True, labeling=True)
        total = 0
        twins = 0
        for n in range(2, 10):
            trees = all_trees(n)
            assert len(trees) == FREE_TREE_COUNTS[n - 1]
            for tree in trees:
                total += 1
                result = search(tree, graceful_spec, budget=5_000_000)
                assert result.status is SearchStatus.FOUND, f"no graceful labeling at n={n}"
                assert verify(result.coloring, graceful_spec).verdict
                so = search(tree, so_spec, budget=5_000_000)
                if so.coloring is None:
                    continue
                # set-ordered graceful -> set-ordered odd-graceful by doubling
                sides = verify(so.coloring, so_spec).bipartition
                xs = sides[0]
                vcolors = {
                    v: 2 * so.coloring.vcolor(v) - (0 if v in xs else 1)
                    for v in tree.vertices
                }
                ecolors = {e: abs(vcolors[e[0]] - vcolors[e[1]]) for e in tree.edges}
                odd = ColoredGraph(tree, vcolors, ecolors)
                shifted = twin_shift(odd)
                pairing = check_pairing(odd, shifted, PairingKind.TWIN)
                assert pairing.verdict
                assert pairing.magic_constant <= 1  # overlap size
                twins += 1
        assert total == sum(FREE_TREE_COUNTS[1:9]) == 94  # trees for n in [2,9]
    report(5, f"{total} trees searched, {twins} twin pairs verified in {t.elapsed:.1f}s")


def test_criterion_6_magic_equivalences():
    with timed(120.0) as t:
        rng = random.Random(606)
        magic = [
            Family.EDGE_MAGIC,
            Family.EDGE_DIFFERENCE,
            Family.GRACEFUL_DIFFERENCE,
            Family.FELICITOUS_DIFFERENCE,
        ]
        so_spec = ConstraintSpec(Family.GRACEFUL, set_ordered=True, labeling=True)
        checked = 0
        for trial in range(100):
            q = rng.randint(2, 10)
            tree = random_caterpillar(q, rng)
            result = search(tree, so_spec, budget=5_000_000)
            assert result.status is SearchStatus.FOUND, "caterpillars admit set-ordered graceful"
            k, d = rng.randint(0, 3), rng.randint(1, 3)
            lifted = {}
            for family in magic:
                coloring, constant = lift_from_set_ordered_graceful(result.coloring, family, k, d)
                spec = ConstraintSpec(family, k=k, d=d, magic_constant=constant)
                assert verify(coloring, spec).verdict, (family, k, d)
                lifted[family] = coloring
            for src in magic:
                for dst in magic:
                    assert magic_transform(lifted[src], src, dst).verdict
            checked += 1
        assert checked == 100
    report(6, f"100 random trees lifted to all four magic families in {t.elapsed:.1f}s")


def test_criterion_7_group_laws():
    with timed(60.0) as t:
        # string groups: clean orders 2..10 on their own digit rings, plus
        # degenerate-but-lawful orders 11 and 12 over mod 9
        combos = [(m, DigitRing(m), 1) for m in range(2, 11)]
        combos += [(11, MOD9, 9), (12, MOD9, 3)]
        for order, ring, k in combos:
            seed = DigitString(tuple(i % ring.modulus for i in (1, 4, 2, 8, 5, 7)), ring)
            group = build_shift_group(seed, k=k, m=order)
            for z in range(order):
                for i in range(order):
                    assert group_op(group, i, z, z) == i  # zero
                    inverse = (2 * z - i) % order
                    assert group_op(group, i, inverse, z) == z  # inverse
                    for j in range(order):
                        lam = group_op(group, i, j, z)  # closure
                        assert 0 <= lam < order
                        assert lam == group_op(group, j, i, z)  # commutative
            # associativity on a fixed zero
            for i in range(order):
                for j in range(order):
                    for s in range(order):
                        left = group_op(group, group_op(group, i, j, 0), s, 0)
                        right = group_op(group, i, group_op(group, j, s, 0), 0)
                        assert left == right
        # graphic groups with p*q <= 12 over a K_2 base
        base = ColoredGraph(Graph.path(2), {1: 0, 2: 1}, {(1, 2): 1})
        for p_w, q_w in [(2, 2), (2, 3), (3, 2), (2, 6), (3, 4), (2, 5), (12, 1)]:
            if p_w * q_w > 12 or q_w < 2:
                continue
            group = build_graphic_group(base, (p_w, q_w))
            idx = list(itertools.product(range(p_w), range(q_w)))
            for a in idx:
                for z in idx:
                    assert graphic_group_op(group, a, z, z) == a
                    inv = ((2 * z[0] - a[0]) % p_w, (2 * z[1] - a[1]) % q_w)
                    assert graphic_group_op(group, a, inv, z) == z
                    for b in idx:
                        lam = graphic_group_op(group, a, b, z)
                        assert lam == graphic_group_op(group, b, a, z)
        # compound transfer for all triples at m <= 6
        k2 = ColoredGraph(Graph.path(2), {1: 0, 2: 1}, {(1, 2): 1})
        p3 = ColoredGraph(Graph.path(3), {1: 0, 2: 2, 3: 1}, {(1, 2): 2, (2, 3): 1})
        for m in range(2, 7):
            base_graph = k2 if m <= 2 else p3
            _, _, strings = group_compound(base_graph, m)
            for i in range(m):
                for j in range(m):
                    for z in range(m):
                        assert strings.op(i, j, z) == (i + j - z) % m
    report(7, f"group laws exhaustive to order 12, compound transfer to m=6 in {t.elapsed:.1f}s")


def test_criterion_8_micro_examples():
    with timed(1.0) as t:
        # uniformly arithmetic shift
        s = SuperString(((6174, 9999), (123, 999), (0, 9), (618, 999), (3, 9), (141, 999)))
        assert super_arith(s, 152, "+").values() == (6326, 275, 8, 770, 2, 293)
        # assignment string
        table = {1: "142857", 2: "6174", 3: "0618", 4: "31415926", 5: "8128", 6: "196"}
        s_pub = DigitString.parse("135244214255666")
        expected = (
            "142857" "0618" "8128" "6174" "31415926" "31415926" "6174"
            "142857" "31415926" "6174" "8128" "8128" "196" "196" "196"
        )
        assert str(assignment_substitute(s_pub, table)) == expected
        # the bordered adjacency family of the 6-vertex instance
        edges = {(1, 5): 4, (2, 6): 4, (3, 5): 2, (4, 6): 2, (5, 6): 1}
        h = ColoredGraph(Graph.build(range(1, 7), edges.keys()), {v: v for v in range(1, 7)}, edges)
        a, colored, a_code = adjacency_family(h)
        assert a[4] == [1, 0, 1, 0, 0, 1]
        assert colored[4] == [4, 0, 2, 0, 0, 1]
        assert a_code[0] == [0, 1, 2, 3, 4, 5, 6]
        # Klein tables and indexed operations
        assert indexed_op(IndexedColor(2, 1), IndexedColor(3, 2), IndexedOp.KLEIN_ADD).base == 4
        assert indexed_op(IndexedColor(3, 1), IndexedColor(4, 2), IndexedOp.KLEIN_MUL).base == 2
        assert indexed_op(IndexedColor(2, 3), IndexedColor(3, 4), IndexedOp.ADD) == IndexedColor(5, 7)
        assert [row[0] for row in KLEIN_ADD_TABLE] == [1, 2, 3, 4]
        assert [row[0] for row in KLEIN_MUL_TABLE] == [1, 1, 1, 1]
        # self-breeding byte counts
        _, total1 = self_breed(["214", "1001", "68"], depth=1)
        _, total2 = self_breed(["214", "1001", "68"], depth=2)
        assert total1 == 54 and total2 == 38880
    report(8, f"worked micro-examples reproduce in {t.elapsed:.2f}s")


def test_criterion_9_pronbs_round_trip():
    with timed(120.0) as t:
        rng = random.Random(909)
        so_spec = ConstraintSpec(Family.GRACEFUL, set_ordered=True, labeling=True)
        solved = 0
        while solved < 20:
            q = rng.randint(1, 4)
            tree = random_caterpillar(q, rng)
            result = search(tree, so_spec, budget=2_000_000)
            if result.coloring is None:
                continue
            rep = verify(result.coloring, so_spec)
            xs = rep.bipartition[0]
            order = [
                (u, v) if u in xs else (v, u) for u, v in tree.sorted_edges()
            ]
            base = topcode_from_graph(result.coloring, order)
            if max(c for row in base.rows() for c in row) > 6:
                continue
            k = rng.randint(0, 3)
            d = rng.randint(1, 2)
            s = string_from_topcode(ParamTopcode(base).evaluate(k, d))
            candidates = pronbs_solve(s, max_q=4, max_color=6, k_range=range(4), d_range=(1, 2))
            assert any(
                c.base.rows() == base.rows() and (c.k, c.d) == (k, d) for c in candidates
            ), f"source not recovered for q={q}, (k,d)=({k},{d})"
            for c in candidates:
                assert c.regenerate() == s
            solved += 1
    report(9, f"20 seeded parameterized instances recovered in {t.elapsed:.1f}s")


def test_criterion_10_protocol_suite():
    with timed(60.0) as t:
        plain = b"xyzzy" * 11
        # (a) every protocol round-trips with correct material
        assert len(PROTOCOLS) >= 13
        for protocol_id in sorted(PROTOCOLS):
            transcript = run_protocol(protocol_id, {"plaintext": plain}, seed=10)
            assert transcript.verdict, (protocol_id, transcript.failing_step)
        # (b) corrupting the transmitted file fails at the first decrypt step
        def flip(blob: bytes) -> bytes:
            out = bytearray(blob)
            out[0] = (out[0] + 1) % 256
            return bytes(out)

        tampered = run_protocol("tkpdra", {"plaintext": plain}, seed=10, tamper={"f4": flip})
        assert not tampered.verdict and tampered.failing_step == "tkpdra-4"
        tampered = run_protocol(
            "top-en-decryption-1", {"plaintext": plain}, seed=10, tamper={"encrypted": flip}
        )
        assert not tampered.verdict and tampered.failing_step == "step-4"
        # corrupting one private tree fails the coinciding authentication
        bad_tree = example1_tree(dict(EXAMPLE1_T))
        bad_tree.vcolors[4] = 5
        tampered = run_protocol(
            "top-en-decryption-1",
            {
                "plaintext": plain,
                "private_trees": [bad_tree, example1_tree(EXAMPLE1_J)],
            },
            seed=10,
        )
        assert not tampered.verdict and tampered.failing_step == "step-3"
        # (c) wrong-order layer peeling fails for every wrong order, <= 4 layers
        for protocol_id in ("graph-string-key", "tkpdra", "self-cert-2"):
            transcript = run_protocol(protocol_id, {"plaintext": plain}, seed=10)
            keys = [DigitString.parse(k) for k in transcript.layers]
            assert 2 <= len(keys) <= 4
            # two layers may share a key (drawn from one group), so compare
            # the applied key sequence against the reversed layer sequence
            expected_keys = tuple(reversed(transcript.layers))
            for order in itertools.permutations(range(len(keys))):
                applied = tuple(transcript.layers[i] for i in order)
                blob = transcript.ciphertext
                try:
                    for i in order:
                        blob = unseal(blob, keys[i])
                    assert applied == expected_keys, (
                        f"wrong key order {order} succeeded on {protocol_id}"
                    )
                    assert blob == plain
                except LayerError:
                    assert applied != expected_keys
        # (d) transcripts are replay-deterministic
        for protocol_id in sorted(PROTOCOLS):
            a = run_protocol(protocol_id, {"plaintext": plain}, seed=77)
            b = run_protocol(protocol_id, {"plaintext": plain}, seed=77)
            assert a.digest() == b.digest()
    report(10, f"{len(PROTOCOLS)} protocols round-trip, fault and order checks in {t.elapsed:.1f}s")
