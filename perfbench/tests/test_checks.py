"""The benchmark's checkers accept correct outputs and reject corrupted ones.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[0:0] = [str(ROOT), str(ROOT / "src")]

from topocode import graphs, protocols, strings  # noqa: E402

from perfbench import checks, inputs, label, proto, tg  # noqa: E402
from perfbench.checks import CheckError  # noqa: E402
from perfbench.ops import Fault, Op, Tally, run_round  # noqa: E402


def _flip(blob: bytes, i: int) -> bytes:
    return blob[:i] + bytes([blob[i] ^ 0x40]) + blob[i + 1 :]


def test_reference_seal_matches_and_rejects_a_flipped_byte():
    key = strings.DigitString.parse("3141592")
    plain = random.Random(3).randbytes(5000)
    sealed = protocols.seal(plain, key)
    assert sealed == checks.ref_seal(plain, key.digits)
    assert checks.ref_unseal(sealed, key.digits) == plain
    assert checks.check_sealed("key-pair-plan-1", sealed, plain, ["3141592", "27"]) == 1
    for i in (0, 10, 40, len(sealed) - 1):
        assert checks.ref_unseal(_flip(sealed, i), key.digits) is None
        with pytest.raises(CheckError):
            checks.check_sealed("key-pair-plan-1", _flip(sealed, i), plain, ["3141592", "27"])


@pytest.mark.parametrize("protocol_id", proto.PROTOCOL_IDS)
def test_sealed_check_rejects_one_layer_too_few(protocol_id):
    plain = b"one layer too few"
    t = protocols.run_protocol(protocol_id, {"plaintext": plain}, seed=11)
    sealed, recorded = checks.PROTOCOL_LAYERS[protocol_id]
    assert checks.check_sealed(protocol_id, t.ciphertext, plain, t.layers) == sealed
    thinner = plain
    for text in t.layers[: sealed - 1]:
        thinner = checks.ref_seal(thinner, checks.key_digits(text))
    with pytest.raises(CheckError, match="sealed under"):
        checks.check_sealed(protocol_id, thinner, plain, t.layers)
    with pytest.raises(CheckError, match="recorded"):
        checks.check_sealed(protocol_id, t.ciphertext, plain, t.layers[:-1])


def test_stack_op_rejects_a_flipped_cipher_byte():
    ops = proto._stack_ops(random.Random(5), 1)
    seal_op = ops[0]
    out = seal_op.call()
    with pytest.raises(CheckError):
        seal_op.check(_flip(out, 100))
    seal_op.check(out)


def test_labeling_check_rejects_a_repeated_vertex_label():
    spine, leaves, edges = inputs.caterpillar(7, random.Random(11))
    f = checks.caterpillar_graceful(spine, leaves)
    checks.check_labeling(sorted(f), edges, f, None, "graceful", set_ordered=True)
    a, b = sorted(f)[:2]
    bad = dict(f)
    bad[a] = bad[b]
    with pytest.raises(CheckError, match="repeat"):
        checks.check_labeling(sorted(f), edges, bad, None, "graceful")


@pytest.mark.parametrize("family", ["graceful", "odd-graceful", "harmonious", "odd-elegant", "edge-magic"])
def test_search_op_check_rejects_a_repeated_vertex_label(family):
    n = 6
    g = graphs.Graph.build(range(n), inputs.pruefer_tree(n, random.Random(2)))
    op = label._search_op(family, g, f"{family};labeling", family)
    result = op.call()
    op.check(result)
    vc = dict(result.coloring.vcolors)
    vc[0] = vc[1]
    result.coloring = graphs.ColoredGraph(g, vc, result.coloring.ecolors)
    with pytest.raises(CheckError):
        op.check(result)


def test_kd_coloring_check_rejects_a_broken_constant():
    spine, leaves, edges = inputs.caterpillar(5, random.Random(4))
    f = checks.caterpillar_graceful(spine, leaves)
    xs, ys = checks.bipartition(sorted(f), edges)
    if max(f[v] for v in xs) > min(f[v] for v in ys):
        xs = ys
    for family in ("graceful", *label.MAGIC):
        vc, ec, c = label._lift(f, xs, edges, family, 2, 3)
        checks.check_kd_coloring(sorted(f), edges, vc, ec, family, 2, 3, c)
        bad = dict(ec)
        bad[edges[0]] += 3
        with pytest.raises(CheckError):
            checks.check_kd_coloring(sorted(f), edges, vc, bad, family, 2, 3, c)


def test_free_tree_counts_and_isomorphism():
    forest = checks.free_trees(10)
    for n in range(1, 11):
        checks.check_free_tree_set(n, forest[n])
    duplicated = list(forest[6])
    # a relabeled copy of the first tree replaces the last one
    verts, edges = duplicated[0]
    swap = {v: len(verts) - 1 - v for v in verts}
    duplicated[-1] = (verts, sorted(tuple(sorted((swap[u], swap[v]))) for u, v in edges))
    with pytest.raises(CheckError, match="isomorphic"):
        checks.check_free_tree_set(6, duplicated)
    with pytest.raises(CheckError):
        checks.check_free_tree_set(6, forest[6][:-1])


def test_lehmer_unrank_is_lexicographic():
    for n in range(1, 6):
        perms = list(itertools.permutations(range(n)))
        assert [tuple(checks.lehmer_unrank(r, n)) for r in range(len(perms))] == perms


def test_topcode_op_rejects_a_wrong_reading():
    ops = tg._topcode_ops(random.Random(9), 10)
    for op in ops:
        out = op.call()
        op.check(out)
        digits = str(out)
        wrong = strings.DigitString.parse(digits[1:] + digits[0]) if len(set(digits)) > 1 else None
        if wrong is not None:
            with pytest.raises(CheckError):
                op.check(wrong)


def test_group_op_table_check_rejects_a_wrong_index():
    for mode in strings.GroupOpMode:
        op = tg._group_op_table(random.Random(1), 7, mode)
        group, table = op.call()
        op.check((group, table))
        bad = list(table)
        bad[5] = (bad[5] + 1) % 7
        with pytest.raises(CheckError):
            op.check((group, bad))


def test_graphic_table_check_rejects_a_wrong_index():
    op = tg._graphic_table(random.Random(2), 10)
    table = op.call()
    op.check(table)
    bad = list(table)
    bad[3] = (bad[3][0], bad[3][1] + 1)
    with pytest.raises(CheckError):
        op.check(bad)


def test_split_check_rejects_a_missing_edge():
    trees = [sorted(t.edges) for t in graphs.split_complete_even(5)]
    checks.check_split(10, trees, 5)
    with pytest.raises(CheckError):
        checks.check_split(10, [trees[0][:-1]] + trees[1:], 5)
    moved = [list(t) for t in trees]
    moved[1][0] = moved[0][0]
    with pytest.raises(CheckError):
        checks.check_split(10, moved, 5)


def test_counts_and_tables():
    assert [checks.cayley_count(n) for n in range(2, 8)] == [1, 3, 16, 125, 1296, 16807]
    assert checks.bipartite_count(3, 3) == 81 and checks.bipartite_count(2, 4) == 32
    op = tg._count_op("complete", 5)
    op.check(op.call())
    with pytest.raises(CheckError):
        op.check((125, 124))
    for which in (1, 2):
        table_op = tg._table_op(which)
        result = table_op.call()
        table_op.check(result)
        rows = [list(r) for r in result.rows]
        rows[3][2] = rows[3][2][::-1] if rows[3][2] != rows[3][2][::-1] else "0" + rows[3][2][1:]
        with pytest.raises(CheckError):
            table_op.check(type(result)(result.header, tuple(tuple(r) for r in rows), result.notes))


def test_pronbs_check_rejects_a_missing_source():
    op = tg._pronbs_op(random.Random(6), 4)
    s, candidates = op.call()
    op.check((s, candidates))
    with pytest.raises(CheckError):
        op.check((s, []))


def test_brute_force_set_ordered_matches_known_trees():
    # every caterpillar has one; the 7-vertex spider with three legs of length 2 has none
    spine, leaves, edges = inputs.caterpillar(6, random.Random(8))
    assert checks.brute_force_set_ordered_graceful(range(7), edges)
    spider = [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]
    assert not checks.brute_force_set_ordered_graceful(range(7), spider)


def test_cli_contract_rejects_tracebacks_and_wrong_codes():
    checks.check_cli_contract(1, "error: bad input\n", (1, 2))
    with pytest.raises(CheckError):
        checks.check_cli_contract(1, "unknown protocol\n", (2,))
    with pytest.raises(CheckError):
        checks.check_cli_contract(1, "Traceback (most recent call last):\nKeyError\n", (1, 2))


def test_partition_fault_op_fails_and_honest_pair_passes():
    rng = random.Random(4)
    honest = proto._partition_op("sum", proto._partition_params(rng, "sum"))
    honest.check(honest.call())
    fixed = {"target": 15, "parts": [4, 5, 6], "position": 0, "public_refinement": [1, 3],
             "private_refinement": [2, 3], "mode": "sum"}
    changed = proto._partition_op("changed", fixed, [9, 9, 9])
    with pytest.raises(CheckError):
        changed.check(changed.call())


def test_fault_op_failing_for_another_reason_is_unexpected():
    def wrong_verdict(out) -> None:
        raise CheckError("verdict True, expected False")

    def crash():
        raise KeyError("protocol")

    fault = Fault("partition-authenticate", "CheckError: verdict True, expected False")
    ops = [Op("expected", lambda: None, wrong_verdict, fault), Op("other reason", crash, wrong_verdict, fault)]
    tally = Tally.of(ops)
    run_round(ops, tally)
    assert (tally.attempted, tally.failed) == (2, 2)
    assert tally.unexpected == ["other reason: KeyError: 'protocol' (expected 'CheckError: verdict True, expected False')"]
