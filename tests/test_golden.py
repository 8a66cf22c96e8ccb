"""Golden transcripts: one pinned sha256 per protocol over a fixed grid of
runs, so a change to the protocol code that alters any transcript line,
recorded layer key or ciphertext byte fails here.

Each fingerprint covers, in order, every combination of
  * context seed 0, 7 and 77;
  * default material, a ``str`` plaintext, and material setting the
    sequence ranks (with a binary plaintext);
  * no perturbation, a one-byte flip of the ``encrypted`` artifact, a flip
    of the ``f4`` artifact, and each registered pair with its private index
    poisoned after the context is created.

A second pin covers Topcode strings: seeded colored trees read row-major,
column-major and by a rank, and under a reversed edge order and a
bipartition side.
"""

import hashlib
import math
import random

import pytest

from topocode import protocols as P
from topocode.graphs import ColoredGraph, Graph
from topocode.protocols import PROTOCOLS, GroupKeyPair, ProtocolContext, run_protocol
from topocode.topcode import PermIndex, string_from_topcode, topcode_from_graph

SEEDS = (0, 7, 77)
MATERIALS = (
    {},
    {"plaintext": "a str plaintext, seal it"},
    {
        "plaintext": b"\x00\xffbinary",
        "sequence_length": 5,
        "alice_rank": 3,
        "bob_rank": 1,
        "bob_string_rank": 3,
    },
)
ARTIFACTS = ("encrypted", "f4")
PAIRS = ("alice-string", "alice-graph", "bob-string", "bob-graph")

GOLDEN = {
    "graph-key-only": "7f76a653b844b8301c0ebae38c881e6912c99fbde2f3a42cd1fd3d9f7c559f54",
    "graph-string-key": "8d126853c4f58e895818ad5efa58073940f1d0f459048a144177743557394dd7",
    "key-pair-plan-1": "613ec7d6e72634fabd600f8ad86b98bcb3b55c721df4d7754673576d0198cacf",
    "key-pair-plan-2": "df485a4d150f58d2bde64b811373c95ee6cecc749365ba889a1a10354c21c300",
    "key-pair-plan-3": "eca71c43de707f247ff003e9ae97b10c98a13e406d005da0b99ce013243a3346",
    "key-pair-plan-4": "ee8671c6b3f57b16764bc5e26f44c27b2a41f890ff95d6135490aed520075df6",
    "self-cert-1": "a44664fff55ae5aaa00f6ec98c338750d78597199d891019d6dcd265e0229005",
    "self-cert-2": "23590935086b88bfe7d340999e44810a5134d03c6dd3cdb2222927044031a2ab",
    "self-cert-3": "fddc22e5085bfb103e68a297edf2245a62f2489584970612a6a0cd8334c9d40b",
    "self-cert-4": "02dcf141675d05f45f8e747d4b299e10efe763ee800f0cbabb2888bb49fccacf",
    "self-cert-5": "8d14719dfccec3766c391c9724ef1d92f9400a019a8370b2bb9da20e456bfdd8",
    "string-key-only": "b3ea1546521bf6ef35867609ffac25b5996d6a69c69ec05b68c1880b10ecec49",
    "tkpdra": "d6c07bd76d29c1bc8ff14a7e5d92ef31648f056992e6c8c61dc5d91ff62f679d",
    "top-en-decryption-1": "e770e281ee98c53eb7bffac57500ef81c242f423f09735e1f8e3b0abee4396ca",
    "top-en-decryption-2": "c977941fde3731a1749fcb88bc9e594553c6809a63fc1f1b0631f8426bcc9ebb",
}


def _flip(blob: bytes) -> bytes:
    out = bytearray(blob)
    out[len(out) // 2] ^= 0x5A
    return bytes(out)


def _poisoned_create(pair_name: str):
    original = ProtocolContext.create

    def create(seed):
        ctx = original(seed)
        pair = ctx.pairs[pair_name]
        ctx.pairs[pair_name] = GroupKeyPair(
            pair.group_id, pair.order, pair.pub_index,
            (pair.pri_index + 1) % pair.order, pair.signature_index,
        )
        return ctx

    return staticmethod(create)


def _feed(h, transcript) -> None:
    h.update(transcript.to_jsonl().encode())
    h.update(b"\x1elayers:" + "|".join(transcript.layers).encode())
    h.update(b"\x1ecipher:" + transcript.ciphertext.hex().encode() + b"\x1d")


def fingerprint(protocol_id: str, monkeypatch) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        for material in MATERIALS:
            _feed(h, run_protocol(protocol_id, material, seed=seed))
            for name in ARTIFACTS:
                _feed(h, run_protocol(protocol_id, material, seed=seed, tamper={name: _flip}))
            for pair_name in PAIRS:
                with monkeypatch.context() as m:
                    m.setattr(P.ProtocolContext, "create", _poisoned_create(pair_name))
                    _feed(h, run_protocol(protocol_id, material, seed=seed))
    return h.hexdigest()


def test_every_protocol_pinned():
    assert sorted(GOLDEN) == sorted(PROTOCOLS)


@pytest.mark.parametrize("protocol_id", sorted(PROTOCOLS))
def test_golden_transcripts(protocol_id, monkeypatch):
    assert fingerprint(protocol_id, monkeypatch) == GOLDEN[protocol_id]


TOPCODE_GOLDEN = "7ae990f6aecad09dd367ad2761436dbc548173677338fbb058f7efdb78e348e5"


def topcode_strings_fingerprint() -> str:
    h = hashlib.sha256()
    for q in (1, 10, 100, 1000):
        rng = random.Random(q)
        edges = [(rng.randrange(v), v) for v in range(1, q + 1)]
        cg = ColoredGraph(
            Graph.build(range(q + 1), edges),
            {v: rng.randrange(2 * q + 1) for v in range(q + 1)},
            {e: rng.randint(1, q + 1) for e in edges},
        )
        t = topcode_from_graph(cg)
        rank = rng.randrange(math.factorial(3 * q))
        for perm in (None, PermIndex.column_major(q), PermIndex.from_rank(rank, 3 * q)):
            h.update(str(string_from_topcode(t, perm)).encode() + b"\n")
        flipped = topcode_from_graph(cg, edge_order=[(v, u) for u, v in reversed(edges)])
        sided = topcode_from_graph(cg, x_side=cg.graph.bipartition()[1])
        for t in (flipped, sided):
            h.update(str(string_from_topcode(t)).encode() + b"\n")
    return h.hexdigest()


def test_topcode_strings_golden():
    assert topcode_strings_fingerprint() == TOPCODE_GOLDEN
