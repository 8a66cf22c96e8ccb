"""Deterministic simulations of the topology-based key-pair protocols.

Encryption is a deliberately toy additive keystream over bytes (mod 256)
keyed by digit strings; each layer carries a magic prefix and a payload
hash so that peeling layers out of order, or with the wrong key, fails.
Byte i is shifted by key digit i mod n, so every stride ``data[j::n]``
takes one fixed shift: the cipher runs one ``bytes.translate`` per stride
with a precomputed rotation table (``_shift``): the input is copied into a
bytearray and shifted there, stride by stride, in place.  Where strides
would be shorter than 8 bytes (short data, long keys) it looks each byte up
in its position's table instead.  Each layer, of any length, is shifted in
one such pass and then checked: the magic first, then the payload hash.
Graphs key a layer through their row-major Topcode string.  The protocol
context is two every-zero string groups of layer keys, each with its zero:
a seeded shift group, and the graph keys, which are the compound
pipeline's strings of the P3 base and shared by every context.
Public/private pairs index these groups: authentication recomputes the
registered signature element through the i+j-zero index law, and a
decryptor derives the counterpart element the same way, so corrupting any
single component breaks the first step that touches it.

Every protocol is straight-line calls to two primitives: ``send`` seals a
payload under keys innermost first, records them on ``layers`` and yields
the transmitted artifact (``encrypted``, or ``f4`` for tkpdra), which a
tamper hook may alter; ``peel`` authenticates a registered pair when one is
named, derives the layer key from its known side, and opens the outermost
layer.  Layers come off last-on, first-off: the reverse of ``layers``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from itertools import cycle
from operator import getitem
from typing import Callable, Iterable, Mapping, Sequence

from .graphs import ColoredGraph, CoincideRule, Graph, GraphError, split_complete_even, vertex_coincide
from .strings import DigitString, GroupError, GroupOpMode, StringGroup, build_shift_group, index_law
from .topcode import assignment_substitute, string_from_topcode, topcode_from_graph
from .groups import group_compound


class ProtocolError(ValueError):
    pass


class LayerError(ProtocolError):
    """A cipher layer failed to open: wrong key, wrong order, or tampering."""


class Direction(Enum):
    ENCRYPT = "encrypt"
    DECRYPT = "decrypt"


# _SHIFT[s] maps byte b to (b + s) mod 256 under bytes.translate: the
# identity table rotated by s, sliced from two copies of it
_TWO_IDENTITIES = bytes(range(256)) * 2
_SHIFT = tuple(_TWO_IDENTITIES[s : s + 256] for s in range(256))
# below this many bytes per stride, one table lookup per byte costs less
# than a translate call per stride
_MIN_STRIDE = 8


def _shift_tables(key: DigitString, sign: int) -> list[bytes]:
    """The translate table of each key digit: b -> (b + sign * digit) mod 256."""
    if len(key) == 0:
        raise ProtocolError("empty cipher key")
    return [_SHIFT[sign * d % 256] for d in key.digits]


def _shift(data: bytes | memoryview, tables: list[bytes]) -> bytes | bytearray:
    """`data` with byte i shifted by tables[i mod n].  Where strides would be
    shorter than _MIN_STRIDE bytes each byte is looked up in its position's
    table; otherwise `data` is copied once into a bytearray and shifted there,
    stride by stride, in place.  `data` itself is never written."""
    n = len(tables)
    if len(data) < _MIN_STRIDE * n:
        return bytes(map(getitem, cycle(tables), data))
    out = bytearray(data)
    for j, table in enumerate(tables):
        out[j::n] = out[j::n].translate(table)
    return out


def keystream_cipher(data: bytes, key: DigitString, direction: Direction) -> bytes:
    """Shift byte i by the key digit at i mod len(key), mod 256, in one pass."""
    sign = 1 if direction is Direction.ENCRYPT else -1
    return bytes(_shift(data, _shift_tables(key, sign)))


_MAGIC = b"TPC1"
_HEADER = len(_MAGIC) + hashlib.sha256().digest_size


def seal(payload: bytes, key: DigitString) -> bytes:
    """One encryption layer: magic + payload hash + payload, keystreamed in
    one pass, so the payload continues the header's stream at position 36."""
    header = _MAGIC + hashlib.sha256(payload).digest()
    return bytes(_shift(header + payload, _shift_tables(key, 1)))


def _open(blob: bytes, key: DigitString) -> tuple[bytes, bytes]:
    """Open one layer and return its payload with the payload's sha256 digest,
    checked against the header: the magic first, then the hash.  The whole
    layer is deciphered in one pass before either check."""
    plain = _shift(blob, _shift_tables(key, -1))
    if plain[: len(_MAGIC)] != _MAGIC:
        raise LayerError("layer magic mismatch: wrong key or wrong order")
    payload = bytes(memoryview(plain)[_HEADER:])
    digest = hashlib.sha256(payload).digest()
    if digest != plain[len(_MAGIC) : _HEADER]:
        raise LayerError("layer hash mismatch: payload corrupted")
    return payload, digest


def unseal(blob: bytes, key: DigitString) -> bytes:
    """Open one layer and return its payload.  A wrong key or order fails on
    the magic, a corrupted payload on the header's sha256 (both checks in
    ``_open``, in that order)."""
    return _open(blob, key)[0]


def _digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Key pairs and authentication records.
# ---------------------------------------------------------------------------


@dataclass
class AuthRecord:
    result: str
    verdict: bool


@dataclass
class GroupKeyPair:
    """Indices into an every-zero group; the signature is the group element
    at (pub + pri - zero) mod order, fixed at registration time.  Every
    index must be an integer in range(order) (``strings.index_law``)."""

    group_id: str
    order: int
    pub_index: int
    pri_index: int
    signature_index: int

    @staticmethod
    def issue(group_id: str, order: int, pub: int, pri: int, zero: int) -> "GroupKeyPair":
        return GroupKeyPair(group_id, order, pub, pri, index_law(pub, pri, zero, order))

    def authenticate(self, zero: int) -> AuthRecord:
        computed = index_law(self.pub_index, self.pri_index, zero, self.order)
        return AuthRecord(f"{self.group_id}[{computed}]", computed == self.signature_index)

    def derive_counterpart(self, known_index: int, zero: int) -> int:
        """Given one side's index, the other side via the registered signature."""
        return index_law(self.signature_index, known_index, zero, self.order, GroupOpMode.SUBADD)


@dataclass
class PartitionKeyPair:
    """Twin-refinement strings: two adjacent parts of a sum (or factors of a
    product) each refined; the authentication string interleaves both
    refinements between the untouched parts."""

    target: int
    parts: tuple[int, ...]
    position: int  # refine parts[position] (public) and parts[position+1] (private)
    public_refinement: tuple[int, ...]
    private_refinement: tuple[int, ...]
    mode: str  # 'sum' or 'product'

    def __post_init__(self) -> None:
        problem = self._mismatch()
        if problem is not None:
            raise ProtocolError(problem)

    def _mismatch(self) -> str | None:
        """Why the refinements do not rebuild their parts, or the parts the
        target; None when everything rebuilds."""
        combine = {"sum": sum, "product": math.prod}.get(self.mode)
        if combine is None:
            return f"partition mode must be 'sum' or 'product', not {self.mode!r}"
        if combine(self.parts) != self.target:
            return f"parts do not {self.mode} to {self.target}"
        if combine(self.public_refinement) != self.parts[self.position]:
            return "public refinement does not rebuild its part"
        if combine(self.private_refinement) != self.parts[self.position + 1]:
            return "private refinement does not rebuild its part"
        return None

    def public_string(self) -> DigitString:
        return self._assemble({self.position: self.public_refinement})

    def private_string(self) -> DigitString:
        return self._assemble({self.position + 1: self.private_refinement})

    def authentication_string(self) -> DigitString:
        return self._assemble(
            {self.position: self.public_refinement, self.position + 1: self.private_refinement}
        )

    def _assemble(self, refined: Mapping[int, tuple[int, ...]]) -> DigitString:
        pieces: list[str] = []
        for i, part in enumerate(self.parts):
            if i in refined:
                pieces.extend(str(v) for v in refined[i])
            else:
                pieces.append(str(part))
        return DigitString.parse("".join(pieces))

    def authenticate(self) -> AuthRecord:
        """Re-derive the refinements against the parts and the parts against
        the target, so a refinement changed after issue fails."""
        return AuthRecord(str(self.authentication_string()), self._mismatch() is None)


def bipartite_keypair(m: int, n: int, public_edges: Iterable[tuple[int, int]]) -> tuple[Graph, Graph]:
    """Public subgraph of K_{m,n} and its edge complement as the private part."""
    host = Graph.complete_bipartite(m, n)
    pub = Graph.build(host.vertices, public_edges)
    if not pub.edges <= host.edges:
        raise ProtocolError("public edges must lie inside the complete bipartite host")
    pri = Graph.build(host.vertices, host.edges - pub.edges)
    return pub, pri


def authenticate_coincide(
    parts: Sequence[ColoredGraph], target: Graph
) -> AuthRecord:
    """Graph-mode authentication: the parts must coincide by color onto the
    target with pairwise-disjoint edge sets."""
    try:
        merged = vertex_coincide(list(parts), CoincideRule.BY_COLOR)
    except GraphError as exc:
        return AuthRecord(f"error: {exc}", False)
    return AuthRecord(_digest(json.dumps(merged.graph.to_json(), sort_keys=True)), merged.graph == target)


# ---------------------------------------------------------------------------
# The shared protocol context: two every-zero string groups of layer keys,
# each with its zero, and the registered key pairs of the two actors.
# ---------------------------------------------------------------------------

STRING_GROUP_ORDER = 9
GRAPH_GROUP_ORDER = 6


def _p3_graceful_base() -> ColoredGraph:
    g = Graph.path(3)
    return ColoredGraph(g, {1: 0, 2: 2, 3: 1}, {(1, 2): 2, (2, 3): 1})


# Graph t of the one-index graphic group over the P3 base keys a layer
# through its row-major Topcode string: the compound pipeline's element t.
# The group depends on no seed, so every context shares it.
GRAPH_KEYS = group_compound(_p3_graceful_base(), GRAPH_GROUP_ORDER)[2]


@dataclass
class ProtocolContext:
    """Deterministic key material shared by the protocol simulations: the
    layer-key groups and their zeros by group id, and the registered pairs."""

    seed: int
    groups: dict[str, StringGroup] = field(default_factory=dict)
    zeros: dict[str, int] = field(default_factory=dict)
    pairs: dict[str, GroupKeyPair] = field(default_factory=dict)

    @staticmethod
    def create(seed: int) -> "ProtocolContext":
        rng = random.Random(seed)
        seed_digits = DigitString(tuple(rng.randint(1, 8) for _ in range(8)))
        groups = {
            "string-group": build_shift_group(seed_digits, k=1, m=STRING_GROUP_ORDER),
            "graph-group": GRAPH_KEYS,
        }
        ctx = ProtocolContext(seed, groups, {gid: rng.randrange(g.order) for gid, g in groups.items()})
        for actor in ("alice", "bob"):
            for gid, g in groups.items():
                pub = rng.randrange(g.order)
                pri = rng.randrange(g.order)
                ctx.pairs[f"{actor}-{gid.removesuffix('-group')}"] = GroupKeyPair.issue(
                    gid, g.order, pub, pri, ctx.zeros[gid]
                )
        return ctx

    def key_of(self, pair_name: str, side: str) -> DigitString:
        """The layer key of one side ("pub", "pri" or "signature") of a
        registered pair."""
        pair = self.pairs[pair_name]
        return self.groups[pair.group_id].elements[getattr(pair, f"{side}_index")]

    def derived_key(self, pair_name: str, known_side: str) -> DigitString:
        """Derive the *other* side's layer key from the known side, the
        registered signature, and the group zero."""
        pair = self.pairs[pair_name]
        known = getattr(pair, f"{known_side}_index")
        return self.groups[pair.group_id].elements[pair.derive_counterpart(known, self.zero_of(pair_name))]

    def zero_of(self, pair_name: str) -> int:
        return self.zeros[self.pairs[pair_name].group_id]


def rotate_zero(ctx: ProtocolContext, group_id: str, new_zero: int) -> None:
    """Replace the common zero and re-issue every signature under it.  A bad
    group or zero raises ProtocolError and leaves the context unchanged.

    Authentication records computed before the rotation no longer verify."""
    if group_id not in ctx.groups:
        raise ProtocolError(f"unknown group {group_id!r}")
    try:
        index_law(0, 0, new_zero, ctx.groups[group_id].order)
    except GroupError as exc:
        raise ProtocolError(f"zero {new_zero!r} outside the {group_id}") from exc
    ctx.zeros[group_id] = new_zero
    for name, pair in ctx.pairs.items():
        if pair.group_id == group_id:
            ctx.pairs[name] = GroupKeyPair.issue(
                pair.group_id, pair.order, pair.pub_index, pair.pri_index, new_zero
            )


# ---------------------------------------------------------------------------
# Transcripts.
# ---------------------------------------------------------------------------


# a step row and the verdict row as json.dumps writes them by default:
# ASCII-escaped strings, ", " and ": " separators, keys in insertion order
_STEP_ROW = '{"step": %s, "actor": %s, "action": %s, "sha256": %s}\n'
_VERDICT_ROW = '{"verdict": %s, "failing_step": %s, "protocol": %s}\n'
_quote = json.encoder.encode_basestring_ascii


@dataclass
class TranscriptStep:
    step: str
    actor: str
    action: str
    payload_digest: str


@dataclass
class ProtocolTranscript:
    protocol_id: str
    seed: int
    steps: list[TranscriptStep] = field(default_factory=list)
    verdict: bool = False
    failing_step: str | None = None
    layers: list[str] = field(default_factory=list)  # key texts, innermost first
    ciphertext: bytes = b""

    def log(self, step: str, actor: str, action: str, payload: bytes | str = b"") -> None:
        self.steps.append(TranscriptStep(step, actor, action, _digest(payload)))

    def to_jsonl(self) -> str:
        """One JSON object a line: a row per step, then the verdict row.  Each
        row is filled into its template by the escaper ``json.dumps`` uses,
        byte for byte what ``json.dumps`` writes for it."""
        rows = [
            _STEP_ROW % (_quote(s.step), _quote(s.actor), _quote(s.action), _quote(s.payload_digest))
            for s in self.steps
        ]
        failing = "null" if self.failing_step is None else _quote(self.failing_step)
        rows.append(_VERDICT_ROW % ("true" if self.verdict else "false", failing, _quote(self.protocol_id)))
        return "".join(rows)

    def digest(self) -> str:
        return _digest(self.to_jsonl())


class _Abort(Exception):
    def __init__(self, step: str, reason: str):
        super().__init__(reason)
        self.step = step
        self.reason = reason


Tamper = Mapping[str, Callable[[bytes], bytes]]


@dataclass
class _Run:
    """Shared bookkeeping for one protocol execution."""

    transcript: ProtocolTranscript
    ctx: ProtocolContext
    tamper: Tamper

    def send(self, blob: bytes, keys: Iterable[DigitString], artifact: str | None = "encrypted") -> bytes:
        """Seal `blob` under `keys`, innermost first, recording each key on
        the transcript.  The result is the transmitted artifact `artifact`:
        its tamper hook applies and it becomes the ciphertext.  With
        `artifact=None` the stack is an intermediate, never transmitted."""
        for key in keys:
            self.transcript.layers.append(str(key))
            blob = seal(blob, key)
        if artifact is None:
            return blob
        if artifact in self.tamper:
            blob = self.tamper[artifact](blob)
        self.transcript.ciphertext = blob
        return blob

    def peel(
        self, step: str, actor: str, action: str, blob: bytes,
        key: DigitString | None = None, auth: str | None = None, known: str = "pri",
    ) -> bytes:
        """Open the outermost layer of `blob` and log its payload.  When `auth`
        names a registered pair, authenticate it first; with no `key`, the
        layer key is derived from that pair's `known` side.  The logged
        digest is the sha256 that ``_open`` just checked against the layer
        header, so the payload is hashed once."""
        if auth is not None:
            record = self.ctx.pairs[auth].authenticate(self.ctx.zero_of(auth))
            self.check_auth(step, actor, record, f"authenticate {auth}")
            if key is None:
                key = self.ctx.derived_key(auth, known)
        try:
            out, digest = _open(blob, key)
        except LayerError as exc:
            raise _Abort(step, f"{action}: {exc}") from exc
        self.transcript.steps.append(TranscriptStep(step, actor, action, digest.hex()[:16]))
        return out

    def check_auth(self, step: str, actor: str, record: AuthRecord, action: str) -> None:
        self.transcript.log(step, actor, f"{action} -> {record.result}", record.result)
        if not record.verdict:
            raise _Abort(step, f"{action} failed")


# ---------------------------------------------------------------------------
# Example-1 material: the public tree G and private trees T, J of K_6.
# ---------------------------------------------------------------------------

EXAMPLE1_G = {(1, 5): 4, (3, 5): 2, (5, 6): 1, (2, 6): 4, (4, 6): 2}
EXAMPLE1_T = {(4, 5): 1, (2, 4): 2, (1, 4): 3, (1, 6): 5, (1, 3): 2}
EXAMPLE1_J = {(1, 2): 1, (2, 5): 3, (2, 3): 1, (3, 4): 1, (3, 6): 3}
EXAMPLE1_ORDERS = {
    "G": [(1, 5), (3, 5), (5, 6), (2, 6), (4, 6)],
    "T": [(4, 5), (2, 4), (1, 4), (1, 6), (1, 3)],
    "J": [(1, 2), (2, 5), (2, 3), (3, 4), (3, 6)],
}


def example1_tree(edge_map: Mapping[tuple[int, int], int]) -> ColoredGraph:
    g = Graph.build(range(1, 7), edge_map.keys())
    return ColoredGraph(g, {v: v for v in range(1, 7)}, dict(edge_map))


def example1_string(name: str) -> DigitString:
    tree = example1_tree({"G": EXAMPLE1_G, "T": EXAMPLE1_T, "J": EXAMPLE1_J}[name])
    return string_from_topcode(topcode_from_graph(tree, EXAMPLE1_ORDERS[name]))


_ASSIGNMENT_TABLE = {1: "142857", 2: "6174", 3: "0618", 4: "31415926", 5: "8128", 6: "196"}


def _assignment_from_string(base: DigitString, key_source: DigitString) -> DigitString:
    """An assignment-style public key: every digit of the base expands to the
    key source rotated by that digit."""
    text = str(key_source)
    pieces = []
    for d in base.digits:
        r = d % len(text)
        pieces.append(text[r:] + text[:r])
    return DigitString.parse("".join(pieces))


# ---------------------------------------------------------------------------
# Protocol bodies.  Each takes (run, material), seals with run.send and
# returns what run.peel recovered; the plaintext round-trip check happens in
# run_protocol.
# ---------------------------------------------------------------------------


def _material_plaintext(material: Mapping) -> bytes:
    plain = material.get("plaintext", b"attack at dawn")
    if isinstance(plain, str):
        plain = plain.encode()
    return plain


def _proto_top_en_1(run: _Run, material: Mapping) -> bytes:
    t = run.transcript
    g = material.get("public_tree", example1_tree(EXAMPLE1_G))
    privates = material.get("private_trees", [example1_tree(EXAMPLE1_T), example1_tree(EXAMPLE1_J)])
    target = material.get("target", Graph.complete(6))
    orders = material.get("edge_orders", [EXAMPLE1_ORDERS["G"], EXAMPLE1_ORDERS["T"], EXAMPLE1_ORDERS["J"]])

    s_pub = string_from_topcode(topcode_from_graph(g, orders[0]))
    doc = run.send(_material_plaintext(material), [s_pub])
    t.log("init", "alice", f"encrypt with s_pub={s_pub}", doc)

    t.log("step-1", "alice", f"private-key graphs located: {len(privates)}")
    pri_strings = [
        string_from_topcode(topcode_from_graph(p, order))
        for p, order in zip(privates, orders[1:])
    ]
    t.log("step-2", "alice", "private strings " + " / ".join(str(s) for s in pri_strings))

    record = authenticate_coincide([g] + list(privates), target)
    run.check_auth("step-3", "alice", record, "coincide onto the target graph")

    return run.peel("step-4", "alice", f"decrypt with authenticated s_pub={s_pub}", doc, s_pub)


def _proto_top_en_2(run: _Run, material: Mapping) -> bytes:
    t = run.transcript
    g = material.get("public_tree", example1_tree(EXAMPLE1_G))
    privates = material.get("private_trees", [example1_tree(EXAMPLE1_T), example1_tree(EXAMPLE1_J)])
    target = material.get("target", Graph.complete(6))
    table = material.get("assignment_table", _ASSIGNMENT_TABLE)

    whole = topcode_from_graph(g, EXAMPLE1_ORDERS["G"])
    s_star = assignment_substitute(string_from_topcode(whole), table)
    doc = run.send(_material_plaintext(material), [s_star])
    t.log("init", "alice", "encrypt with the assignment string", doc)

    for p, order in zip(privates, (EXAMPLE1_ORDERS["T"], EXAMPLE1_ORDERS["J"])):
        whole = whole.concat(topcode_from_graph(p, order))
    t.log("cons-1", "alice", f"coincided matrix spans q={whole.q}")

    record = authenticate_coincide([g] + list(privates), target)
    run.check_auth("auth", "alice", record, "coincide onto the target graph")

    return run.peel("cons-2", "alice", "decrypt with the assignment string", doc, s_star)


def _proto_identity_signature(
    labels: tuple[str, str, str, tuple[tuple[str, str], ...]], run: _Run, material: Mapping
) -> bytes:
    """string-key-only, graph-key-only and graph-string-key: bob seals under
    alice's public keys, then under his identity signature; alice peels the
    signature, then each of her layers with a key derived from her private
    side.  `labels` is (step prefix, alice's announcement, bob's description,
    alice's (key kind, peel action) pairs innermost first)."""
    prefix, announcement, description, layers = labels
    t = run.transcript
    ctx = run.ctx
    keys = [ctx.key_of(f"alice-{kind}", "pub") for kind, _ in layers]
    t.log(f"{prefix}-1", "alice", announcement.format(*keys))

    sig_b_key = ctx.key_of("bob-graph", "signature")
    blob = run.send(_material_plaintext(material), keys + [sig_b_key])
    t.log(f"{prefix}-2", "bob", description, blob)

    blob = run.peel(
        f"{prefix}-3", "alice", "peel the identity signature layer", blob, sig_b_key, auth="bob-graph"
    )
    for step, (kind, action) in enumerate(reversed(layers), start=4):
        blob = run.peel(f"{prefix}-{step}", "alice", action, blob, auth=f"alice-{kind}")
    return blob


def _proto_key_pair_plan_1(run: _Run, material: Mapping) -> bytes:
    """Node-to-node with provisional keys; the provisional pair expires after
    step 4 and any later use is an error."""
    t = run.transcript
    ctx = run.ctx
    [provisional] = _drawn_keys(ctx, "string-group", 1, salt=101)
    t.log("send-i-1", "alice", "request provisional keys")
    t.log("send-i-2", "bob", "send provisional public string", str(provisional))

    doc_a = run.send(_material_plaintext(material), [provisional])
    t.log("send-i-3", "alice", "encrypt key package with the provisional key", doc_a)

    opened = run.peel("send-i-4", "bob", "open with the provisional key", doc_a, provisional)
    t.log("send-i-4", "bob", "provisional keys deleted")

    doc_b = run.send(opened, [ctx.key_of("alice-string", "pub")], artifact=None)
    t.log("send-i-5", "bob", "re-encrypt under alice's public string", doc_b)
    return run.peel(
        "send-i-5", "alice", "decrypt with the derived public string", doc_b, auth="alice-string"
    )


def _proto_group_plan(
    plan: tuple[str, int | None, tuple[str, ...], str], run: _Run, material: Mapping
) -> bytes:
    """Plans II-IV: the center re-issues the actors' signatures under the
    group zeros and sends one message to the receiving pair.  `plan` is
    (step prefix, zero salt, actors, receiving pair); with a salt, fresh
    zeros are drawn through ``rotate_zero``, otherwise the context's common
    zeros stay.  Each actor's registered pair must authenticate under its
    current zero before the center re-issues it."""
    prefix, salt, actors, receiver = plan
    ctx = run.ctx
    names = [f"{actor}-{kind}" for actor in actors for kind in ("string", "graph")]
    for name in names:
        if not ctx.pairs[name].authenticate(ctx.zero_of(name)).verdict:
            raise _Abort(f"{prefix}-{name}", f"authenticate {name} failed")
    if salt is not None:
        rng = random.Random(ctx.seed + salt)
        for group_id, group in ctx.groups.items():
            rotate_zero(ctx, group_id, rng.randrange(group.order))
    for name in names:
        record = ctx.pairs[name].authenticate(ctx.zero_of(name))
        run.check_auth(f"{prefix}-{name}", "center", record, f"issue {name}")

    doc = run.send(_material_plaintext(material), [ctx.key_of(receiver, "pub")])
    run.transcript.log("transfer", "center", f"message sealed under {receiver} pub", doc)
    return run.peel("receive", receiver.split("-")[0], "decrypt with the derived key", doc, auth=receiver)


def _proto_tkpdra(run: _Run, material: Mapping) -> bytes:
    """Four nested layers: alice's private string and graph, then bob's
    public string and graph; peeled strictly last-on first-off."""
    t = run.transcript
    ctx = run.ctx
    alice_keys = [ctx.key_of("alice-string", "pri"), ctx.key_of("alice-graph", "pri")]
    f2 = run.send(_material_plaintext(material), alice_keys, artifact=None)
    t.log("tkpdra-1", "alice", "encrypt with private string and private graph", f2)

    f4 = run.send(f2, [ctx.key_of("bob-string", "pub"), ctx.key_of("bob-graph", "pub")], artifact="f4")
    t.log("tkpdra-2", "center", "encrypt with bob's public string and graph", f4)

    # the package row logs the digest of f4 that the row above holds
    t.steps.append(replace(t.steps[-1], step="tkpdra-3", action="package sent to bob: f4 + alice's public keys"))

    f3 = run.peel("tkpdra-4", "bob", "peel bob's graph layer", f4, auth="bob-graph")
    f2 = run.peel("tkpdra-5", "bob", "peel bob's string layer", f3, auth="bob-string")
    f1 = run.peel("tkpdra-6", "bob", "peel alice's graph layer", f2, auth="alice-graph", known="pub")
    return run.peel("tkpdra-7", "bob", "peel alice's string layer", f1, auth="alice-string", known="pub")


def _proto_self_cert_1(run: _Run, material: Mapping) -> bytes:
    t = run.transcript
    ctx = run.ctx
    t.log("self-1.1", "alice", "send key package A")
    t.log("self-1.2", "bob", "send key package B")

    keys = [ctx.key_of("bob-string", "pub"), ctx.key_of("alice-graph", "pri")]
    f2 = run.send(_material_plaintext(material), keys)
    t.log("self-1.3", "alice", "encrypt with s_bpub then private graph", f2)

    peeled = run.peel("self-1.4", "bob", "peel alice's graph layer", f2, auth="alice-graph", known="pub")
    return run.peel("self-1.5", "bob", "decrypt with private string", peeled, auth="bob-string")


def _proto_self_cert_2(run: _Run, material: Mapping) -> bytes:
    t = run.transcript
    ctx = run.ctx
    # bob's first public string drives the assignment key
    [b1] = _drawn_keys(ctx, "string-group", 1, salt=202)
    t.log("self-2.1", "alice", "send key package A")
    t.log("self-2.2", "bob", "send key package B with two public strings")

    keys = [
        ctx.key_of("bob-string", "pub"), ctx.key_of("alice-string", "pri"), ctx.key_of("alice-graph", "pri")
    ]
    blob = run.send(_material_plaintext(material), keys, artifact=None)
    t.log("self-2.3", "alice", "three-layer protection", blob)

    s_star = _assignment_from_string(ctx.key_of("alice-string", "pub"), b1)
    f4 = run.send(blob, [s_star])
    t.log("self-2.4", "alice", "fourth layer: assignment string", f4)
    t.log("self-2.5", "alice", "send encrypted file and the assignment string", s_star.to_text())

    # bob's recomputation reads the same inputs as alice's, so it logs the
    # string's digest and cannot fail
    recomputed = _digest(str(s_star))
    t.log("self-2.6", "bob", f"recompute the assignment string -> {recomputed}", recomputed)
    peeled = run.peel("self-2.6", "bob", "peel the assignment layer", f4, s_star)
    peeled = run.peel("self-2.7", "bob", "peel alice's graph layer", peeled, auth="alice-graph", known="pub")
    peeled = run.peel(
        "self-2.7b", "bob", "peel alice's string layer", peeled, auth="alice-string", known="pub"
    )
    return run.peel("self-2.8", "bob", "decrypt with the second private string", peeled, auth="bob-string")


def _drawn_keys(ctx: ProtocolContext, group_id: str, count: int, salt: int) -> list[DigitString]:
    """`count` layer keys of one group, drawn from a generator seeded with
    the context seed plus `salt`."""
    rng = random.Random(ctx.seed + salt)
    elements = ctx.groups[group_id].elements
    return [elements[rng.randrange(len(elements))] for _ in range(count)]


def _onion(
    run: _Run, material: Mapping, number: int, says: tuple[str, str],
    inner: list[DigitString], stacks: list[tuple[str, str, list[DigitString]]],
) -> bytes:
    """Shared body of self-cert-3/4/5: after the two announcements, seal the
    plaintext under `inner`, then each (peel step, label, keys) stack, and
    peel the stacks back off; returns the blob still sealed under `inner`."""
    t = run.transcript
    t.log(f"self-{number}.1", "alice", says[0])
    t.log(f"self-{number}.2", "bob", says[1])
    keys = inner + [key for _, _, stack in stacks for key in stack]
    blob = run.send(_material_plaintext(material), keys)
    t.log(f"self-{number}.3", "alice", f"{len(keys)}-layer onion", blob)
    for step, label, stack in reversed(stacks):
        for i, key in reversed(list(enumerate(stack, start=1))):
            blob = run.peel(step, "bob", f"peel {label} {i}", blob, key)
    return blob


def _proto_self_cert_3(run: _Run, material: Mapping) -> bytes:
    ctx = run.ctx
    m = int(material.get("sequence_length", 3))
    says = (f"send public graph sequence of rank {m}", "send key package B")
    stacks = [("self-3.4", "graph layer", _drawn_keys(ctx, "graph-group", m, salt=301))]
    blob = _onion(run, material, 3, says, [ctx.key_of("bob-string", "pub")], stacks)
    return run.peel("self-3.5", "bob", "decrypt with private string", blob, auth="bob-string")


def _proto_self_cert_4(run: _Run, material: Mapping) -> bytes:
    ctx = run.ctx
    m = int(material.get("alice_rank", 2))
    n = int(material.get("bob_rank", 2))
    says = (f"send public graph sequence of rank {m}", f"send public graph sequence of rank {n}")
    stacks = [
        ("self-4.5", "alice graph layer", _drawn_keys(ctx, "graph-group", m, salt=401)),
        ("self-4.5", "bob graph layer", _drawn_keys(ctx, "graph-group", n, salt=402)),
    ]
    blob = _onion(run, material, 4, says, [ctx.key_of("bob-string", "pub")], stacks)
    return run.peel("self-4.6", "bob", "decrypt with private string", blob, auth="bob-string")


def _proto_self_cert_5(run: _Run, material: Mapping) -> bytes:
    ctx = run.ctx
    nb = int(material.get("bob_string_rank", 2))
    ma = int(material.get("alice_rank", 1))
    mb = int(material.get("bob_rank", 1))
    stacks = [
        ("self-5.6", "string layer", _drawn_keys(ctx, "string-group", nb, salt=501)),
        ("self-5.5", "alice graph layer", _drawn_keys(ctx, "graph-group", ma, salt=502)),
        ("self-5.5", "bob graph layer", _drawn_keys(ctx, "graph-group", mb, salt=503)),
    ]
    return _onion(run, material, 5, ("send key package A", "send key package B"), [], stacks)


PROTOCOLS: dict[str, Callable[[_Run, Mapping], bytes]] = {
    "top-en-decryption-1": _proto_top_en_1,
    "top-en-decryption-2": _proto_top_en_2,
    "string-key-only": partial(_proto_identity_signature, (
        "step", "send public-key string {0}", "encrypt with s_apub then the identity signature",
        (("string", "decrypt with the derived public string"),),
    )),
    "graph-key-only": partial(_proto_identity_signature, (
        "gtep", "send public-key graph", "encrypt with g_apub then the identity signature",
        (("graph", "decrypt with the derived public graph"),),
    )),
    "graph-string-key": partial(_proto_identity_signature, (
        "gstep", "send key package: public graph + public string",
        "encrypt with s_apub, g_apub, identity signature",
        (("string", "decrypt the string layer"), ("graph", "decrypt the graph layer")),
    )),
    "key-pair-plan-1": _proto_key_pair_plan_1,
    # plans II-IV: (step prefix, zero salt, actors, receiving pair)
    "key-pair-plan-2": partial(_proto_group_plan, ("send-ii", None, ("alice",), "alice-string")),
    "key-pair-plan-3": partial(_proto_group_plan, ("send-iii", 303, ("alice",), "alice-string")),
    "key-pair-plan-4": partial(_proto_group_plan, ("send-iv", 404, ("alice", "bob"), "bob-string")),
    "tkpdra": _proto_tkpdra,
    "self-cert-1": _proto_self_cert_1,
    "self-cert-2": _proto_self_cert_2,
    "self-cert-3": _proto_self_cert_3,
    "self-cert-4": _proto_self_cert_4,
    "self-cert-5": _proto_self_cert_5,
}


def run_protocol(
    protocol_id: str,
    material: Mapping | None = None,
    seed: int = 0,
    tamper: Tamper | None = None,
) -> ProtocolTranscript:
    """Execute one protocol end to end.

    The verdict is true only when every authentication passed and the
    recovered plaintext matches byte for byte; the first failing step
    aborts the run and is named on the transcript."""
    if protocol_id not in PROTOCOLS:
        raise ProtocolError(f"unknown protocol {protocol_id!r}")
    material = dict(material or {})
    transcript = ProtocolTranscript(protocol_id=protocol_id, seed=seed)
    ctx = ProtocolContext.create(seed)
    run = _Run(transcript, ctx, tamper or {})
    try:
        recovered = PROTOCOLS[protocol_id](run, material)
    except _Abort as abort:
        transcript.verdict = False
        transcript.failing_step = abort.step
        transcript.log(abort.step, "-", f"abort: {abort.reason}")
        return transcript
    expected = _material_plaintext(material)
    transcript.verdict = recovered == expected
    if not transcript.verdict:
        transcript.failing_step = "final-compare"
    return transcript


# ---------------------------------------------------------------------------
# The key-pair dispatcher over the four topological sources.
# ---------------------------------------------------------------------------


class KeySource(Enum):
    COMPLETE_SPLIT = "complete-split"
    GROUP = "group"
    PARTITION = "partition"
    BIPARTITE = "bipartite"


@dataclass
class KeyPair:
    """Matched public/private material from one topological source."""

    source: KeySource
    public_graphs: tuple[ColoredGraph, ...] = ()
    private_graphs: tuple[ColoredGraph, ...] = ()
    public_string: DigitString | None = None
    private_string: DigitString | None = None
    provenance: object = None  # source-specific: target graph, group pair, ...


def _color_tree(tree: Graph) -> ColoredGraph:
    vcolors = {v: v for v in tree.vertices}
    ecolors = {(u, v): abs(u - v) for u, v in tree.edges}
    return ColoredGraph(tree, vcolors, ecolors)


def gen_keypair(source: KeySource, params: Mapping, seed: int = 0) -> KeyPair:
    """Generate key material from a topological source.

    * COMPLETE_SPLIT {m}: public = one spanning tree of K_2m, private = the
      remaining m-1 edge-disjoint spanning trees; the target K_2m is the
      coinciding authentication.
    * GROUP {order, zero}: a registered pub/pri index pair with its
      signature element.
    * PARTITION {target, parts, position, public_refinement,
      private_refinement, mode}: twin-sum or twin-product strings.
    * BIPARTITE {m, n, public_edges}: a subgraph of K_{m,n} and its edge
      complement, colored by vertex id, coinciding onto the host K_{m,n}.
    """
    rng = random.Random(seed)
    if source is KeySource.GROUP:
        order = int(params["order"])
        zero = int(params.get("zero", 0))
        pub = int(params.get("pub", rng.randrange(order)))
        pri = int(params.get("pri", rng.randrange(order)))
        pair = GroupKeyPair.issue(params.get("group_id", "group"), order, pub, pri, zero)
        return KeyPair(source, provenance=pair)
    if source is KeySource.PARTITION:
        pair = PartitionKeyPair(
            target=int(params["target"]),
            parts=tuple(params["parts"]),
            position=int(params.get("position", 0)),
            public_refinement=tuple(params["public_refinement"]),
            private_refinement=tuple(params["private_refinement"]),
            mode=params.get("mode", "sum"),
        )
        return KeyPair(
            source,
            public_string=pair.public_string(),
            private_string=pair.private_string(),
            provenance=pair,
        )
    if source is KeySource.COMPLETE_SPLIT:
        m = int(params["m"])
        parts = [_color_tree(t) for t in split_complete_even(m)]
        host = Graph.complete(2 * m)
    elif source is KeySource.BIPARTITE:
        m, n = int(params["m"]), int(params["n"])
        graphs = bipartite_keypair(m, n, params["public_edges"])
        parts = [ColoredGraph(g, {v: v for v in g.vertices}) for g in graphs]
        host = Graph.complete_bipartite(m, n)
    else:
        raise ProtocolError(f"unknown key source {source}")
    return KeyPair(source, public_graphs=tuple(parts[:1]), private_graphs=tuple(parts[1:]), provenance=host)


def authenticate(pair: KeyPair, context: Mapping | None = None) -> AuthRecord:
    """Check the pair against its source's predicate; the graph sources
    coincide their parts onto the host, or onto the context's `target`."""
    context = dict(context or {})
    if pair.source is KeySource.GROUP:
        if context.get("zero") is None:
            raise ProtocolError("group authentication needs the zero in context")
        return pair.provenance.authenticate(context["zero"])
    if pair.source is KeySource.PARTITION:
        return pair.provenance.authenticate()
    if pair.source in (KeySource.COMPLETE_SPLIT, KeySource.BIPARTITE):
        parts = [*pair.public_graphs, *pair.private_graphs]
        return authenticate_coincide(parts, context.get("target", pair.provenance))
    raise ProtocolError(f"unknown key source {pair.source}")
