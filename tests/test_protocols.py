import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topocode.graphs import Graph
from topocode.groups import build_graphic_group, group_compound
from topocode.strings import MOD10, DigitString, GroupError, build_shift_group
from topocode.topcode import string_from_topcode, topcode_from_graph
from topocode.protocols import (
    EXAMPLE1_G,
    EXAMPLE1_J,
    EXAMPLE1_T,
    GRAPH_KEYS,
    Direction,
    GroupKeyPair,
    KeySource,
    LayerError,
    PartitionKeyPair,
    PROTOCOLS,
    STRING_GROUP_ORDER,
    ProtocolContext,
    ProtocolError,
    ProtocolTranscript,
    TranscriptStep,
    _Run,
    _open,
    _p3_graceful_base,
    authenticate,
    authenticate_coincide,
    bipartite_keypair,
    example1_string,
    example1_tree,
    gen_keypair,
    keystream_cipher,
    rotate_zero,
    run_protocol,
    seal,
    unseal,
)


# Layers over CHUNK bytes once took a chunked keystream path, header first;
# sizes around CHUNK, and around the whole key periods that fit in it, stay
# as inputs since that is where the two paths met.
CHUNK = 65536


class TestCipher:
    def test_round_trip(self):
        key = DigitString.parse("31415926")
        data = bytes(range(256)) * 3
        out = keystream_cipher(data, key, Direction.ENCRYPT)
        back = keystream_cipher(out, key, Direction.DECRYPT)
        assert back == data

    def test_zero_key_identity(self):
        key = DigitString.parse("000")
        data = b"hello"
        assert keystream_cipher(data, key, Direction.ENCRYPT) == data

    def test_single_byte(self):
        out = keystream_cipher(b"\x41", DigitString.parse("3"), Direction.ENCRYPT)
        assert out == b"\x44"

    def test_empty_key_rejected(self):
        # an empty key cannot even be constructed
        from topocode.strings import StringError

        with pytest.raises(StringError):
            DigitString(())

    def test_seal_unseal(self):
        key = DigitString.parse("8128")
        blob = seal(b"payload", key)
        assert unseal(blob, key) == b"payload"

    def test_wrong_key_fails(self):
        blob = seal(b"payload", DigitString.parse("8128"))
        with pytest.raises(LayerError):
            unseal(blob, DigitString.parse("8129"))

    def test_tamper_fails(self):
        blob = bytearray(seal(b"payload", DigitString.parse("8128")))
        blob[-1] = (blob[-1] + 1) % 256
        with pytest.raises(LayerError):
            unseal(bytes(blob), DigitString.parse("8128"))

    @given(st.binary(max_size=3000), st.lists(st.integers(0, 9), min_size=1, max_size=40))
    def test_open_returns_the_payload_and_its_sha256(self, payload, digits):
        key = DigitString(tuple(digits))
        assert _open(seal(payload, key), key) == (payload, hashlib.sha256(payload).digest())

    @given(st.binary(min_size=1, max_size=3000), st.data())
    def test_one_flipped_payload_byte_fails_the_hash_check(self, payload, data):
        key = DigitString.parse("8128")
        blob = bytearray(seal(payload, key))
        at = data.draw(st.integers(36, len(blob) - 1))
        blob[at] ^= data.draw(st.integers(1, 255))
        with pytest.raises(LayerError, match="^layer hash mismatch"):
            unseal(bytes(blob), key)


def reference_cipher(data, digits, sign):
    """The cipher's definition, one byte at a time."""
    return bytes((b + sign * digits[i % len(digits)]) % 256 for i, b in enumerate(data))


def reference_seal(payload, digits):
    return reference_cipher(b"TPC1" + hashlib.sha256(payload).digest() + payload, digits, 1)


def reference_unseal(blob, digits):
    """The payload, or None where the magic or the payload hash is wrong."""
    body = reference_cipher(blob, digits, -1)
    if body[:4] != b"TPC1" or hashlib.sha256(body[36:]).digest() != body[4:36]:
        return None
    return body[36:]


def reference_failure(blob, digits):
    """The start of the LayerError ``_open`` raises, magic checked before the
    hash, or None where the layer opens."""
    body = reference_cipher(blob, digits, -1)
    if body[:4] != b"TPC1":
        return "^layer magic mismatch"
    if hashlib.sha256(body[36:]).digest() != body[4:36]:
        return "^layer hash mismatch"
    return None


SIGN = {Direction.ENCRYPT: 1, Direction.DECRYPT: -1}
keys = st.lists(st.integers(0, 9), min_size=1, max_size=60).map(lambda d: DigitString(tuple(d)))
key_stacks = st.lists(keys, min_size=1, max_size=5)


class TestCipherProperties:
    @given(st.binary(max_size=5000), keys, st.sampled_from(Direction))
    def test_matches_definition(self, data, key, direction):
        assert keystream_cipher(data, key, direction) == reference_cipher(data, key.digits, SIGN[direction])

    @given(st.binary(max_size=5000), keys)
    def test_decrypt_inverts_encrypt(self, data, key):
        out = keystream_cipher(data, key, Direction.ENCRYPT)
        assert keystream_cipher(out, key, Direction.DECRYPT) == data

    @given(st.binary(max_size=2000), key_stacks)
    def test_seal_stack_round_trips(self, payload, stack):
        blob = payload
        for key in stack:
            sealed = seal(blob, key)
            assert sealed == reference_seal(blob, key.digits)
            blob = sealed
        for key in reversed(stack):
            blob = unseal(blob, key)
        assert blob == payload

    @given(st.binary(max_size=2000), st.lists(keys, min_size=2, max_size=5))
    def test_innermost_first_fails_like_reference(self, payload, stack):
        blob = payload
        for key in stack:
            blob = seal(blob, key)
        expected = reference_unseal(blob, stack[0].digits)
        if expected is None:
            with pytest.raises(LayerError):
                unseal(blob, stack[0])
        else:
            assert unseal(blob, stack[0]) == expected


class TestCipherEdges:
    def empty_key(self):
        # DigitString refuses empty digits, so build one past its check
        key = object.__new__(DigitString)
        object.__setattr__(key, "digits", ())
        object.__setattr__(key, "ring", MOD10)
        return key

    def test_empty_key_raises_protocol_error(self):
        key = self.empty_key()
        with pytest.raises(ProtocolError):
            keystream_cipher(b"", key, Direction.ENCRYPT)
        with pytest.raises(ProtocolError):
            seal(b"payload", key)
        with pytest.raises(ProtocolError):
            unseal(bytes(40), key)

    def test_short_blob_raises_layer_error(self):
        # a cut of fewer than 4 bytes fails the magic, a longer one the hash
        for key in [DigitString.parse("8128")] + [DigitString(tuple(i * 7 % 10 for i in range(n))) for n in (1, 7, 13)]:
            whole = seal(b"", key)
            for cut in range(36):
                blob = whole[:cut]
                assert reference_unseal(blob, key.digits) is None
                with pytest.raises(LayerError, match=reference_failure(blob, key.digits)):
                    unseal(blob, key)

    def test_one_digit_key_matches_definition(self):
        data = bytes(range(256))
        out = keystream_cipher(data, DigitString.parse("7"), Direction.ENCRYPT)
        assert out == bytes((b + 7) % 256 for b in data)

    def test_empty_data_round_trips(self):
        key = DigitString.parse("31415926")
        assert keystream_cipher(b"", key, Direction.ENCRYPT) == b""
        assert unseal(seal(b"", key), key) == b""

    @pytest.mark.parametrize("length", [1, 7, 60, 8193])
    def test_many_chunks_match_definition(self, length):
        # 20 000 bytes span many key periods under the short keys; 8193
        # digits leave strides too short to translate
        key = DigitString(tuple(i * 7 % 10 for i in range(length)))
        data = bytes(i * 31 % 256 for i in range(20_000))
        assert keystream_cipher(data, key, Direction.DECRYPT) == reference_cipher(data, key.digits, -1)
        blob = seal(data, key)
        assert blob == reference_seal(data, key.digits)
        assert unseal(blob, key) == data

    @pytest.mark.parametrize("length", [1, 7, 60, 8193])
    def test_chunk_boundaries_match_definition(self, length):
        # step is the most whole key periods that fit in CHUNK bytes, where
        # the removed chunked path cut its chunks; 8193 digits take the
        # per-byte lookup path
        key = DigitString(tuple(i * 7 % 10 for i in range(length)))
        step = max(1, CHUNK // length) * length
        # the last size makes the sealed layer, 36 header bytes and then the
        # payload, one byte longer than one such chunk
        for size in (step - 1, step, step + 1, 2 * step + 37, step - 35):
            data = bytes(i * 31 % 256 for i in range(size))
            enciphered = reference_cipher(data, key.digits, 1)
            blob = reference_seal(data, key.digits)
            assert reference_unseal(blob, key.digits) == data
            for view in (bytes, bytearray, memoryview):
                given_data = view(bytearray(data))
                out = keystream_cipher(given_data, key, Direction.ENCRYPT)
                assert type(out) is bytes and out == enciphered
                sealed = seal(given_data, key)
                assert type(sealed) is bytes and sealed == blob
                assert given_data == data
                given_blob = view(bytearray(blob))
                opened = unseal(given_blob, key)
                assert type(opened) is bytes and opened == data
                assert given_blob == blob


class TestOneChunkBoundary:
    """Layers around CHUNK bytes, where the removed chunked path took over
    from one pass, keep the cipher's definition and fail the same checks
    with the same errors on either side."""

    @pytest.mark.parametrize("size", [CHUNK - 37, CHUNK - 36, CHUNK - 35, CHUNK, CHUNK + 1])
    @pytest.mark.parametrize("length", [1, 7, 13])
    def test_layer_matches_definition(self, size, length):
        # 13 digits do not divide CHUNK
        key = DigitString(tuple(i * 7 % 10 for i in range(length)))
        payload = bytes(i * 31 % 256 for i in range(size))
        blob = seal(payload, key)
        assert blob == reference_seal(payload, key.digits)
        assert _open(blob, key) == (payload, hashlib.sha256(payload).digest())
        wrong = DigitString(tuple((d + 1) % 10 for d in key.digits))
        with pytest.raises(LayerError, match="^layer magic mismatch"):
            _open(blob, wrong)
        for at in (0, 36):
            flipped = bytearray(blob)
            flipped[at] ^= 1
            flipped = bytes(flipped)
            assert reference_unseal(flipped, key.digits) is None
            with pytest.raises(LayerError, match=reference_failure(flipped, key.digits)):
                _open(flipped, key)


class TestKeyPairs:
    def test_group_pair_authenticates(self):
        pair = GroupKeyPair.issue("g", 9, pub=2, pri=5, zero=3)
        assert pair.signature_index == 4
        assert pair.authenticate(zero=3).verdict
        assert not pair.authenticate(zero=4).verdict

    def test_group_pair_rejects_a_bool_index(self):
        for pub, pri, zero in ((True, 5, 3), (2, False, 3), (2, 5, True)):
            with pytest.raises(GroupError, match="not integers in range"):
                GroupKeyPair.issue("g", 9, pub=pub, pri=pri, zero=zero)

    def test_derive_counterpart(self):
        pair = GroupKeyPair.issue("g", 9, pub=2, pri=5, zero=3)
        assert pair.derive_counterpart(pair.pri_index, 3) == 2
        assert pair.derive_counterpart(pair.pub_index, 3) == 5

    def test_partition_twin_sum(self):
        pair = PartitionKeyPair(
            target=10, parts=(4, 6), position=0,
            public_refinement=(1, 3), private_refinement=(2, 4), mode="sum",
        )
        assert str(pair.public_string()) == "136"
        assert str(pair.private_string()) == "424"
        assert str(pair.authentication_string()) == "1324"
        assert pair.authenticate().verdict

    def test_partition_twin_product(self):
        pair = PartitionKeyPair(
            target=36, parts=(4, 9), position=0,
            public_refinement=(2, 2), private_refinement=(3, 3), mode="product",
        )
        assert str(pair.authentication_string()) == "2233"
        assert pair.authenticate().verdict

    def test_partition_refinement_changed_after_issue_fails(self):
        pair = PartitionKeyPair(
            target=10, parts=(4, 6), position=0,
            public_refinement=(1, 3), private_refinement=(2, 4), mode="sum",
        )
        pair.private_refinement = (9, 9, 9)
        assert pair.authenticate().verdict is False

    def test_partition_validation(self):
        with pytest.raises(ProtocolError):
            PartitionKeyPair(10, (4, 6), 0, (1, 1), (2, 4), "sum")

    def test_partition_unknown_mode_rejected(self):
        # 24 = 4 * 6 used to authenticate as a product under any mode but "sum"
        params = {"target": 24, "parts": (4, 6), "public_refinement": (2, 2), "private_refinement": (2, 3)}
        assert authenticate(gen_keypair(KeySource.PARTITION, params | {"mode": "product"})).verdict
        with pytest.raises(ProtocolError, match="'summ'"):
            gen_keypair(KeySource.PARTITION, params | {"mode": "summ"})
        pair = PartitionKeyPair(24, (4, 6), 0, (2, 2), (2, 3), "product")
        pair.mode = "summ"
        assert pair.authenticate().verdict is False

    def test_bipartite_complement(self):
        pub, pri = bipartite_keypair(2, 3, [(1, 3), (2, 4)])
        assert pub.q == 2 and pri.q == 4
        assert not (pub.edges & pri.edges)
        assert pub.edges | pri.edges == Graph.complete_bipartite(2, 3).edges

    def test_example1_coincide_auth(self):
        record = authenticate_coincide(
            [example1_tree(EXAMPLE1_G), example1_tree(EXAMPLE1_T), example1_tree(EXAMPLE1_J)],
            Graph.complete(6),
        )
        assert record.result == hashlib.sha256(
            json.dumps(Graph.complete(6).to_json(), sort_keys=True).encode()
        ).hexdigest()[:16]
        assert record.verdict

    def test_tampered_tree_fails_auth(self):
        bad_t = dict(EXAMPLE1_T)
        tree = example1_tree(bad_t)
        tree.vcolors[4] = 5  # recolor one vertex: same color as vertex 5
        record = authenticate_coincide(
            [example1_tree(EXAMPLE1_G), tree, example1_tree(EXAMPLE1_J)], Graph.complete(6)
        )
        assert not record.verdict


def parsed_context(seed):
    """The context's string-group elements, zeros and pairs, built with the
    seed digits written as text and parsed back."""
    rng = random.Random(seed)
    seed_digits = "".join(str(rng.randint(1, 8)) for _ in range(8))
    groups = {
        "string-group": build_shift_group(DigitString.parse(seed_digits), k=1, m=STRING_GROUP_ORDER),
        "graph-group": GRAPH_KEYS,
    }
    zeros = {gid: rng.randrange(g.order) for gid, g in groups.items()}
    pairs = {}
    for actor in ("alice", "bob"):
        for gid, g in groups.items():
            pub = rng.randrange(g.order)
            pri = rng.randrange(g.order)
            pairs[f"{actor}-{gid.removesuffix('-group')}"] = GroupKeyPair.issue(gid, g.order, pub, pri, zeros[gid])
    return groups["string-group"].elements, zeros, pairs


class TestContext:
    def test_keys_match_parsed_seed_digits(self):
        for seed in range(200):
            ctx = ProtocolContext.create(seed)
            assert (ctx.groups["string-group"].elements, ctx.zeros, ctx.pairs) == parsed_context(seed), seed
            assert ctx.groups["graph-group"] is GRAPH_KEYS


class TestRotation:
    def test_rotate_invalidates_old_records(self):
        ctx = ProtocolContext.create(11)
        pair = ctx.pairs["alice-string"]
        old_zero = ctx.zeros["string-group"]
        stale = pair.authenticate(old_zero)
        assert stale.verdict
        new_zero = (old_zero + 3) % 9
        rotate_zero(ctx, "string-group", new_zero)
        # the stale record's element no longer matches the re-issued signature
        assert not ctx.pairs["alice-string"].authenticate(old_zero).verdict
        assert ctx.pairs["alice-string"].authenticate(new_zero).verdict

    def test_rotate_same_zero_noop(self):
        ctx = ProtocolContext.create(11)
        sig = ctx.pairs["alice-string"].signature_index
        rotate_zero(ctx, "string-group", ctx.zeros["string-group"])
        assert ctx.pairs["alice-string"].signature_index == sig

    def test_two_rotations_final_state(self):
        a = ProtocolContext.create(5)
        b = ProtocolContext.create(5)
        rotate_zero(a, "string-group", 2)
        rotate_zero(a, "string-group", 7)
        rotate_zero(b, "string-group", 7)
        assert a.pairs == b.pairs

    @pytest.mark.parametrize("group_id, zero", [
        ("string-group", 2.0), ("string-group", -1), ("string-group", 9), ("graph-group", 6), ("ring-group", 0),
        ("string-group", True),
    ])
    def test_bad_rotation_leaves_the_context_unchanged(self, group_id, zero):
        ctx = ProtocolContext.create(11)
        zeros, pairs = dict(ctx.zeros), dict(ctx.pairs)
        with pytest.raises(ProtocolError, match="unknown group" if group_id == "ring-group" else "outside"):
            rotate_zero(ctx, group_id, zero)
        assert ctx.zeros == zeros and ctx.pairs == pairs

    def test_rotation_leaves_a_context_of_the_same_seed_unchanged(self):
        a = ProtocolContext.create(5)
        b = ProtocolContext.create(5)
        zeros, pairs = dict(b.zeros), dict(b.pairs)
        for group_id in a.groups:
            rotate_zero(a, group_id, (a.zeros[group_id] + 1) % a.groups[group_id].order)
        assert b.zeros == zeros and b.pairs == pairs
        assert a.zeros is not b.zeros and a.groups["graph-group"] is b.groups["graph-group"]


class TestGraphKeys:
    def test_graph_keys_are_the_p3_group_topcode_strings(self):
        graphic = build_graphic_group(_p3_graceful_base(), 6)
        assert GRAPH_KEYS.order == 6
        for t in range(6):
            assert GRAPH_KEYS.elements[t] == string_from_topcode(topcode_from_graph(graphic.element(t, t)))
        # the compound pipeline builds the same group
        compound = group_compound(_p3_graceful_base(), 6)[2]
        assert GRAPH_KEYS.elements == compound.elements
        assert (GRAPH_KEYS.shift, GRAPH_KEYS.mask, GRAPH_KEYS.position_moduli) == (1, None, (6,) * 6)
        assert (compound.shift, compound.mask, compound.position_moduli) == (1, None, (6,) * 6)
        assert GRAPH_KEYS.closed is compound.closed is True
        assert [str(e) for e in GRAPH_KEYS.elements] == ["022121", "133232", "244343", "355454", "400505", "511010"]


class TestProtocols:
    def test_top_en_1_cites_example_strings(self):
        assert str(example1_string("G")) == "135244214255666"
        t = run_protocol("top-en-decryption-1", {"plaintext": b"x" * 1024}, seed=1)
        assert t.verdict
        joined = " ".join(s.action for s in t.steps)
        assert "135244214255666" in joined
        assert "421111235254463" in joined
        assert "122331311325346" in joined

    @pytest.mark.parametrize("protocol_id", sorted(PROTOCOLS))
    def test_round_trip_all(self, protocol_id):
        t = run_protocol(protocol_id, {"plaintext": b"the quick brown fox"}, seed=9)
        assert t.verdict, (protocol_id, t.failing_step)

    @pytest.mark.parametrize("protocol_id", sorted(PROTOCOLS))
    def test_deterministic_transcripts(self, protocol_id):
        a = run_protocol(protocol_id, {"plaintext": b"abc"}, seed=4)
        b = run_protocol(protocol_id, {"plaintext": b"abc"}, seed=4)
        assert a.digest() == b.digest()

    def test_different_seeds_differ(self):
        a = run_protocol("tkpdra", {"plaintext": b"abc"}, seed=1)
        b = run_protocol("tkpdra", {"plaintext": b"abc"}, seed=2)
        assert a.digest() != b.digest()

    def test_tkpdra_seven_steps(self):
        t = run_protocol("tkpdra", seed=3)
        names = {s.step for s in t.steps}
        assert {f"tkpdra-{i}" for i in range(1, 8)} <= names

    def test_tkpdra_tamper_fails_at_step_4(self):
        def flip(blob: bytes) -> bytes:
            out = bytearray(blob)
            out[0] = (out[0] + 1) % 256
            return bytes(out)

        t = run_protocol("tkpdra", seed=3, tamper={"f4": flip})
        assert not t.verdict
        assert t.failing_step == "tkpdra-4"

    def test_corrupt_private_key_fails(self):
        # corrupting alice's registered private string index breaks the
        # authentication step that touches it
        from topocode import protocols as P

        original = ProtocolContext.create
        def poisoned(seed):
            ctx = original(seed)
            pair = ctx.pairs["alice-string"]
            ctx.pairs["alice-string"] = GroupKeyPair(
                pair.group_id, pair.order, pair.pub_index,
                (pair.pri_index + 1) % pair.order, pair.signature_index,
            )
            return ctx

        P.ProtocolContext.create = staticmethod(poisoned)
        try:
            t = run_protocol("string-key-only", seed=9)
        finally:
            P.ProtocolContext.create = staticmethod(original)
        assert not t.verdict
        assert t.failing_step == "step-4"

    @pytest.mark.parametrize("protocol_id, prefix, pair_name", [
        ("key-pair-plan-2", "send-ii", "alice-graph"),
        ("key-pair-plan-3", "send-iii", "alice-string"),
        ("key-pair-plan-4", "send-iv", "bob-graph"),
    ])
    def test_group_plan_checks_the_registered_pair_before_reissue(self, monkeypatch, protocol_id, prefix, pair_name):
        from topocode import protocols as P

        original = ProtocolContext.create

        def poisoned(seed):
            ctx = original(seed)
            pair = ctx.pairs[pair_name]
            ctx.pairs[pair_name] = GroupKeyPair(
                pair.group_id, pair.order, pair.pub_index,
                (pair.pri_index + 1) % pair.order, pair.signature_index,
            )
            return ctx

        monkeypatch.setattr(P.ProtocolContext, "create", staticmethod(poisoned))
        t = run_protocol(protocol_id, seed=9)
        assert not t.verdict
        assert t.failing_step == f"{prefix}-{pair_name}"

    def test_wrong_order_peeling_fails(self):
        t = run_protocol("graph-string-key", {"plaintext": b"zz"}, seed=6)
        assert t.verdict and len(t.layers) == 3
        keys = [DigitString.parse(k) for k in t.layers]  # innermost first
        blob = t.ciphertext
        correct = tuple(reversed(range(len(keys))))
        succeeded = []
        for order in itertools.permutations(range(len(keys))):
            work = blob
            try:
                for i in order:
                    work = unseal(work, keys[i])
                succeeded.append(order)
            except LayerError:
                continue
        assert succeeded == [correct]

    def test_self_cert_3_onion_depth(self):
        t = run_protocol("self-cert-3", {"sequence_length": 3}, seed=2)
        assert t.verdict
        assert len(t.layers) == 4

    def test_unknown_protocol(self):
        with pytest.raises(ProtocolError):
            run_protocol("nope", seed=0)

    @pytest.mark.parametrize("protocol_id", sorted(PROTOCOLS))
    def test_flipped_artifact_payload_aborts_at_the_first_peel(self, monkeypatch, protocol_id):
        peeled = []
        original = _Run.peel

        def recording_peel(self, step, *args, **kwargs):
            peeled.append(step)
            return original(self, step, *args, **kwargs)

        def flip(blob: bytes) -> bytes:
            out = bytearray(blob)
            out[36] ^= 1  # the first payload byte past the 36-byte header
            return bytes(out)

        monkeypatch.setattr(_Run, "peel", recording_peel)
        t = run_protocol(protocol_id, seed=4, tamper={"encrypted": flip, "f4": flip})
        assert not t.verdict
        assert peeled and t.failing_step == peeled[0]
        assert "layer hash mismatch" in t.steps[-1].action

    def test_transcript_jsonl(self):
        t = run_protocol("self-cert-1", seed=8)
        lines = t.to_jsonl().strip().splitlines()
        import json

        parsed = [json.loads(line) for line in lines]
        assert parsed[-1]["verdict"] is True
        assert all("step" in p for p in parsed[:-1])


class TestGenKeypair:
    def test_complete_split_3(self):
        from topocode.protocols import KeyPair, KeySource, authenticate, gen_keypair

        pair = gen_keypair(KeySource.COMPLETE_SPLIT, {"m": 3})
        assert len(pair.public_graphs) == 1
        assert len(pair.private_graphs) == 2
        record = authenticate(pair)
        assert record.verdict
        # the three trees partition E(K_6)
        edge_sets = [p.graph.edges for p in pair.public_graphs + pair.private_graphs]
        union = set()
        for es in edge_sets:
            assert not (union & es)
            union |= es
        assert union == Graph.complete(6).edges

    def test_complete_split_with_one_tree_without_edge_colors(self):
        from topocode.graphs import ColoredGraph
        from topocode.protocols import KeySource, authenticate, gen_keypair

        pair = gen_keypair(KeySource.COMPLETE_SPLIT, {"m": 3})
        tree = pair.private_graphs[-1]
        pair.private_graphs = pair.private_graphs[:-1] + (ColoredGraph(tree.graph, tree.vcolors),)
        record = authenticate(pair)
        assert record.verdict, record.result

    def test_partition_twin_sum_example(self):
        from topocode.protocols import KeySource, authenticate, gen_keypair

        pair = gen_keypair(
            KeySource.PARTITION,
            {
                "target": 10,
                "parts": (4, 6),
                "position": 0,
                "public_refinement": (1, 3),
                "private_refinement": (2, 4),
            },
        )
        assert str(pair.provenance.authentication_string()) == "1324"
        assert authenticate(pair).verdict

    def test_bipartite_2_3(self):
        from topocode.protocols import KeySource, authenticate, gen_keypair

        pair = gen_keypair(
            KeySource.BIPARTITE, {"m": 2, "n": 3, "public_edges": [(1, 3), (2, 4)]}
        )
        assert pair.private_graphs[0].graph.q == 4
        assert authenticate(pair).verdict

    def test_group_pair_context(self):
        from topocode.protocols import KeySource, authenticate, gen_keypair

        pair = gen_keypair(KeySource.GROUP, {"order": 9, "zero": 2, "pub": 3, "pri": 4})
        assert authenticate(pair, {"zero": 2}).verdict
        assert not authenticate(pair, {"zero": 5}).verdict

    @pytest.mark.parametrize("params", [
        {"order": 9, "pub": 100, "pri": -3, "zero": 50},
        {"order": 9, "pub": 9, "pri": 0, "zero": 0},
        {"order": 9, "pub": 0, "pri": 0, "zero": -1},
    ])
    def test_group_pair_rejects_an_index_outside_the_order(self, params):
        from topocode.groups import GroupError
        from topocode.protocols import KeySource, gen_keypair

        with pytest.raises(GroupError, match="not integers in range"):
            gen_keypair(KeySource.GROUP, params)


class TestAuthPermutationInvariance:
    def test_shuffled_private_list_same_verdict(self):
        import itertools as it

        trees = [example1_tree(EXAMPLE1_T), example1_tree(EXAMPLE1_J)]
        target = Graph.complete(6)
        pub = example1_tree(EXAMPLE1_G)
        verdicts = set()
        for perm in it.permutations(trees):
            verdicts.add(authenticate_coincide([pub] + list(perm), target).verdict)
        assert verdicts == {True}


def old_to_jsonl(t):
    """``to_jsonl`` as one ``json.dumps`` per row."""
    rows = [
        {"step": s.step, "actor": s.actor, "action": s.action, "sha256": s.payload_digest}
        for s in t.steps
    ] + [{"verdict": t.verdict, "failing_step": t.failing_step, "protocol": t.protocol_id}]
    return "".join(json.dumps(row) + "\n" for row in rows)


# quotes, backslashes, control characters, non-ASCII, astral characters and
# lone surrogates
awkward_text = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é€😀\U0010ffff\ud800'),
    st.characters(),
))


class TestTranscriptJsonl:
    @given(
        st.lists(st.builds(TranscriptStep, awkward_text, awkward_text, awkward_text, awkward_text), max_size=6),
        st.booleans(),
        st.none() | awkward_text,
        awkward_text,
    )
    def test_matches_json_dumps_per_row(self, steps, verdict, failing_step, protocol_id):
        t = ProtocolTranscript(protocol_id, 0, steps, verdict, failing_step)
        assert t.to_jsonl() == old_to_jsonl(t)

    @pytest.mark.parametrize("protocol_id", sorted(PROTOCOLS))
    def test_protocol_runs_match_json_dumps_per_row(self, protocol_id):
        def flip(blob: bytes) -> bytes:
            return bytes([blob[0] ^ 1]) + blob[1:]

        honest = run_protocol(protocol_id, {"plaintext": b"abc"}, seed=5)
        tampered = run_protocol(protocol_id, seed=5, tamper={"encrypted": flip, "f4": flip})
        assert honest.verdict and not tampered.verdict and tampered.failing_step
        for t in (honest, tampered):
            assert t.to_jsonl() == old_to_jsonl(t)

    def test_final_compare_failure_matches_json_dumps_per_row(self, monkeypatch):
        monkeypatch.setitem(PROTOCOLS, "tkpdra", lambda run, material: b"not the plaintext")
        t = run_protocol("tkpdra", seed=5)
        assert (t.verdict, t.failing_step) == (False, "final-compare")
        assert t.to_jsonl() == old_to_jsonl(t)
        assert t.to_jsonl().endswith('{"verdict": false, "failing_step": "final-compare", "protocol": "tkpdra"}\n')
