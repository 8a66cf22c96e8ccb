import hashlib
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topocode.graphs import Graph
from topocode.groups import build_graphic_group
from topocode.strings import MOD10, DigitString, GroupError
from topocode.topcode import string_from_topcode, topcode_from_graph
from topocode.protocols import (
    EXAMPLE1_G,
    EXAMPLE1_J,
    EXAMPLE1_T,
    GRAPH_KEYS,
    AuthKind,
    Direction,
    GroupKeyPair,
    LayerError,
    PartitionKeyPair,
    PROTOCOLS,
    ProtocolContext,
    ProtocolError,
    _p3_graceful_base,
    authenticate_coincide,
    bipartite_keypair,
    example1_string,
    example1_tree,
    keystream_cipher,
    rotate_zero,
    run_protocol,
    seal,
    unseal,
)


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
        key = DigitString.parse("8128")
        whole = seal(b"", key)
        for cut in range(36):
            with pytest.raises(LayerError):
                unseal(whole[:cut], key)

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
        # 20 000 bytes span several cipher chunks; 8193 digits exceed one
        key = DigitString(tuple(i * 7 % 10 for i in range(length)))
        data = bytes(i * 31 % 256 for i in range(20_000))
        assert keystream_cipher(data, key, Direction.DECRYPT) == reference_cipher(data, key.digits, -1)
        blob = seal(data, key)
        assert blob == reference_seal(data, key.digits)
        assert unseal(blob, key) == data


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
        assert record.kind is AuthKind.GRAPH_COINCIDE
        assert record.verdict

    def test_tampered_tree_fails_auth(self):
        bad_t = dict(EXAMPLE1_T)
        tree = example1_tree(bad_t)
        tree.vcolors[4] = 5  # recolor one vertex: same color as vertex 5
        record = authenticate_coincide(
            [example1_tree(EXAMPLE1_G), tree, example1_tree(EXAMPLE1_J)], Graph.complete(6)
        )
        assert not record.verdict


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
