"""The protocol workloads: ``proto_suite`` (key derivation and transcript
bookkeeping on short plaintexts) and ``proto_bulk`` (the cipher on large
payloads)."""

from __future__ import annotations

import json
import os
import random

from topocode import cli, graphs, protocols, strings

from . import checks, inputs
from .checks import require
from .ops import Fault, Op, run_cli

PROTOCOL_IDS = sorted(protocols.PROTOCOLS)
KIB = 1024

# (protocols, payload size, runs of each): 1-layer protocols first, then
# 2-, 3- and 4-layer ones.  The 64 KiB runs of key-pair-plan-2 are over half
# of the round, so the median latency lies inside one cluster of equal
# operations rather than on the gap between two kinds.
BULK_PLAN = (
    (("key-pair-plan-2",), 64 * KIB, 80),
    (("top-en-decryption-1", "top-en-decryption-2", "key-pair-plan-3", "key-pair-plan-4"), 64 * KIB, 2),
    (("key-pair-plan-1", "string-key-only", "graph-key-only", "self-cert-1"), 64 * KIB, 4),
    (("graph-string-key",), 64 * KIB, 6),
    (("tkpdra", "self-cert-2", "self-cert-3", "self-cert-5"), 64 * KIB, 2),
    (("key-pair-plan-2",), 256 * KIB, 1),
    (("key-pair-plan-2",), 1024 * KIB, 1),
    (("string-key-only",), 256 * KIB, 1),
    (("string-key-only",), 512 * KIB, 1),
    (("graph-string-key",), 128 * KIB, 1),
    (("graph-string-key",), 256 * KIB, 1),
    (("tkpdra",), 128 * KIB, 1),
    (("tkpdra",), 256 * KIB, 1),
)


def _artifact(protocol_id: str) -> str:
    return "f4" if protocol_id == "tkpdra" else "encrypted"


def _flipper(position: int, mask: int):
    def flip(blob: bytes) -> bytes:
        i = position % len(blob)
        return blob[:i] + bytes([blob[i] ^ mask]) + blob[i + 1 :]

    return flip


def _digit_key(rng: random.Random, first: int) -> strings.DigitString:
    text = str(first) + "".join(str(rng.randrange(10)) for _ in range(rng.randint(5, 15)))
    return strings.DigitString.parse(text)


def _check_transcript(protocol_id: str, plain: bytes, out) -> None:
    transcript, jsonl = out
    require(transcript.verdict and transcript.failing_step is None, f"{protocol_id}: run failed at {transcript.failing_step}")
    lines = [json.loads(line) for line in jsonl.splitlines()]
    require(lines[-1] == {"verdict": True, "failing_step": None, "protocol": protocol_id}, "bad verdict line")
    for line in lines[:-1]:
        require(set(line) == {"step", "actor", "action", "sha256"} and len(line["sha256"]) == 16, "bad step line")
    checks.check_sealed(protocol_id, transcript.ciphertext, plain, transcript.layers)


def _protocol_ops(rng: random.Random, ctx_seed: int, protocol_id: str) -> list[Op]:
    """A run, its replay (same digest) and a run with one transmitted byte flipped."""
    plain = inputs.text_payload(rng).encode()
    material = {"plaintext": plain}
    tamper = {_artifact(protocol_id): _flipper(rng.randrange(1 << 30), rng.randrange(1, 256))}
    recorded: dict[str, str] = {}
    tag = f"{protocol_id} seed={ctx_seed}"

    def run():
        t = protocols.run_protocol(protocol_id, material, seed=ctx_seed)
        return t, t.to_jsonl()

    def check_run(out) -> None:
        _check_transcript(protocol_id, plain, out)
        recorded["jsonl"] = out[1]

    def check_replay(out) -> None:
        require(out[1] == recorded["jsonl"], "replay does not reproduce the transcript")

    def run_tampered():
        t = protocols.run_protocol(protocol_id, material, seed=ctx_seed, tamper=tamper)
        return t, t.to_jsonl()

    def check_tampered(out) -> None:
        transcript, jsonl = out
        require(not transcript.verdict and transcript.failing_step is not None, "a flipped byte went unnoticed")
        require(json.loads(jsonl.splitlines()[-1])["verdict"] is False, "verdict line claims success")

    return [
        Op(f"run {tag}", run, check_run),
        Op(f"replay {tag}", run, check_replay),
        Op(f"tamper {tag}", run_tampered, check_tampered),
    ]


def _wrong_order_op(rng: random.Random, layers: int) -> Op:
    """Seal a stack, try to peel the innermost layer first, then peel in order."""
    plain = inputs.text_payload(rng).encode()
    keys = [_digit_key(rng, first) for first in rng.sample(range(1, 10), layers)]

    def call():
        blob = plain
        for key in keys:
            blob = protocols.seal(blob, key)
        try:
            protocols.unseal(blob, keys[0])
            wrong = "opened"
        except protocols.LayerError:
            wrong = "refused"
        peeled = blob
        for key in reversed(keys):
            peeled = protocols.unseal(peeled, key)
        return blob, wrong, peeled

    def check(out) -> None:
        blob, wrong, peeled = out
        expected = plain
        for key in keys:
            expected = checks.ref_seal(expected, key.digits)
        require(blob == expected, "sealed stack differs from the reference")
        if checks.ref_unseal(blob, keys[0].digits) is None:
            require(wrong == "refused", "innermost layer opened first")
        require(peeled == plain, "in-order peeling lost the plaintext")

    return Op(f"wrong-order {layers} layers", call, check)


def _cli_ops(rng: random.Random, ctx_seed: int, protocol_id: str, workdir: str) -> list[Op]:
    text = inputs.text_payload(rng)
    path = os.path.join(workdir, f"{protocol_id}.jsonl")
    base = ["--id", protocol_id, "--seed", str(ctx_seed), "--plaintext", text]

    def run():
        return run_cli(cli.main, ["proto", "run", *base, "--out", path])

    def check_run(out) -> None:
        code, _, err = out
        checks.check_cli_contract(code, err, (0,))
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh.read().splitlines()]
        require(lines[-1] == {"verdict": True, "failing_step": None, "protocol": protocol_id}, "bad verdict line")

    def replay():
        return run_cli(cli.main, ["proto", "replay", *base, "--in", path])

    def check_replay(out) -> None:
        code, stdout, err = out
        checks.check_cli_contract(code, err, (0,))
        require(stdout == "transcripts match\n", f"replay says {stdout!r}")

    return [Op(f"cli proto run {protocol_id}", run, check_run), Op(f"cli proto replay {protocol_id}", replay, check_replay)]


def _group_ops(rng: random.Random) -> list[Op]:
    order = rng.randint(3, 12)
    zero, pub, pri = (rng.randrange(order) for _ in range(3))
    wrong_zero = (zero + rng.randint(1, order - 1)) % order
    params = {"order": order, "zero": zero, "pub": pub, "pri": pri}

    def call(context_zero: int):
        def run():
            pair = protocols.gen_keypair(protocols.KeySource.GROUP, params)
            return pair, protocols.authenticate(pair, {"zero": context_zero})

        return run

    def check(context_zero: int):
        def run(out) -> None:
            pair, record = out
            require(pair.provenance.signature_index == checks.index_law(pub, pri, zero, order), "signature breaks the index law")
            expected = checks.index_law(pub, pri, context_zero, order) == checks.index_law(pub, pri, zero, order)
            require(record.verdict == expected, f"verdict {record.verdict}, expected {expected}")

        return run

    return [
        Op(f"keypair group order={order}", call(zero), check(zero)),
        Op(f"keypair group order={order} wrong zero", call(wrong_zero), check(wrong_zero)),
    ]


def _partition_params(rng: random.Random, mode: str) -> dict:
    if mode == "sum":
        refinements = [[rng.randint(1, 4) for _ in range(rng.randint(2, 3))] for _ in range(2)]
        parts = [sum(r) for r in refinements]
        combine = sum
    else:
        refinements = [[rng.randint(3, 5) for _ in range(2)] for _ in range(2)]
        parts = [r[0] * r[1] for r in refinements]
        combine = _prod
    extra = [rng.randint(3, 9) for _ in range(rng.randint(1, 2))]
    position = rng.randint(0, len(extra))
    all_parts = extra[:position] + parts + extra[position:]
    return {
        "target": combine(all_parts),
        "parts": all_parts,
        "position": position,
        "public_refinement": refinements[0],
        "private_refinement": refinements[1],
        "mode": mode,
    }


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def _partition_op(name: str, params: dict, private_after_issue=None, fault: Fault | None = None) -> Op:
    """Issue a partition pair (optionally changing its private refinement
    afterwards) and authenticate it.  The verdict must be true exactly when
    both refinements rebuild their parts and the parts rebuild the target."""
    combine = sum if params["mode"] == "sum" else _prod
    pos = params["position"]
    private = private_after_issue or params["private_refinement"]
    expected = (
        combine(params["parts"]) == params["target"]
        and combine(params["public_refinement"]) == params["parts"][pos]
        and combine(private) == params["parts"][pos + 1]
    )

    def call():
        pair = protocols.gen_keypair(protocols.KeySource.PARTITION, params)
        if private_after_issue is not None:
            pair.provenance.private_refinement = tuple(private_after_issue)
        return pair, protocols.authenticate(pair)

    def check(out) -> None:
        pair, record = out
        parts = [str(p) for p in params["parts"]]
        public = parts[:pos] + [str(v) for v in params["public_refinement"]] + parts[pos + 1 :]
        require(str(pair.public_string) == "".join(public), "public string is not the refined parts")
        require(record.verdict == expected, f"verdict {record.verdict}, expected {expected}")

    return Op(name, call, check, fault)


def _bipartite_ops(rng: random.Random) -> list[Op]:
    m, n = rng.randint(2, 4), rng.randint(2, 4)
    host = [(u, v) for u in range(1, m + 1) for v in range(m + 1, m + n + 1)]
    public = sorted(rng.sample(host, rng.randint(1, len(host) - 1)))
    moved = rng.choice(sorted(set(host) - set(public)))
    params = {"m": m, "n": n, "public_edges": public}

    def call(tampered: bool):
        def run():
            pair = protocols.gen_keypair(protocols.KeySource.BIPARTITE, params)
            if tampered:
                g = pair.public_graphs[0].graph
                grown = graphs.Graph.build(g.vertices, list(g.edges) + [moved])
                pair.public_graphs = (graphs.ColoredGraph(grown, {v: v for v in grown.vertices}),)
            return pair, protocols.authenticate(pair)

        return run

    def check(tampered: bool):
        def run(out) -> None:
            pair, record = out
            pub = pair.public_graphs[0].graph.edges
            pri = pair.private_graphs[0].graph.edges
            expected = not (pub & pri) and (pub | pri) == set(host)
            require(expected != tampered, "the input is not what this operation tests")
            require(record.verdict == expected, f"verdict {record.verdict}, expected {expected}")

        return run

    return [Op(f"keypair bipartite {m}x{n}", call(False), check(False)), Op(f"keypair bipartite {m}x{n} shared edge", call(True), check(True))]


def _split_ops(m: int) -> list[Op]:
    def call(drop: bool):
        def run():
            pair = protocols.gen_keypair(protocols.KeySource.COMPLETE_SPLIT, {"m": m})
            if drop:
                pair.private_graphs = pair.private_graphs[:-1]
            return pair, protocols.authenticate(pair)

        return run

    def check(drop: bool):
        def run(out) -> None:
            pair, record = out
            parts = [sorted(cg.graph.edges) for cg in pair.public_graphs + pair.private_graphs]
            if drop:
                require(record.verdict is False, "a split missing one tree authenticated")
            else:
                checks.check_split(2 * m, parts, m)
                require(record.verdict is True, "a complete split did not authenticate")

        return run

    return [Op(f"keypair split m={m}", call(False), check(False)), Op(f"keypair split m={m} missing tree", call(True), check(True))]


def build_suite(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    ctx_seeds = [rng.randrange(1_000_000) for _ in range(8)]
    ops: list[Op] = []
    for ctx_seed in ctx_seeds:
        for protocol_id in PROTOCOL_IDS:
            ops.extend(_protocol_ops(rng, ctx_seed, protocol_id))
        ops.extend(_wrong_order_op(rng, layers) for layers in (2, 3, 4))
    for protocol_id in PROTOCOL_IDS:
        ops.extend(_cli_ops(rng, ctx_seeds[0], protocol_id, workdir))
    for _ in range(3):
        ops.extend(_group_ops(rng))
    for mode in ("sum", "product"):
        ops.append(_partition_op(f"keypair partition {mode}", _partition_params(rng, mode)))
    # fault 1: a private refinement changed after issue still authenticates
    fixed = {"target": 15, "parts": [4, 5, 6], "position": 0, "public_refinement": [1, 3], "private_refinement": [2, 3], "mode": "sum"}
    ops.append(_partition_op("keypair partition changed refinement", fixed, [9, 9, 9],
                             Fault("partition-authenticate", "CheckError: verdict True, expected False")))
    for _ in range(2):
        ops.extend(_bipartite_ops(rng))
    for m in (2, 3, 4):
        ops.extend(_split_ops(m))
    return ops


def _bulk_protocol_op(rng: random.Random, protocol_id: str, size: int) -> Op:
    plain = inputs.payload(size, rng)
    ctx_seed = rng.randrange(1_000_000)

    def call():
        return protocols.run_protocol(protocol_id, {"plaintext": plain}, seed=ctx_seed)

    def check(t) -> None:
        require(t.verdict and t.failing_step is None, f"{protocol_id}: run failed at {t.failing_step}")
        checks.check_sealed(protocol_id, t.ciphertext, plain, t.layers)

    return Op(f"{protocol_id} {size // KIB} KiB", call, check)


def _stack_ops(rng: random.Random, layers: int) -> list[Op]:
    """Seal a 1 MiB payload under `layers` keys one layer per operation, then
    peel them one per operation, outermost first."""
    keys = [_digit_key(rng, rng.randrange(10)) for _ in range(layers)]
    blobs = [inputs.payload(1024 * KIB, rng)]
    ops = []
    for i, key in enumerate(keys):

        def seal(i=i, key=key):
            del blobs[i + 1 :]
            return protocols.seal(blobs[i], key)

        def check_seal(out, i=i, key=key) -> None:
            require(out == checks.ref_seal(blobs[i], key.digits), f"layer {i + 1} differs from the reference seal")
            blobs.append(out)

        ops.append(Op(f"seal 1 MiB layer {i + 1}/{layers}", seal, check_seal))
    for i in reversed(range(layers)):

        def unseal(i=i):
            return protocols.unseal(blobs[i + 1], keys[i])

        def check_unseal(out, i=i) -> None:
            require(out == blobs[i], f"unsealing layer {i + 1} did not restore the layer below")

        ops.append(Op(f"unseal 1 MiB layer {i + 1}/{layers}", unseal, check_unseal))
    return ops


def build_bulk(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for protocol_ids, size, runs in BULK_PLAN:
        for protocol_id in protocol_ids:
            ops.extend(_bulk_protocol_op(rng, protocol_id, size) for _ in range(runs))
    for layers in (1, 2, 3, 4):
        ops.extend(_stack_ops(rng, layers))
    return ops
