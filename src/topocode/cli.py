"""Command-line front end: thin adapters over the library operations.

Exit codes: 0 success, 1 operation error, 2 usage error.  Randomized
actions require --seed (or the TOPOCODE_SEED environment variable).

Each verb's handler imports the library modules it runs, so a command
loads only its own verb's modules."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys


class CliError(Exception):
    pass


class _UsageError(CliError):
    """A required option is missing, or an action gets the wrong number of
    operands: exit code 2, like argparse's own."""


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CliError(f"{what} must be an integer, got {text!r}") from None


def _require_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("TOPOCODE_SEED")
    if env is not None:
        return _int(env, "TOPOCODE_SEED")
    raise CliError("this action is randomized: pass --seed or set TOPOCODE_SEED")


def _load_colored_graph(path: str):
    """The ColoredGraph a JSON graph file describes."""
    from .graphs import ColoredGraph, graph_from_json

    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    graph = graph_from_json(data)
    for key in ("vcolors", "ecolors"):
        if not isinstance(data.get(key, {}), dict):
            raise CliError(f"graph file {key!r} must be an object")
    vcolors = {_int(k, "graph file 'vcolors' key"): v for k, v in data.get("vcolors", {}).items()}
    ecolors = None
    if "ecolors" in data:
        ecolors = {}
        for key, value in data["ecolors"].items():
            try:
                u, v = map(int, key.split(","))
            except ValueError:
                raise CliError(f"graph file 'ecolors' key must be two integers 'u,v', got {key!r}") from None
            ecolors[(min(u, v), max(u, v))] = value
    return ColoredGraph(graph, vcolors, ecolors)


def _require_int_colors(cg) -> None:
    """Labelings color with ints: name the first vertex, then edge, that holds anything else."""
    colors = [(f"vertex {v}", c) for v, c in sorted(cg.vcolors.items())]
    colors += [(f"edge {u},{v}", c) for (u, v), c in sorted((cg.ecolors or {}).items())]
    for where, c in colors:
        if type(c) is not int:
            raise CliError(f"{where} has color {json.dumps(c)}, not an integer")


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------


# the operands each string action takes; breed takes any number, and
# self_breed rejects fewer than two
_OPERANDS = {"add": 2, "sub": 2, "complement": 1, "reverse": 1, "scale": 2, "partitions": 1}


def _cmd_string(args) -> int:
    need = _OPERANDS.get(args.action, len(args.operands))
    if len(args.operands) != need:
        noun = "operand" if need == 1 else "operands"
        raise _UsageError(f"string {args.action} needs {need} {noun}, got {len(args.operands)}")
    from .strings import CombineOp, DigitString, PartitionMode, partition_strings, ring_by_name, self_breed

    ring = ring_by_name(args.ring)
    if args.action in ("add", "sub"):
        a = DigitString.parse(args.operands[0], ring)
        b = DigitString.parse(args.operands[1], ring)
        op = CombineOp.ADD if args.action == "add" else CombineOp.SUB
        _emit(args, str(a.combine(b, op)))
    elif args.action == "complement":
        _emit(args, str(DigitString.parse(args.operands[0], ring).complement()))
    elif args.action == "reverse":
        _emit(args, str(DigitString.parse(args.operands[0], ring).reverse()))
    elif args.action == "scale":
        k = _int(args.operands[0], "scale factor")
        _emit(args, str(DigitString.parse(args.operands[1], ring).scale(k)))
    elif args.action == "breed":
        seed = _require_seed(args)
        operands = [DigitString.parse(text, ring) for text in args.operands]
        samples, total = self_breed(operands, depth=args.depth, seed=seed)
        _emit(args, json.dumps({"total_bytes": str(total), "samples": [str(s) for s in samples]}))
    else:  # partitions
        mode = PartitionMode.SUM if args.mode == "sum" else PartitionMode.PRODUCT
        out = partition_strings(_int(args.operands[0], "number to partition"), mode, limit=args.limit)
        _emit(args, json.dumps([{"parts": list(s.parts), "string": str(d)} for s, d in out]))
    return 0


def _cmd_tables(args) -> int:
    from . import tables

    result = tables.reproduce_table1() if args.which == "table1" else tables.reproduce_table2()
    text = result.to_text()
    if args.notes:
        text += "".join(f"# {note}\n" for note in result.notes)
    _emit(args, text)
    return 0


def _cmd_graph(args) -> int:
    from .graphs import count_spanning_trees, split_complete_even, split_complete_odd

    if args.action == "split-complete":
        m = args.m
        if args.odd:
            star, trees = split_complete_odd(m)
            payload = {"star": star.to_json(), "trees": [t.to_json() for t in trees]}
        else:
            payload = {"trees": [t.to_json() for t in split_complete_even(m)]}
        _emit(args, json.dumps(payload))
    elif args.action == "cayley":
        closed, enumerated = count_spanning_trees("complete", args.m)
        _emit(args, json.dumps({"closed_form": closed, "enumerated": enumerated}))
    elif args.action == "bipartite-count":
        closed, enumerated = count_spanning_trees("bipartite", args.m, args.n)
        _emit(args, json.dumps({"closed_form": closed, "enumerated": enumerated}))
    else:  # dot
        if args.graph is None:
            raise _UsageError("graph dot needs --graph")
        cg = _load_colored_graph(args.graph)
        _emit(args, cg.graph.to_dot(cg.vcolors or None, cg.ecolors))
    return 0


def _cmd_label(args) -> int:
    from .labelings import ConstraintSpec, SearchStatus, search, verify

    spec = ConstraintSpec.parse(args.spec)
    cg = _load_colored_graph(args.graph)
    if args.action == "verify":
        _require_int_colors(cg)
        report = verify(cg, spec)
        _emit(
            args,
            json.dumps(
                {
                    "verdict": report.verdict,
                    "violations": report.violations,
                    "magic_constant": report.magic_constant,
                    "proper_total": report.proper_total,
                }
            ),
        )
        return 0 if report.verdict else 1
    result = search(cg.graph, spec, budget=args.budget, timeout=args.timeout)
    payload = {"status": result.status.value, "nodes": result.nodes, "restarts": result.restarts}
    if result.coloring is not None:
        payload["coloring"] = result.coloring.to_json()
    _emit(args, json.dumps(payload))
    return 0 if result.status is SearchStatus.FOUND else 1


def _cmd_topcode(args) -> int:
    from .topcode import PermIndex, string_from_topcode, topcode_from_graph

    cg = _load_colored_graph(args.graph)
    matrix = topcode_from_graph(cg)
    if args.action == "matrix":
        _emit(args, json.dumps(matrix.to_json()))
    else:  # string
        perm = None
        if args.perm_rank is not None:
            perm = PermIndex.from_rank(args.perm_rank, 3 * matrix.q)
        _emit(args, str(string_from_topcode(matrix, perm)))
    return 0


def _cmd_group(args) -> int:
    from .groups import group_compound

    base = _load_colored_graph(args.graph)  # compound, the only action
    _, _, compound = group_compound(base, args.m)
    _emit(args, json.dumps({"order": compound.order, "strings": [str(s) for s in compound.elements]}))
    return 0


def _cmd_proto(args) -> int:
    if args.action == "list":
        from .protocols import PROTOCOLS

        _emit(args, "\n".join(sorted(PROTOCOLS)))
        return 0
    # the usage and the recorded transcript are checked before any protocol
    # code is loaded or run
    if args.id is None:
        raise _UsageError(f"proto {args.action} needs --id")
    if args.action == "replay" and args.infile is None:
        raise _UsageError("proto replay needs --in")
    seed = _require_seed(args)
    if args.action == "replay":
        with open(args.infile, encoding="utf-8") as fh:
            recorded = fh.read()
    material = {}
    if args.plaintext is not None:
        material["plaintext"] = args.plaintext.encode()
    from .protocols import run_protocol

    transcript = run_protocol(args.id, material, seed=seed)
    if args.action == "run":
        _emit(args, transcript.to_jsonl())
        return 0 if transcript.verdict else 1
    if recorded == transcript.to_jsonl():
        _emit(args, "transcripts match")
        return 0
    _emit(args, "transcripts differ")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="topocode")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("string", help="digit-string arithmetic")
    p.add_argument("action", choices=["add", "sub", "complement", "reverse", "scale", "breed", "partitions"])
    p.add_argument("operands", nargs="+")
    p.add_argument("--ring", default="mod10")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--mode", choices=["sum", "product"], default="sum")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_string)

    p = sub.add_parser("tables", help="reproduce the reference tables")
    p.add_argument("action", choices=["reproduce"])
    p.add_argument("--which", choices=["table1", "table2"], required=True)
    p.add_argument("--notes", action="store_true", help="append erratum notes")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("graph", help="graph constructions and counts")
    p.add_argument("action", choices=["split-complete", "cayley", "bipartite-count", "dot"])
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--odd", action="store_true")
    p.add_argument("--graph", default=None)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("label", help="verify or search labelings")
    p.add_argument("action", choices=["verify", "search"])
    p.add_argument("--graph", required=True)
    p.add_argument("--spec", required=True, help='e.g. "graceful;set-ordered;labeling"')
    p.add_argument("--budget", type=int, default=2_000_000)
    p.add_argument("--timeout", type=float, default=None)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("topcode", help="matrices and their strings")
    p.add_argument("action", choices=["matrix", "string"])
    p.add_argument("--graph", required=True)
    p.add_argument("--perm-rank", type=int, default=None)
    p.set_defaults(func=_cmd_topcode)

    p = sub.add_parser("group", help="every-zero group pipelines")
    p.add_argument("action", choices=["compound"])
    p.add_argument("--graph", required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("proto", help="protocol simulations")
    p.add_argument("action", choices=["run", "replay", "list"])
    p.add_argument("--id", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--plaintext", default=None)
    p.add_argument("--in", dest="infile", default=None)
    p.set_defaults(func=_cmd_proto)

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


# built once per process: every argparse parser is a web of reference cycles
# that only a full garbage collection frees
PARSER = build_parser()


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift CPython's limit on int <-> decimal string conversion (3.11+), so
    factorial ranks and bred totals of any length parse and print.  The
    limit is process-wide; it is restored on the way out."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: list[str] | None = None) -> int:
    with _unlimited_int_digits():
        args = PARSER.parse_args(argv)
        try:
            return args.func(args)
        except _UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (CliError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
