"""The ``label_search`` workload: free-tree generation, labeling search and
verification."""

from __future__ import annotations

import json
import os
import random

from topocode import cli, graphs, labelings, trees

from . import checks, inputs
from .checks import require
from .ops import Fault, Op, run_cli

NON_MAGIC = ("graceful", "odd-graceful", "harmonious", "odd-elegant")
MAGIC = ("edge-magic", "edge-difference", "graceful-difference", "felicitous-difference")


def _pairs(g) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    return tuple(g.vertices), sorted(g.edges)


def _check_found(g, result, family: str, set_ordered: bool = False) -> None:
    require(result.status is labelings.SearchStatus.FOUND, f"{family}: search returned {result.status.value}")
    cg = result.coloring
    checks.check_same_graph(g.vertices, g.edges, cg.graph.vertices, cg.graph.edges)
    checks.check_labeling(g.vertices, g.edges, cg.vcolors, cg.ecolors, family, set_ordered)


def _search_op(name: str, g, spec_text: str, family: str, set_ordered: bool = False, fault: Fault | None = None) -> Op:
    spec = labelings.ConstraintSpec.parse(spec_text)
    return Op(name, lambda: labelings.search(g, spec), lambda r: _check_found(g, r, family, set_ordered), fault)


def _all_trees_op(n: int, forms: set[str]) -> Op:
    def check(out) -> None:
        pairs = [_pairs(t) for t in out]
        checks.check_free_tree_set(n, pairs)
        require({checks.canonical_form(*p) for p in pairs} == forms, f"n={n}: not the free trees")

    return Op(f"all_trees n={n}", lambda: trees.all_trees(n), check)


def _set_ordered_op(g) -> Op:
    spec = labelings.ConstraintSpec.parse("graceful;set-ordered;labeling")

    def check(r) -> None:
        if checks.brute_force_set_ordered_graceful(*_pairs(g)):
            _check_found(g, r, "graceful", set_ordered=True)
        else:
            require(r.status is labelings.SearchStatus.NONE_EXHAUSTED, f"expected none, search returned {r.status.value}")

    return Op(f"set-ordered graceful n={g.n}", lambda: labelings.search(g, spec), check)


def _lift(f: dict[int, int], xs: set[int], edges, family: str, k: int, d: int):
    """The (k, d) coloring and constant lifted from a set-ordered graceful
    labeling f with X = xs, following the lift formulas."""
    q = len(edges)
    low_y = family == "graceful"
    flip_y = family in ("edge-magic", "felicitous-difference")
    flip_e = family in ("edge-difference", "felicitous-difference")
    vc = {}
    for v, x in f.items():
        if v in xs:
            vc[v] = d * x
        elif low_y:
            vc[v] = k + d * (x - 1)
        else:
            vc[v] = k + d * (q - x if flip_y else x)
    ec = {}
    for u, v in edges:
        e = abs(f[u] - f[v])
        ec[(u, v)] = k + d * (q - e if flip_e else e - 1)
    constant = {"graceful": None, "edge-magic": 2 * k + d * (q - 1), "edge-difference": 2 * k + d * q,
                "graceful-difference": d, "felicitous-difference": 0}[family]
    return vc, ec, constant


def _magic_ops(rng: random.Random, index: int) -> list[Op]:
    spine, leaves, edges = inputs.caterpillar(4 + index % 2, rng)
    f = checks.caterpillar_graceful(spine, leaves)
    verts = sorted(f)
    g = graphs.Graph.build(verts, edges)
    xs, ys = checks.bipartition(verts, edges)
    if max(f[v] for v in xs) > min(f[v] for v in ys):
        xs, ys = ys, xs
    base = graphs.ColoredGraph(g, dict(f), {e: abs(f[e[0]] - f[e[1]]) for e in edges})
    ops: list[Op] = []
    for family in ("graceful",) + MAGIC:
        k, d = rng.randint(1, 3), rng.randint(1, 3)
        vc, ec, constant = _lift(f, xs, edges, family, k, d)
        fam = labelings.Family(family)

        def lift(fam=fam, k=k, d=d):
            return labelings.lift_from_set_ordered_graceful(base, fam, k, d)

        def check_lift(out, family=family, k=k, d=d, constant=constant) -> None:
            cg, c = out
            require(c == constant, f"{family}: constant {c}, expected {constant}")
            checks.check_kd_coloring(verts, edges, cg.vcolors, cg.ecolors, family, k, d, constant)

        spec = labelings.ConstraintSpec(fam, k=k, d=d, magic_constant=constant)

        def check_search(r, family=family, k=k, d=d, constant=constant) -> None:
            require(r.status is labelings.SearchStatus.FOUND, f"{family} (k={k}, d={d}): search returned {r.status.value}")
            checks.check_kd_coloring(verts, edges, r.coloring.vcolors, r.coloring.ecolors, family, k, d, constant)

        tag = f"{family} k={k} d={d} caterpillar {index}"
        ops.append(Op(f"lift {tag}", lift, check_lift))
        ops.append(Op(f"search {tag}", lambda spec=spec: labelings.search(g, spec), check_search))
        if family in MAGIC:
            lifted = graphs.ColoredGraph(g, vc, ec)

            def transform(fam=fam, lifted=lifted):
                return [labelings.magic_transform(lifted, fam, labelings.Family(dst)) for dst in MAGIC]

            def check_transform(reports, vc=vc, ec=ec, constant=constant) -> None:
                for dst, report in zip(MAGIC, reports):
                    require(report.verdict, f"transform to {dst} reports {report.violations}")
                    require(report.source_constant == constant, "source constant differs")
                    expected = {e: checks.magic_value(dst, vc[e[0]], vc[e[1]], ec[e]) for e in edges}
                    require(report.derived_values == expected, f"derived {dst} values differ")

            ops.append(Op(f"magic_transform {tag}", transform, check_transform))
    return ops


def _cli_search_op(path: str, g) -> Op:
    def call():
        return run_cli(cli.main, ["label", "search", "--graph", path, "--spec", "graceful;labeling"])

    def check(out) -> None:
        code, stdout, err = out
        checks.check_cli_contract(code, err, (0,))
        payload = json.loads(stdout)
        require(payload["status"] == "found", f"status {payload['status']}")
        coloring = payload["coloring"]
        f = {int(v): c for v, c in coloring["vcolors"].items()}
        fe = {tuple(int(x) for x in key.split(",")): c for key, c in coloring["ecolors"].items()}
        checks.check_labeling(g.vertices, g.edges, f, fe, "graceful")

    return Op(f"cli label search n={g.n}", call, check)


def _cli_verify_op(path: str, corrupted: bool) -> Op:
    def call():
        return run_cli(cli.main, ["label", "verify", "--graph", path, "--spec", "graceful;set-ordered;labeling"])

    def check(out) -> None:
        code, stdout, err = out
        if corrupted:
            require(code == 1 and not err, f"exit {code}, stderr {err!r}")
        else:
            checks.check_cli_contract(code, err, (0,))
        payload = json.loads(stdout)
        require(payload["verdict"] is (not corrupted), f"verdict {payload['verdict']}")
        require(bool(payload["violations"]) is corrupted, "violations do not match the verdict")

    return Op(f"cli label verify {'repeated label' if corrupted else 'caterpillar'}", call, check)


def build(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    forest = checks.free_trees(10)
    ops: list[Op] = []
    for n in range(1, 11):
        ops.append(_all_trees_op(n, {checks.canonical_form(*t) for t in forest[n]}))
    for n in range(2, 11):
        for verts, edges in forest[n]:
            ops.append(_search_op(f"graceful n={n}", graphs.Graph.build(verts, edges), "graceful;labeling", "graceful"))
    for n in range(2, 8):
        ops.extend(_set_ordered_op(graphs.Graph.build(v, e)) for v, e in forest[n])
    # Seeded shapes at fixed small sizes: every seed has the same mix of
    # sizes, and these searches stay below the median latency, which the
    # exhaustive inputs set.
    for i in range(20):
        _, _, edges = inputs.caterpillar(4 + i % 2, rng)
        g = graphs.Graph.build(range(len(edges) + 1), edges)
        ops.append(_search_op(f"set-ordered graceful caterpillar q={g.q}", g, "graceful;set-ordered;labeling", "graceful", True))
    for family in NON_MAGIC:
        for i in range(8):
            n = 5 + i % 2
            g = graphs.Graph.build(range(n), inputs.pruefer_tree(n, rng))
            ops.append(_search_op(f"{family} n={n}", g, f"{family};labeling", family))
    for index in range(4):
        ops.extend(_magic_ops(rng, index))
    # magic searches with no declared constant
    for n in (4, 5):
        ops.append(_search_op(f"edge-magic no constant P{n}", graphs.Graph.path(n, first=0), "edge-magic;labeling", "edge-magic"))
    ops.append(
        _search_op("edge-difference no constant P8", graphs.Graph.path(8, first=0), "edge-difference;labeling",
                   "edge-difference",
                   fault=Fault("magic-constant-scan", "CheckError: edge-difference: search returned budget-exhausted"))
    )
    for i in range(3):
        n = 6 + i
        edges = inputs.pruefer_tree(n, rng)
        path = os.path.join(workdir, f"tree{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inputs.graph_json(range(n), edges), fh)
        ops.append(_cli_search_op(path, graphs.Graph.build(range(n), edges)))
    for i, corrupted in enumerate((False, False, True)):
        spine, leaves, edges = inputs.caterpillar(6 + i, rng)
        f = checks.caterpillar_graceful(spine, leaves)
        if corrupted:
            a, b = rng.sample(sorted(f), 2)
            f[a] = f[b]
        path = os.path.join(workdir, f"caterpillar{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inputs.graph_json(sorted(f), edges, f), fh)
        ops.append(_cli_verify_op(path, corrupted))
    return ops
