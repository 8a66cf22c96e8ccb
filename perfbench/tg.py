"""The ``topcode_groups`` workload: Topcode strings, their PRONBS inverse,
every-zero string and graphic groups, complete-graph splits, spanning-tree
counts, table reproduction and the matching CLI commands."""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import re

from topocode import cli, graphs, groups, strings, tables, topcode

from . import checks, inputs
from .checks import require
from .ops import Fault, Op, run_cli

# (edges per tree, trees); each tree is read row-major, column-major and by rank
TOPCODE_SIZES = ((10, 20), (30, 10), (100, 4), (300, 2), (1000, 1))


def _colored_tree(n: int, rng: random.Random, vmax: int, emax: int):
    edges = inputs.pruefer_tree(n, rng)
    vc, ec = inputs.total_coloring(n, edges, rng, vmax, emax)
    return graphs.ColoredGraph(graphs.Graph.build(range(n), edges), vc, ec), vc, ec


def _topcode_ops(rng: random.Random, q: int) -> list[Op]:
    cg, vc, ec = _colored_tree(q + 1, rng, 2 * q, q + 1)
    rank = rng.randrange(math.factorial(3 * q))
    cols = checks.columns(vc, ec)

    def row():
        return topcode.string_from_topcode(topcode.topcode_from_graph(cg))

    def col():
        return topcode.string_from_topcode(topcode.topcode_from_graph(cg), topcode.PermIndex.column_major(q))

    def ranked():
        return topcode.string_from_topcode(topcode.topcode_from_graph(cg), topcode.PermIndex.from_rank(rank, 3 * q))

    def expect(order):
        cache: list[str] = []

        def check(out) -> None:
            if not cache:
                cache.append(checks.concat(order()))
            require(str(out) == cache[0], "string differs from the cell concatenation")

        return check

    row_cells = checks.row_major(cols)
    return [
        Op(f"topcode row-major q={q}", row, expect(lambda: row_cells)),
        Op(f"topcode column-major q={q}", col, expect(lambda: checks.column_major(cols))),
        Op(f"topcode rank q={q}", ranked, expect(lambda: [row_cells[i] for i in checks.lehmer_unrank(rank, 3 * q)])),
    ]


def _pronbs_op(rng: random.Random, q: int) -> Op:
    spine, leaves, edges = inputs.caterpillar(q, rng)
    f = checks.caterpillar_graceful(spine, leaves)
    verts = sorted(f)
    xs, ys = checks.bipartition(verts, edges)
    if max(f[v] for v in xs) > min(f[v] for v in ys):
        xs, ys = ys, xs
    ec = {e: abs(f[e[0]] - f[e[1]]) for e in edges}
    cg = graphs.ColoredGraph(graphs.Graph.build(verts, edges), dict(f), ec)
    k, d = rng.randint(0, 3), rng.randint(1, 2)
    base = checks.columns(f, ec, xs)
    text = checks.concat(checks.row_major(checks.evaluate_kd(base, k, d)))
    base_rows = tuple(tuple(c[i] for c in base) for i in range(3))

    def call():
        matrix = topcode.topcode_from_graph(cg, x_side=xs)
        s = topcode.string_from_topcode(topcode.parameterize(matrix).evaluate(k, d))
        return s, topcode.pronbs_solve(s)

    def check(out) -> None:
        s, candidates = out
        require(str(s) == text, "regenerated string differs from k*unit + d*base")
        require(any(c.base.rows() == base_rows and (c.k, c.d, c.layout) == (k, d, "row-major") for c in candidates),
                "the source is not among the candidates")
        for c in candidates:
            cand = list(zip(*c.base.rows()))
            require(all(e == abs(y - x) and e >= 1 for x, e, y in cand), "a candidate base is not graceful")
            cells = checks.evaluate_kd(cand, c.k, c.d)
            read = checks.row_major(cells) if c.layout == "row-major" else checks.column_major(cells)
            require(checks.concat(read) == text, "a candidate does not regenerate the string")

    return Op(f"pronbs q={len(edges)} k={k} d={d}", call, check)


def _group_op_table(rng: random.Random, m: int, mode) -> Op:
    ring = strings.DigitRing(m)
    seed_digits = tuple(rng.randrange(m) for _ in range(64))
    seed = strings.DigitString(seed_digits, ring)
    k = rng.randint(1, m - 1)
    triples = list(itertools.product(range(m), repeat=3))
    sign = 1 if mode is strings.GroupOpMode.ADDSUB else -1

    def call():
        g = strings.build_shift_group(seed, k, m)
        return g, [strings.group_op(g, i, j, z, mode) for i, j, z in triples]

    def check(out) -> None:
        g, table = out
        checks.check_shift_group([e.digits for e in g.elements], seed_digits, k, m)
        for (i, j, z), lam in zip(triples, table):
            require(lam == checks.index_law(i, sign * j, sign * z, m), f"({i}, {j}, {z}) -> {lam}")

    return Op(f"group_op table order={m} {mode.value}", call, check)


def _graphic_table(rng: random.Random, n: int) -> Op:
    p, q = 3, 4
    cg, _, _ = _colored_tree(n, rng, p, q)
    zero = (rng.randrange(p), rng.randrange(q))
    cells = [(s, t) for s in range(p) for t in range(q)]

    def call():
        group = groups.build_graphic_group(cg, (p, q))
        return [groups.graphic_group_op(group, a, b, zero) for a in cells for b in cells]

    def check(table) -> None:
        for (a, b), got in zip(itertools.product(cells, cells), table):
            want = (checks.index_law(a[0], b[0], zero[0], p), checks.index_law(a[1], b[1], zero[1], q))
            require(tuple(got) == want, f"{a} (+) {b} -> {got}, expected {want}")

    return Op(f"graphic_group_op table n={n} window=({p},{q})", call, check)


def _shifted_string(vc, ec, t: int, m: int) -> str:
    cols = checks.columns({v: (c + t) % m for v, c in vc.items()}, {e: (c + t) % m for e, c in ec.items()})
    return checks.concat(checks.row_major(cols))


def _compound_op(rng: random.Random) -> Op:
    m = rng.randint(4, 10)
    cg, vc, ec = _colored_tree(rng.randint(3, 6), rng, m, m)
    zero = rng.randrange(m)
    pairs = list(itertools.product(range(m), repeat=2))

    def call():
        _, _, compound = groups.group_compound(cg, m)
        return compound, [compound.op(i, j, zero) for i, j in pairs]

    def check(out) -> None:
        compound, table = out
        require(compound.order == m, "order differs")
        require([str(s) for s in compound.strings] == [_shifted_string(vc, ec, t, m) for t in range(m)], "strings differ")
        require(table == [checks.index_law(i, j, zero, m) for i, j in pairs], "compound op breaks the index law")

    return Op(f"group_compound order={m}", call, check)


def _check_group_coloring(host_edges, order: int, zero: int, proper: bool, assignment=None):
    def check(gc) -> None:
        vi = gc.vertex_index
        if assignment is not None:
            require(vi == assignment, "vertex indices differ from the assignment")
        for u, v in host_edges:
            require(gc.edge_index[(u, v)] == checks.index_law(vi[u], vi[v], zero, order), f"edge {(u, v)} breaks the law")
        if proper:
            adj = checks.adjacency(vi, host_edges)
            for u, v in host_edges:
                require(vi[u] != vi[v], "adjacent vertices share an index")
            for v, nbrs in adj.items():
                seen = [gc.edge_index[(min(v, w), max(v, w))] for w in nbrs]
                require(len(set(seen)) == len(seen), f"edges at {v} share an index")

    return check


def _color_host_ops(rng: random.Random) -> list[Op]:
    ops = []
    for _ in range(4):
        n = rng.randint(6, 10)
        edges = inputs.pruefer_tree(n, rng)
        host = graphs.Graph.build(range(n), edges)
        order = max(len(a) for a in checks.adjacency(range(n), edges).values()) + rng.randint(1, 2)
        zero = rng.randrange(order)
        ops.append(Op(f"color_host proper n={n} order={order}",
                      lambda host=host, order=order, zero=zero: groups.color_host_by_group(host, order, zero, proper=True),
                      _check_group_coloring(edges, order, zero, True)))
    for n in (100, 300):
        edges = inputs.pruefer_tree(n, rng)
        host = graphs.Graph.build(range(n), edges)
        order = rng.randint(5, 10)
        zero = rng.randrange(order)
        assignment = {v: rng.randrange(order) for v in range(n)}
        ops.append(Op(f"color_host assigned n={n}",
                      lambda host=host, order=order, zero=zero, a=assignment: groups.color_host_by_group(host, order, zero, a),
                      _check_group_coloring(edges, order, zero, False, assignment)))
    return ops


def _join_op(rng: random.Random, steps: int) -> Op:
    net_seed = rng.randrange(1_000_000)
    plan = [(v, sorted(rng.sample(range(v), min(v, rng.randint(1, 3)))), (rng.randrange(50), rng.randrange(50)))
            for v in range(1, steps)]
    first_zero = (rng.randrange(50), rng.randrange(50))

    def call():
        net = groups.MultipleJoinNetwork(seed=net_seed)
        net.start(0, first_zero)
        for v, attach, zero in plan:
            groups.multiple_join_step(net, v, attach, zero)
        return net, groups.replay_join_transcript(net.to_json())

    def check(out) -> None:
        net, replayed = out
        require(sorted(net.vertices) == list(range(steps)), "vertices differ from the plan")
        require(replayed.vertices == net.vertices and replayed.edges == net.edges, "replay differs")
        idx = net.vertices
        for v, attach, (z0, z1) in plan:
            for x in attach:
                want = (idx[v][0] + idx[x][0] - z0, idx[v][1] + idx[x][1] - z1)
                require(net.edges[(x, v)] == want, f"edge {(x, v)} breaks the two-index law")

    return Op(f"multiple-join {steps} vertices", call, check)


def _split_op(m: int) -> Op:
    return Op(f"split_complete_even m={m}", lambda: graphs.split_complete_even(m),
              lambda trees: checks.check_split(2 * m, [sorted(t.edges) for t in trees], m))


def _count_op(kind: str, *sizes: int) -> Op:
    want = checks.cayley_count(*sizes) if kind == "complete" else checks.bipartite_count(*sizes)

    def check(out) -> None:
        require(tuple(out) == (want, want), f"{kind} {sizes}: {out}, expected ({want}, {want})")

    return Op(f"count_spanning_trees {kind} {sizes}", lambda: graphs.count_spanning_trees(kind, *sizes), check)


def _table_op(which: int) -> Op:
    reproduce = (lambda: tables.reproduce_table1()) if which == 1 else (lambda: tables.reproduce_table2())
    reference = checks.table1_reference if which == 1 else checks.table2_reference

    def check(result) -> None:
        require([tuple(r) for r in result.rows] == reference(), f"table {which} rows differ from the definitions")
        require(all(len(r) == len(result.header) for r in result.rows), "ragged table")

    return Op(f"reproduce table{which}", reproduce, check)


def _cli(name: str, argv: list[str], check, fault: Fault | None = None) -> Op:
    return Op(f"cli {name}", lambda: run_cli(cli.main, argv), check, fault)


def _ok(check_stdout):
    def check(out) -> None:
        code, stdout, err = out
        checks.check_cli_contract(code, err, (0,))
        check_stdout(stdout)

    return check


def _contract(expected: tuple[int, ...]):
    def check(out) -> None:
        code, _, err = out
        checks.check_cli_contract(code, err, expected)

    return check


def _cli_ops(rng: random.Random, workdir: str) -> list[Op]:
    ops = []
    for which, reference in ((1, checks.table1_reference), (2, checks.table2_reference)):

        def table_text(stdout, reference=reference) -> None:
            rows = [tuple(line.split("\t")) for line in stdout.splitlines()[1:]]
            require(rows == reference(), "printed table differs from the definitions")

        ops.append(_cli(f"tables table{which}", ["tables", "reproduce", "--which", f"table{which}"], _ok(table_text)))
    # fixed sizes: a seed changes shapes and colors only, so every seed has
    # the same mix of operation costs around the 90th percentile
    m = 5
    ops.append(_cli(f"split-complete m={m}", ["graph", "split-complete", "--m", str(m)], _ok(
        lambda out: checks.check_split(2 * m, [[tuple(e) for e in t["edges"]] for t in json.loads(out)["trees"]], m))))
    n = 5
    ops.append(_cli(f"cayley m={n}", ["graph", "cayley", "--m", str(n)], _ok(
        lambda out: require(json.loads(out) == {"closed_form": checks.cayley_count(n), "enumerated": checks.cayley_count(n)}, out))))
    a, b = 3, 3
    ops.append(_cli(f"bipartite-count {a}x{b}", ["graph", "bipartite-count", "--m", str(a), "--n", str(b)], _ok(
        lambda out: require(json.loads(out) == {"closed_form": checks.bipartite_count(a, b), "enumerated": checks.bipartite_count(a, b)}, out))))

    q = 12
    _, vc, ec = _colored_tree(q + 1, rng, 2 * q, q + 1)
    tree_path = os.path.join(workdir, "colored.json")
    with open(tree_path, "w", encoding="utf-8") as fh:
        json.dump(inputs.graph_json(sorted(vc), sorted(ec), vc, ec), fh)
    rank = rng.randrange(math.factorial(3 * q))
    cells = checks.row_major(checks.columns(vc, ec))
    want = checks.concat(cells[i] for i in checks.lehmer_unrank(rank, 3 * q))
    ops.append(_cli(f"topcode string q={q}", ["topcode", "string", "--graph", tree_path, "--perm-rank", str(rank)],
                    _ok(lambda out: require(out == want + "\n", "printed string differs"))))

    def dot_text(out) -> None:
        found = {tuple(int(x) for x in m.groups()) for m in re.finditer(r"^\s*(\d+) -- (\d+)\b", out, re.M)}
        require(found == set(ec), "DOT edges differ from the graph's edges")

    ops.append(_cli("graph dot", ["graph", "dot", "--graph", tree_path], _ok(dot_text)))

    mm = 6
    _, cvc, cec = _colored_tree(5, rng, mm, mm)
    base_path = os.path.join(workdir, "base.json")
    with open(base_path, "w", encoding="utf-8") as fh:
        json.dump(inputs.graph_json(sorted(cvc), sorted(cec), cvc, cec), fh)
    ops.append(_cli(f"group compound m={mm}", ["group", "compound", "--graph", base_path, "--m", str(mm)], _ok(
        lambda out: require(json.loads(out) == {"order": mm, "strings": [_shifted_string(cvc, cec, t, mm) for t in range(mm)]}, out))))

    # fault 3: inputs on which the CLI breaks its exit-code contract
    no_edges = os.path.join(workdir, "no-edges.json")
    with open(no_edges, "w", encoding="utf-8") as fh:
        json.dump({"vertices": [1, 2]}, fh)
    ops.append(_cli("graph file without edges", ["topcode", "matrix", "--graph", no_edges], _contract((1, 2)),
                    Fault("cli-contract", "KeyError: 'edges'")))
    ops.append(_cli("graph dot without --graph", ["graph", "dot"], _contract((1, 2)), Fault("cli-contract", "TypeError: ")))
    ops.append(_cli("graph cayley --m 0", ["graph", "cayley", "--m", "0"], _contract((1, 2)),
                    Fault("cli-contract", "ZeroDivisionError: ")))
    ops.append(_cli("proto run without --id", ["proto", "run", "--seed", "7"], _contract((2,)),
                    Fault("cli-contract", "CheckError: exit code 1, expected one of (2,)")))
    return ops


def build(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for q, count in TOPCODE_SIZES:
        for _ in range(count):
            ops.extend(_topcode_ops(rng, q))
    ops.extend(_pronbs_op(rng, q) for q in (2, 3, 3, 3, 3, 3))
    # five seeded tables of order 8 per mode form a block of equal
    # operations across the 90th percentile, which then reads one kind of work
    for m in range(2, 11):
        for mode in strings.GroupOpMode:
            ops.extend(_group_op_table(rng, m, mode) for _ in range(5 if m == 8 else 1))
    ops.extend(_graphic_table(rng, n) for n in (5, 10, 20, 40))
    ops.extend(_compound_op(rng) for _ in range(4))
    ops.extend(_color_host_ops(rng))
    ops.extend(_join_op(rng, steps) for steps in (50, 200))
    ops.extend(_split_op(m) for m in range(2, 19))
    ops.extend(_count_op("complete", n) for n in range(2, 8))
    ops.extend(_count_op("bipartite", a, b) for a in range(1, 5) for b in range(a, 9 - a))
    ops.extend(_table_op(which) for which in (1, 2))
    ops.extend(_cli_ops(rng, workdir))
    return ops
