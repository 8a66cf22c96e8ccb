"""Exhaustive and random generation of trees at desk scale."""

from __future__ import annotations

import random

from .graphs import Graph

# non-isomorphic tree counts for n = 1..10
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106)


def canonical_form(tree: Graph) -> str:
    """AHU canonical string of a free tree, rooted at its center(s)."""
    if not tree.is_tree():
        raise ValueError("not a tree")
    adj = tree.adjacency()
    return min(_ahu(adj, c) for c in _centers(adj))


def _centers(adj: dict[int, set[int]]) -> list[int]:
    if len(adj) <= 2:
        return list(adj)
    degree = {v: len(nbrs) for v, nbrs in adj.items()}
    leaves = [v for v, d in degree.items() if d == 1]
    remaining = len(adj)
    removed = set()
    while remaining > 2:
        remaining -= len(leaves)
        nxt = []
        for leaf in leaves:
            removed.add(leaf)
            for w in adj[leaf]:
                if w in removed:
                    continue
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        leaves = nxt
    return leaves


def _ahu(adj: dict[int, set[int]], v: int, parent: int | None = None) -> str:
    return "(" + "".join(sorted(_ahu(adj, w, v) for w in adj[v] if w != parent)) + ")"


def all_trees(n: int) -> list[Graph]:
    """All non-isomorphic free trees on n vertices (n <= 10)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 10:
        raise ValueError("exhaustive tree generation limited to 10 vertices")
    if n == 1:
        return [Graph.build([0], [])]
    smaller = all_trees(n - 1)
    seen: dict[str, Graph] = {}
    for tree in smaller:
        for attach in tree.vertices:
            grown = Graph.build(list(tree.vertices) + [n - 1], list(tree.edges) + [(attach, n - 1)])
            seen.setdefault(canonical_form(grown), grown)
    return list(seen.values())


def random_tree(n: int, rng: random.Random) -> Graph:
    """A uniformly random labeled tree on vertices 0..n-1 (Pruefer decode)."""
    if n <= 2:
        return Graph.path(n, first=0)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph.build(range(n), edges)


def random_caterpillar(q: int, rng: random.Random) -> Graph:
    """A random caterpillar with q edges: a spine plus pendant leaves."""
    if q < 1:
        raise ValueError("need at least one edge")
    spine_len = rng.randint(1, q)  # number of spine vertices
    spine = list(range(spine_len))
    edges = [(i, i + 1) for i in range(spine_len - 1)]
    nxt = spine_len
    for _ in range(q - (spine_len - 1)):
        host = rng.choice(spine)
        edges.append((host, nxt))
        nxt += 1
    return Graph.build(range(nxt), edges)


def is_caterpillar(tree: Graph) -> bool:
    """A caterpillar's non-leaf vertices induce a path."""
    if not tree.is_tree():
        return False
    adj = tree.adjacency()
    core = {v for v, nbrs in adj.items() if len(nbrs) > 1}
    # the core of a tree is a tree, so it is a path when no vertex of it has 3 core neighbours
    return all(len(adj[v] & core) <= 2 for v in core)
