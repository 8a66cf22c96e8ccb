"""Seeded input generation, independent of topocode's own generators.

Trees, caterpillars and colorings are plain tuples and dicts here; the
workloads turn them into topocode objects.  The same seed gives the same
inputs.
"""

from __future__ import annotations

import heapq
import random


def pruefer_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a uniformly random labeled tree on 0..n-1 (Pruefer decoding)."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, s), max(leaf, s)))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return sorted(edges)


def caterpillar(q: int, rng: random.Random) -> tuple[list[int], dict[int, list[int]], list[tuple[int, int]]]:
    """A caterpillar with q edges: (spine, leaves per spine vertex, edges)."""
    length = rng.randint(1, q)
    spine = list(range(length))
    leaves: dict[int, list[int]] = {v: [] for v in spine}
    edges = [(i, i + 1) for i in range(length - 1)]
    nxt = length
    for _ in range(q - (length - 1)):
        host = rng.choice(spine)
        leaves[host].append(nxt)
        edges.append((host, nxt))
        nxt += 1
    return spine, leaves, sorted(edges)


def total_coloring(n: int, edges, rng: random.Random, vmax: int, emax: int) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    vcolors = {v: rng.randrange(vmax) for v in range(n)}
    ecolors = {e: rng.randrange(emax) for e in edges}
    return vcolors, ecolors


def payload(size: int, rng: random.Random) -> bytes:
    return rng.randbytes(size)


def text_payload(rng: random.Random, lo: int = 20, hi: int = 60) -> str:
    alphabet = "abcdefghijklmnopqrstuvwxyz "
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def graph_json(vertices, edges, vcolors=None, ecolors=None) -> dict:
    """The CLI's graph file shape."""
    blob = {"vertices": list(vertices), "edges": [list(e) for e in edges]}
    if vcolors is not None:
        blob["vcolors"] = {str(v): c for v, c in vcolors.items()}
    if ecolors is not None:
        blob["ecolors"] = {f"{u},{v}": c for (u, v), c in ecolors.items()}
    return blob
