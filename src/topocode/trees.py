"""Free-tree generation by canonical level sequences, and random trees.

``iter_trees(n)`` walks the canonical level sequences of Beyer and
Hedetniemi (SIAM J. Comput. 9, 1980) in the free-tree order of Wright,
Richmond, Odlyzko and McKay ("Constant time generation of free trees",
SIAM J. Comput. 15, 1986).  A level sequence lists each vertex's depth in
preorder, and a canonical one visits every vertex's subtrees in
non-increasing lexicographic order.  Each free tree is rooted at its center,
or, when it has two, at the end of the central edge whose side is the
larger (then the lexicographically larger) of the two.  The iterator steps
from one such sequence to the next, so it yields every free tree exactly
once, lazily, with no deduplication and no cap on n.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Iterator

from .graphs import Graph

# non-isomorphic free-tree counts for n = 1..14 (OEIS A000055)
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159)


def canonical_form(tree: Graph) -> str:
    """AHU canonical string of a free tree (Aho, Hopcroft and Ullman, 1974),
    the least over its center(s).  A center is the middle of a longest path
    (Jordan, 1869), found by two walks: one to a farthest vertex a, one from
    a to its farthest vertex b.  Each vertex's string is its children's,
    sorted, in parentheses, built bottom up over a walk from the center read
    in reverse visit order, so a vertex's children are the neighbours
    already built."""
    if not tree.is_tree():
        raise ValueError("not a tree")
    from_a = tree.walk([next(reversed(tree.walk(tree.vertices[:1])))])
    b = next(reversed(from_a))
    from_b, length = tree.walk([b]), from_a[b]
    adj = tree.adjacency()
    forms = []
    for center, d in from_a.items():
        if d + from_b[center] == length and d in (length // 2, (length + 1) // 2):
            form: dict[int, str] = {}
            for v in reversed(tree.walk([center])):
                form[v] = "(" + "".join(sorted(form.pop(w) for w in adj[v] if w in form)) + ")"
            forms.append(form[center])
    return min(forms)


def iter_trees(n: int) -> Iterator[Graph]:
    """Every non-isomorphic free tree on n vertices, one at a time, from the
    path to the star.  Each is a tree on 0..n-1, numbered in preorder from
    its root, so every edge joins a parent to a later child."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _free_trees(n)


def all_trees(n: int) -> list[Graph]:
    """All non-isomorphic free trees on n vertices, in ``iter_trees`` order."""
    return list(iter_trees(n))


def _free_trees(n: int) -> Iterator[Graph]:
    if n == 1:
        yield _tree([0])
        return
    # The sequences run in decreasing lexicographic order, from the path
    # rooted at its center down to the star.
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        split = _second_child(levels)
        if _rooted_at_center(levels, split):
            yield _tree(levels)
            p = n - 1  # the last vertex below level 1, or the root
            while levels[p] == 1:
                p -= 1
            if p == 0:
                return
            _next_rooted(levels, p)
            continue
        # Every later sequence with this first subtree keeps it too deep or
        # too large for the rest, so step past them all at once.
        p = split - 1
        deep = levels[p] > 2
        _next_rooted(levels, p)
        if deep:
            # The step left the root a single child, and every sequence down
            # to a rest that is a path as deep as the tree is rooted off
            # center: jump to that one.
            h = max(levels)
            levels[n - h:] = range(1, h + 1)


def _second_child(levels: list[int]) -> int:
    """The index of the root's second child, or len(levels) when it has one
    child; the root's first subtree is levels[1:split]."""
    try:
        return levels.index(1, 2)
    except ValueError:
        return len(levels)


def _rooted_at_center(levels: list[int], split: int) -> bool:
    """Whether the sequence is its free tree's chosen rooting: the first
    subtree (levels[1:split]) is no deeper, counted from its own root, than
    the rest is from the root.  When the depths are equal the edge to the
    first child is the central edge, and the first subtree's side must be
    the smaller, or of equal size and lexicographically no larger."""
    first = max(levels[1:split]) - 1
    rest = max(levels[split:], default=0)
    if first != rest:
        return first < rest
    size = split - 1
    if size != len(levels) - size:
        return size < len(levels) - size
    return [d - 1 for d in levels[1:split]] <= [0] + levels[split:]


def _next_rooted(levels: list[int], p: int) -> None:
    """Beyer and Hedetniemi's step at p, in place: with q the parent of p,
    levels[i] = levels[i - (p - q)] for every i >= p, which repeats q's
    subtree up to p over the tail."""
    q = p - 1
    while levels[q] >= levels[p]:
        q -= 1
    shift = p - q
    for i in range(p, len(levels)):
        levels[i] = levels[i - shift]


def _tree(levels: list[int]) -> Graph:
    """The tree of a level sequence: each vertex's parent is the latest
    vertex one level up, the top of the stack of open ancestors."""
    stack = [0] * len(levels)  # stack[d]: the open ancestor at depth d
    edges = []
    for v in range(1, len(levels)):
        d = levels[v]
        edges.append((stack[d - 1], v))
        stack[d] = v
    return Graph(tuple(range(len(levels))), frozenset(edges))


def random_tree(n: int, rng: random.Random) -> Graph:
    """A uniformly random labeled tree on vertices 0..n-1 (Pruefer decode)."""
    if n <= 2:
        return Graph.path(n, first=0)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = []
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
