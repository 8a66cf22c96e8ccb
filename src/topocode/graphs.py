"""Simple undirected graphs and the structural operations used by the
labeling and key-pair machinery: vertex splitting and coinciding, edge
join and add/subtract, complete-graph spanning-tree splits, spanning-tree
counting, and colored homomorphism and isomorphism tests, which share one
budgeted vertex-map search.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, Sequence

Edge = tuple[int, int]


class GraphError(ValueError):
    pass


def _norm_edge(u: int, v: int) -> Edge:
    if u == v:
        raise GraphError(f"loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on integer vertex identifiers."""

    vertices: tuple[int, ...]
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise GraphError("duplicate vertex identifiers")
        for u, v in self.edges:
            if u >= v:
                raise GraphError(f"edge {(u, v)} not normalized")
            if u not in vset or v not in vset:
                raise GraphError(f"edge {(u, v)} references a missing vertex")

    @staticmethod
    def build(vertices: Iterable[int], edges: Iterable[Sequence[int]]) -> "Graph":
        norm = frozenset(_norm_edge(u, v) for u, v in edges)
        return Graph(tuple(sorted(vertices)), norm)

    @staticmethod
    def complete(n: int, first: int = 1) -> "Graph":
        verts = range(first, first + n)
        return Graph.build(verts, itertools.combinations(verts, 2))

    @staticmethod
    def complete_bipartite(m: int, n: int) -> "Graph":
        left = range(1, m + 1)
        right = range(m + 1, m + n + 1)
        return Graph.build(
            itertools.chain(left, right), ((u, v) for u in left for v in right)
        )

    @staticmethod
    def path(n: int, first: int = 1) -> "Graph":
        verts = list(range(first, first + n))
        return Graph.build(verts, zip(verts, verts[1:]))

    @staticmethod
    def cycle(n: int, first: int = 1) -> "Graph":
        verts = list(range(first, first + n))
        return Graph.build(verts, zip(verts, verts[1:] + verts[:1]))

    @staticmethod
    def star(leaves: int, center: int = 0) -> "Graph":
        verts = [center] + [center + i + 1 for i in range(leaves)]
        return Graph.build(verts, ((center, v) for v in verts[1:]))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def q(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def adjacency(self) -> dict[int, set[int]]:
        """Every vertex's neighbour set, built in O(V + E) on each call."""
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def neighbors(self, u: int) -> set[int]:
        """u's neighbour set, empty for a vertex outside the graph."""
        return self.adjacency().get(u, set())

    def degree(self, u: int) -> int:
        return len(self.neighbors(u))

    def max_degree(self) -> int:
        return max(map(len, self.adjacency().values()), default=0)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def walk(self, roots: Iterable[int], key: Callable[[int], object] | None = None) -> dict[int, int]:
        """Breadth first from each root not yet reached, in turn: every
        reached vertex in visit order, mapped to its depth.  Unreached
        neighbours are queued in ``key`` order, ascending by default."""
        adj = self.adjacency()
        depth: dict[int, int] = {}
        for root in roots:
            if root in depth:
                continue
            depth[root] = 0
            queue = [root]
            for u in queue:  # the loop reads what it appends
                d = depth[u] + 1
                for w in sorted(adj[u].difference(depth), key=key):
                    depth[w] = d
                    queue.append(w)
        return depth

    def is_connected(self) -> bool:
        return len(self.walk(self.vertices[:1])) == self.n

    def is_tree(self) -> bool:
        return self.q == self.n - 1 and self.is_connected()

    def bipartition(self) -> tuple[set[int], set[int]] | None:
        """The unique 2-coloring classes of a connected bipartite graph:
        even and odd depths from the first vertex."""
        depth = self.walk(self.vertices[:1])
        if not depth or len(depth) != self.n or any(depth[u] % 2 == depth[v] % 2 for u, v in self.edges):
            return None
        side0 = {u for u, d in depth.items() if d % 2 == 0}
        return side0, set(self.vertices) - side0

    def to_json(self) -> dict:
        return {"n": self.n, "vertices": list(self.vertices), "edges": [list(e) for e in self.sorted_edges()]}

    def to_dot(self, vcolors: Mapping[int, object] | None = None, ecolors: Mapping[Edge, object] | None = None) -> str:
        lines = ["graph G {"]
        for u in self.vertices:
            label = f' [label="{u}:{vcolors[u]}"]' if vcolors and u in vcolors else ""
            lines.append(f"  {u}{label};")
        for u, v in self.sorted_edges():
            label = f' [label="{ecolors[(u, v)]}"]' if ecolors and (u, v) in ecolors else ""
            lines.append(f"  {u} -- {v}{label};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def graph_from_json(blob: dict | str) -> "Graph":
    data = json.loads(blob) if isinstance(blob, str) else blob
    if not isinstance(data, dict) or "edges" not in data or not ("vertices" in data or "n" in data):
        raise GraphError("graph JSON needs an 'edges' list and 'vertices' or 'n'")
    edges = data["edges"]
    if not isinstance(edges, (list, tuple)) or not all(
        isinstance(e, (list, tuple)) and len(e) == 2 and all(type(x) is int for x in e) for e in edges
    ):
        raise GraphError("graph JSON 'edges' must be a list of [u, v] integer pairs")
    if "vertices" in data:
        vertices = data["vertices"]
        if not isinstance(vertices, (list, tuple)) or not all(type(v) is int for v in vertices):
            raise GraphError("graph JSON 'vertices' must be a list of integers")
    elif type(data["n"]) is int:
        vertices = range(data["n"])
    else:
        raise GraphError("graph JSON 'n' must be an integer")
    return Graph.build(vertices, edges)


class UnionFind:
    """Disjoint sets over an explicit vertex universe."""

    def __init__(self, items: Iterable[int]):
        self.parent = {x: x for x in items}

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


@dataclass
class ColoredGraph:
    """A graph plus vertex colors and optional edge colors.

    Color values may be integers, digit strings, or tuples of integers;
    treat instances as immutable.
    """

    graph: Graph
    vcolors: dict[int, object] = field(default_factory=dict)
    ecolors: dict[Edge, object] | None = None

    def __post_init__(self) -> None:
        missing = set(self.graph.vertices) - set(self.vcolors)
        if self.vcolors and missing:
            raise GraphError(f"vertex colors missing for {sorted(missing)}")
        if self.ecolors is not None:
            missing_e = set(self.graph.edges) - set(self.ecolors)
            if missing_e:
                raise GraphError(f"edge colors missing for {sorted(missing_e)}")

    def vcolor(self, u: int):
        return self.vcolors[u]

    def ecolor(self, u: int, v: int):
        if self.ecolors is None:
            raise GraphError("graph has no edge colors")
        return self.ecolors[_norm_edge(u, v)]

    def to_json(self) -> dict:
        blob = self.graph.to_json()
        blob["vcolors"] = {str(u): _color_json(c) for u, c in sorted(self.vcolors.items())}
        if self.ecolors is not None:
            blob["ecolors"] = {f"{u},{v}": _color_json(c) for (u, v), c in sorted(self.ecolors.items())}
        return blob


def _color_json(c: object):
    if isinstance(c, tuple):
        return list(c)
    if isinstance(c, int):
        return c
    return str(c)


# ---------------------------------------------------------------------------
# Structural operations.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VertexSplitPlan:
    """Split ``target`` so that each block of neighbors gets its own copy."""

    target: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if len(self.blocks) < 2:
            raise GraphError("vertex split needs at least two blocks")
        if any(not b for b in self.blocks):
            raise GraphError("vertex split blocks must be nonempty")
        seen: set[int] = set()
        for b in self.blocks:
            if seen & b:
                raise GraphError("vertex split blocks must be disjoint")
            seen |= b


def vertex_split(g: Graph, plan: VertexSplitPlan) -> Graph:
    """Replace the target by one vertex per block; edge count is preserved."""
    nbrs = g.neighbors(plan.target)
    if len(nbrs) < 2:
        raise GraphError("vertex split target must have degree >= 2")
    covered = set().union(*plan.blocks)
    if covered != nbrs:
        raise GraphError(f"blocks must partition the neighborhood {sorted(nbrs)}")
    fresh = max(g.vertices) + 1
    copies = [plan.target] + [fresh + i for i in range(len(plan.blocks) - 1)]
    vertices = list(g.vertices) + copies[1:]
    edges = [e for e in g.edges if plan.target not in e]
    for copy, block in zip(copies, plan.blocks):
        edges.extend(_norm_edge(copy, w) for w in block)
    return Graph.build(vertices, edges)


class CoincideRule(Enum):
    BY_COLOR = "by-color"
    EXPLICIT = "explicit"


def vertex_coincide(
    parts: Sequence[ColoredGraph],
    rule: CoincideRule = CoincideRule.BY_COLOR,
    pairs: Sequence[tuple[tuple[int, int], tuple[int, int]]] | None = None,
) -> ColoredGraph:
    """Merge vertices across the parts; the edge sets must stay disjoint.

    Each rule only maps every part's vertices to merged ids.  BY_COLOR
    merges every set of vertices sharing one color (compared as text) into
    the smallest original id among them; two colors landing on one id is an
    error.  EXPLICIT merges the vertices named by ((part, vertex), (part,
    vertex)) pairs in the disjoint union of the parts, numbered from 0:
    vertex u of part i becomes u - min(part i) + offset_i, where offset_i
    is the total span (max - min + 1) of parts 0..i-1, and each merged
    vertex takes the smallest of its numbers; a pair naming a part or a
    vertex that does not exist is an error.  Under both rules a merge
    creating a loop, or an edge appearing twice, is an error, and edge
    colors carry over only when every part has them.  A merged vertex takes
    the color of its first colored member in part order, then vertex order
    (under EXPLICIT, its smallest-numbered member): merging differently
    colored vertices is allowed, and the later colors are dropped.
    """
    if not parts:
        raise GraphError("nothing to coincide")
    if rule is CoincideRule.BY_COLOR:
        ids: dict[str, int] = {}
        for pi, part in enumerate(parts):
            if not part.vcolors:
                raise GraphError(f"part {pi} has no vertex colors")
            for u in part.graph.vertices:
                key = str(part.vcolors[u])
                ids[key] = min(ids.get(key, u), u)
        owners: dict[int, str] = {}
        for key, u in ids.items():
            if owners.setdefault(u, key) != key:
                raise GraphError(f"colors {owners[u]} and {key} would both be vertex {u}")
        vmaps = [{u: ids[str(part.vcolors[u])] for u in part.graph.vertices} for part in parts]
    else:
        if pairs is None:
            raise GraphError("explicit coinciding needs vertex pairs")
        shifts, offset = [], 0
        for part in parts:
            low = min(part.graph.vertices)
            shifts.append(offset - low)
            offset += max(part.graph.vertices) - low + 1
        uf = UnionFind(u + s for part, s in zip(parts, shifts) for u in part.graph.vertices)
        for ends in pairs:
            for pi, u in ends:
                if not (0 <= pi < len(parts) and u in parts[pi].graph.vertices):
                    raise GraphError(f"explicit pair names no vertex {u} of part {pi}")
            (pa, va), (pb, vb) = ends
            uf.union(va + shifts[pa], vb + shifts[pb])
        roots: dict[int, int] = {}
        for v in sorted(uf.parent):
            roots.setdefault(uf.find(v), v)
        vmaps = [{u: roots[uf.find(u + s)] for u in part.graph.vertices} for part, s in zip(parts, shifts)]
    all_ecolors = all(p.ecolors is not None for p in parts)
    vcolors: dict[int, object] = {}
    edges: dict[Edge, object] = {}
    for part, vmap in zip(parts, vmaps):
        for u, mu in vmap.items():
            if part.vcolors.get(u) is not None:
                vcolors.setdefault(mu, part.vcolors[u])
        for u, v in part.graph.edges:
            mu, mv = vmap[u], vmap[v]
            if mu == mv:
                raise GraphError(f"coinciding would create a loop at vertex {mu}")
            e = (mu, mv) if mu < mv else (mv, mu)
            if e in edges:
                raise GraphError(f"coinciding would create a multi-edge at {e}")
            edges[e] = part.ecolors[(u, v)] if all_ecolors else None
    graph = Graph(tuple(sorted({mu for vmap in vmaps for mu in vmap.values()})), frozenset(edges))
    return ColoredGraph(graph, vcolors, edges if all_ecolors else None)


def edge_join(g: Graph, u: int, h: Graph, x: int) -> Graph:
    """Join disjoint graphs by the single new edge u-x."""
    if set(g.vertices) & set(h.vertices):
        raise GraphError("edge-join expects vertex-disjoint graphs")
    if u not in g.vertices or x not in h.vertices:
        raise GraphError("edge-join endpoints missing")
    return Graph.build(g.vertices + h.vertices, list(g.edges) + list(h.edges) + [(u, x)])


def edge_add_sub(g: Graph, add: Sequence[int], remove: Sequence[int]) -> Graph:
    """The +-e operation: add one absent edge and remove one present edge."""
    add_e = _norm_edge(*add)
    rm_e = _norm_edge(*remove)
    if add_e in g.edges:
        raise GraphError(f"edge {add_e} already present")
    if rm_e not in g.edges:
        raise GraphError(f"edge {rm_e} not present")
    return Graph.build(g.vertices, (g.edges - {rm_e}) | {add_e})


# ---------------------------------------------------------------------------
# Complete-graph splits into edge-disjoint spanning trees.
# ---------------------------------------------------------------------------


def split_complete_even(m: int) -> list[Graph]:
    """Split E(K_2m) into m edge-disjoint spanning trees, on vertices 1..2m.

    Walecki's construction (B. Alspach, "The wonderful Walecki
    construction", 2008): on vertices 0..2m-1, path i visits i, i+1, i-1,
    i+2, i-2, ..., i+m (mod 2m).  The m zig-zag paths are Hamiltonian and
    edge-disjoint, so together they use all m(2m-1) edges.
    """
    if m < 2:
        raise GraphError("need m >= 2")
    n = 2 * m
    trees = []
    for i in range(m):
        walk = [(i + (j + 1) // 2 if j % 2 else i - j // 2) % n + 1 for j in range(n)]
        trees.append(Graph.build(range(1, n + 1), zip(walk, walk[1:])))
    return trees


def split_complete_odd(m: int) -> tuple[Graph, list[Graph]]:
    """Split E(K_2m+1) into a star K_1,m plus m spanning trees of 2m edges."""
    if m < 2:
        raise GraphError("need m >= 2")
    trees = split_complete_even(m)
    hub = 2 * m + 1
    verts = list(range(1, 2 * m + 2))
    grown = [
        Graph.build(verts, list(tr.edges) + [(i + 1, hub)])
        for i, tr in enumerate(trees)
    ]
    star = Graph.build(verts, [(m + 1 + j, hub) for j in range(m)])
    return star, grown


def verify_edge_disjoint_spanning(host: Graph, parts: Sequence[Graph]) -> bool:
    """Check that the parts partition E(host) and that every part with
    |V(host)|-1 edges is a spanning tree: connected on V(host)."""
    seen: set[Edge] = set()
    for part in parts:
        if set(part.vertices) - set(host.vertices):
            return False
        if seen & part.edges:
            return False
        seen |= part.edges
        if part.q == host.n - 1 and not Graph(host.vertices, part.edges).is_connected():
            return False
    return seen == host.edges


# ---------------------------------------------------------------------------
# Spanning-tree counting.
# ---------------------------------------------------------------------------


def cayley_count(n: int) -> int:
    return n ** (n - 2) if n >= 2 else 1


def bipartite_tree_count(m: int, n: int) -> int:
    return m ** (n - 1) * n ** (m - 1)


def _matrix_tree_count(g: Graph) -> int:
    """Spanning trees of g by Kirchhoff's matrix-tree theorem: the determinant
    of the Laplacian without the first vertex's row and column, exact by
    Bareiss's fraction-free elimination.  The reduced Laplacian is positive
    semidefinite, so a zero pivot (leading minor) means a zero determinant
    and no row swap is needed."""
    adj = g.adjacency()
    rest = g.vertices[1:]
    lap = [[len(adj[u]) if u == v else -(v in adj[u]) for v in rest] for u in rest]
    prev = 1
    for k, row in enumerate(lap):
        pivot = row[k]
        if pivot == 0:
            return 0
        for r in lap[k + 1 :]:
            r[k + 1 :] = [(x * pivot - r[k] * y) // prev for x, y in zip(r[k + 1 :], row[k + 1 :])]
        prev = pivot
    return prev


def count_spanning_trees(kind: str, *sizes: int) -> tuple[int, int]:
    """The closed-form count and the matrix-tree count of K_n (kind 'complete',
    one size, n^(n-2)) or K_{m,n} (kind 'bipartite', two sizes, m^(n-1) n^(m-1));
    the second is an exact determinant of the graph itself, for every size."""
    if any(size < 1 for size in sizes):
        raise GraphError(f"graph sizes must be >= 1, got {', '.join(map(str, sizes))}")
    if kind == "complete":
        (n,) = sizes
        return cayley_count(n), _matrix_tree_count(Graph.complete(n))
    if kind == "bipartite":
        m, n = sizes
        return bipartite_tree_count(m, n), _matrix_tree_count(Graph.complete_bipartite(m, n))
    raise GraphError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Colored graph homomorphisms and isomorphism, by one vertex-map search.
# ---------------------------------------------------------------------------

MAP_BUDGET = 2_000_000  # images a vertex-map search may try


def _map_vertices(
    order: Sequence[int], candidates: Mapping[int, Iterable[int]], fits: Callable[[int, int, dict], bool],
    budget: int, overrun: Exception,
) -> dict[int, int] | None:
    """Map the vertices of ``order`` in turn, each to the first of
    ``candidates[u]`` with ``fits(u, x, phi)`` on the partial map phi, and
    backtrack on dead ends (Ullmann, J. ACM 1976; Cordella et al., IEEE
    TPAMI 2004).  Returns the first total map, or None.  Every image tried
    counts against ``budget``; the try past it raises ``overrun``."""
    phi: dict[int, int] = {}
    stack: list[Iterator[int]] = []  # one iterator over the candidates left per vertex
    tried = 0
    while len(phi) < len(order):
        u = order[len(phi)]
        if len(stack) == len(phi):
            stack.append(iter(candidates[u]))
        for x in stack[-1]:
            tried += 1
            if tried > budget:
                raise overrun
            if fits(u, x, phi):
                phi[u] = x
                break
        else:
            stack.pop()
            if not stack:
                return None
            phi.popitem()
    return phi


class HomMode(Enum):
    V = "v"
    E = "e"
    VE = "ve"


def check_colored_homomorphism(
    h: ColoredGraph,
    g: ColoredGraph,
    mapping: Mapping[int, int] | None,
    mode: HomMode = HomMode.V,
) -> bool:
    """Check ``mapping``, or search for one when it is None, as a
    color-compatible homomorphism h -> g.

    Edges must map to edges.  Mode V wants vertex colors preserved and
    adjacent image-colors distinct; mode E the same for edge colors over
    adjacent edges; VE both.  The search tries at most MAP_BUDGET images
    and raises GraphError when they run out.
    """
    hadj, gadj = h.graph.adjacency(), g.graph.adjacency()
    if mapping is not None:
        missing = set(hadj) - set(mapping)
        if missing:
            raise GraphError(f"mapping not total, missing {sorted(missing)}")
        for u in hadj:
            if mapping[u] not in gadj:
                raise GraphError(f"mapping sends vertex {u} to {mapping[u]}, which is not a vertex of g")
    by_v, by_e = mode in (HomMode.V, HomMode.VE), mode in (HomMode.E, HomMode.VE)
    if by_v and h.graph.n and not (h.vcolors and g.vcolors):
        raise GraphError("vertex-colored homomorphism needs vertex colors")
    if by_e and (h.ecolors is None or g.ecolors is None):
        raise GraphError("edge-colored homomorphism needs edge colors")
    # the clauses on h alone: adjacent vertices, and edges sharing an end, differ in color
    if by_v and any(h.vcolors[u] == h.vcolors[v] for u, v in h.graph.edges):
        return False
    pairs_at = ((u, w, x) for u in hadj for w, x in itertools.combinations(hadj[u], 2))
    if by_e and any(h.ecolor(u, w) == h.ecolor(u, x) for u, w, x in pairs_at):
        return False

    def fits(u: int, x: int, phi: dict[int, int]) -> bool:
        mapped = [(w, phi[w]) for w in hadj[u] if w in phi]
        return all(y in gadj[x] and (not by_e or h.ecolor(u, w) == g.ecolor(x, y)) for w, y in mapped)

    candidates = {u: g.graph.vertices if mapping is None else (mapping[u],) for u in hadj}
    if by_v:
        candidates = {u: [x for x in xs if g.vcolors[x] == h.vcolors[u]] for u, xs in candidates.items()}
    overrun = GraphError(f"homomorphism search ran out of its budget of {MAP_BUDGET} tried images")
    return _map_vertices(h.graph.vertices, candidates, fits, MAP_BUDGET, overrun) is not None


def are_isomorphic(a: Graph, b: Graph) -> bool:
    """Isomorphism test: maps a's vertices onto b's vertices of equal
    degree, keeping edges and non-edges.  a is mapped component by
    component, each breadth-first from its highest-degree vertex, so every
    vertex after a component's first is next to a mapped one and its image
    is pinned down by that neighbour's image.  Tries at most MAP_BUDGET
    images and raises GraphError when they run out."""
    if a.n != b.n or a.q != b.q:
        return False
    adj_a, adj_b = a.adjacency(), b.adjacency()
    if sorted(map(len, adj_a.values())) != sorted(map(len, adj_b.values())):
        return False
    by_degree: dict[int, list[int]] = {}
    for v, nbrs in adj_b.items():
        by_degree.setdefault(len(nbrs), []).append(v)

    def fits(u: int, v: int, phi: dict[int, int]) -> bool:
        return all(y != v and (w in adj_a[u]) == (y in adj_b[v]) for w, y in phi.items())

    ranked = sorted(a.vertices, key=lambda u: -len(adj_a[u]))
    place = {u: i for i, u in enumerate(ranked)}
    order = list(a.walk(ranked, place.__getitem__))
    candidates = {u: by_degree[len(adj_a[u])] for u in order}
    overrun = GraphError(f"isomorphism search ran out of its budget of {MAP_BUDGET} tried images")
    return _map_vertices(order, candidates, fits, MAP_BUDGET, overrun) is not None
