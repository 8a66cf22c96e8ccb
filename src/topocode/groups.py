"""Every-zero graphic groups and the machinery built on their index law:
the two-index (s, k) family, the graphic-to-matrix-to-string compound
pipeline, group-valued host colorings, incremental network encryption, and
bounded-depth graph-valued strings.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .graphs import MAP_BUDGET, ColoredGraph, Edge, Graph, _map_vertices, _norm_edge
from .strings import DigitString, GroupError, StringGroup, every_zero, group_op, index_law
from .topcode import PermIndex, TopcodeMatrix, string_from_topcode, topcode_from_graph


@dataclass(frozen=True)
class GraphicGroup:
    """Shift family over a base total coloring: element (s, k) adds s to every
    vertex color mod p_window and k to every edge color mod q_window."""

    base: ColoredGraph
    p_window: int
    q_window: int

    def __post_init__(self) -> None:
        if not all(type(w) is int and w >= 1 for w in (self.p_window, self.q_window)):
            raise GroupError(f"window moduli must be integers >= 1, got ({self.p_window!r}, {self.q_window!r})")
        if not self.base.vcolors or self.base.ecolors is None:
            raise GroupError("graphic group needs a total coloring")
        for v in self.base.graph.vertices:
            if not 0 <= self.base.vcolor(v) < self.p_window:
                raise GroupError(f"base vertex color {self.base.vcolor(v)} outside mod {self.p_window}")
        for u, v in self.base.graph.edges:
            if not 0 <= self.base.ecolor(u, v) < self.q_window:
                raise GroupError(f"base edge color outside mod {self.q_window}")

    def element(self, s: int, k: int) -> ColoredGraph:
        vcolors = {v: (self.base.vcolor(v) + s) % self.p_window for v in self.base.graph.vertices}
        ecolors = {e: (self.base.ecolors[e] + k) % self.q_window for e in self.base.graph.edges}
        return ColoredGraph(self.base.graph, vcolors, ecolors)

    def distinct_elements(self) -> int:
        """p*q when the base has an edge, else p: s -> (c + s) mod p is
        injective at any vertex, and k -> (c + k) mod q at any edge."""
        return self.p_window * (self.q_window if self.base.graph.edges else 1)


def build_graphic_group(
    base: ColoredGraph, window: tuple[int, int] | int | None = None
) -> GraphicGroup:
    """Build the family; a single int m is the one-index convention (s = k),
    None uses the odd-graceful default p = q = 2|E|."""
    if window is None:
        window = 2 * base.graph.q
    p_w, q_w = window if isinstance(window, tuple) else (window, window)
    return GraphicGroup(base, p_w, q_w)


def graphic_group_op(
    group: GraphicGroup,
    a: tuple[int, int],
    b: tuple[int, int],
    zero: tuple[int, int],
) -> tuple[int, int]:
    """(s,k) (+) (i,j) (-) zero, with indices mod the two windows.

    The element-wise color arithmetic always lands on the element at the
    returned index, so nothing is recomputed per call: element (s, k) holds
    (c + s) mod p at each vertex and (c + k) mod q at each edge, reduced
    rows of step 1 whose window times step is 0, which is the closure
    condition of ``strings.law_closed`` at every position.  Raises
    GroupError unless every index is an integer pair inside the windows."""
    p, q = group.p_window, group.q_window
    for s, k in (a, b, zero):
        if type(s) is not int or type(k) is not int or not (0 <= s < p and 0 <= k < q):
            raise GroupError(f"indices {(a, b, zero)!r} are not integer pairs inside the windows ({p}, {q})")
    return every_zero(a, b, zero, (p, q))


# ---------------------------------------------------------------------------
# GROUP-compound: graphic group -> Topcode-matrix group -> string group.
# ---------------------------------------------------------------------------


class CompoundStringGroup(StringGroup):
    """Strings derived from a one-index graphic group under a fixed reading
    permutation: a string group whose every position is mod the group
    order, so element indices obey the i+j-zero law digit-wise."""

    @property
    def strings(self) -> tuple[DigitString, ...]:
        """The elements, under the pipeline's name for them."""
        return self.elements

    def op(self, i: int, j: int, zero: int) -> int:
        """``strings.group_op`` in ADDSUB mode."""
        return group_op(self, i, j, zero)


def group_compound(
    base: ColoredGraph, m: int, perm: PermIndex | None = None
) -> tuple[GraphicGroup, list[TopcodeMatrix], CompoundStringGroup]:
    """The one-index pipeline: m shifted colorings, their matrices, and the
    derived every-zero string group under the reading permutation."""
    if m < 2:
        raise GroupError("group order must be >= 2")
    if m > 10:
        raise GroupError("digit strings support group orders up to 10")
    if base.ecolors is None:
        raise GroupError("compound pipeline needs edge colors: the graph has none")
    if not base.vcolors:
        raise GroupError("compound pipeline needs vertex colors: the graph has none")
    colors = list(base.vcolors.values()) + list(base.ecolors.values())
    if any(type(c) is not int for c in colors):
        raise GroupError("compound pipeline needs numeric colorings")
    if max(colors) >= m:
        raise GroupError(f"base colors must stay below the group order {m}")
    group = build_graphic_group(base, m)
    matrices = [
        topcode_from_graph(group.element(t, t)) for t in range(m)
    ]
    strings = tuple(string_from_topcode(t, perm) for t in matrices)
    return group, matrices, CompoundStringGroup(strings, shift=1, position_moduli=(m,) * len(strings[0]))


# ---------------------------------------------------------------------------
# Group-valued host colorings.
# ---------------------------------------------------------------------------


@dataclass
class GroupColoring:
    """Host graph elements carrying group element indices; every edge holds
    index(uv) = index(u) + index(v) - zero (mod order)."""

    host: Graph
    order: int
    zero: int
    vertex_index: dict[int, int]
    edge_index: dict[Edge, int] = field(default_factory=dict)

    def _law(self) -> dict[Edge, int]:
        """The index each host edge holds under the law."""
        edges = tuple(self.host.edges)
        n = len(edges)
        law = every_zero(
            [self.vertex_index[u] for u, _ in edges],
            [self.vertex_index[v] for _, v in edges],
            (self.zero,) * n,
            (self.order,) * n,
        )
        return dict(zip(edges, law))

    def derive_edges(self) -> None:
        self.edge_index.update(self._law())

    def law_holds(self) -> bool:
        return all(self.edge_index.get(e) == index for e, index in self._law().items())


def color_host_by_group(
    host: Graph,
    order: int,
    zero: int,
    vertex_assignment: Mapping[int, int] | None = None,
    proper: bool = False,
    budget: int = MAP_BUDGET,
) -> GroupColoring:
    """Assign group indices to host vertices and derive the edge indices.
    The zero and every assigned index must be integers in range(order)
    (``strings.index_law``), or GroupError is raised.

    Proper mode needs order >= max degree + 1 and finds, by backtracking, an
    assignment where adjacent vertex indices differ and adjacent edge
    indices differ (the derived-index analogue of proper vertex plus proper
    edge coloring; an incident vertex-edge clause would be unsatisfiable at
    order exactly max degree + 1 on stars).  Edges xy and xw hold equal
    indices exactly when y and w do, so this is a distance-2 coloring: each
    index differs from those of all vertices within distance 2.  The
    backtracking tries at most `budget` index placements and raises
    GroupError when they run out."""
    if type(budget) is not int or budget <= 0:
        raise GroupError(f"budget must be a positive integer, got {budget!r}")
    index_law(zero, zero, zero, order)
    if vertex_assignment is not None:
        vi = dict(vertex_assignment)
        missing = set(host.vertices) - set(vi)
        if missing:
            raise GroupError(f"assignment missing vertices {sorted(missing)}")
        for v in host.vertices:
            index_law(vi[v], zero, zero, order)
        gc = GroupColoring(host, order, zero, vi)
        gc.derive_edges()
        return gc
    if proper and order < (top := host.max_degree() + 1):
        raise GroupError(f"proper mode needs group order >= {top}, got {order}")
    adj = host.adjacency()

    verts = sorted(adj, key=lambda v: (-len(adj[v]), v))
    near = {v: set().union(adj[v], *(adj[w] for w in adj[v])) - {v} if proper else () for v in adj}
    assignment = _map_vertices(
        verts,
        dict.fromkeys(verts, range(order)),
        lambda v, idx, phi: idx not in map(phi.get, near[v]),
        budget,
        GroupError(f"proper group coloring search ran out of its budget of {budget} placements"),
    )
    if assignment is None:
        raise GroupError("no proper group coloring within the order")
    gc = GroupColoring(host, order, zero, assignment)
    gc.derive_edges()
    return gc


# ---------------------------------------------------------------------------
# MULTIPLE-JOIN: growing a network under an infinite two-index family.
# ---------------------------------------------------------------------------

Pair = tuple[int, int]


@dataclass
class JoinStep:
    vertex: int
    attach: tuple[int, ...]
    zero: Pair
    index: Pair


@dataclass
class MultipleJoinNetwork:
    """A network whose vertices and edges carry two-index group elements.

    Every growth step picks a fresh seeded random index for the new vertex;
    each new edge u-x gets (s_u + s_x - s_zero, k_u + k_x - k_zero) under
    that step's zero.  The transcript replays bit for bit."""

    seed: int
    index_bound: int = 1000
    vertices: dict[int, Pair] = field(default_factory=dict)
    edges: dict[Edge, Pair] = field(default_factory=dict)
    steps: list[JoinStep] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def start(self, vertex: int, zero: Pair) -> None:
        if self.vertices:
            raise GroupError("network already started")
        idx = self._fresh_index()
        self.vertices[vertex] = idx
        self.steps.append(JoinStep(vertex, (), zero, idx))

    def _fresh_index(self) -> Pair:
        return (self._rng.randrange(self.index_bound), self._rng.randrange(self.index_bound))

    def add_vertex(self, vertex: int, attach: Sequence[int], zero: Pair) -> None:
        if vertex in self.vertices:
            raise GroupError(f"vertex {vertex} already present")
        if not attach:
            raise GroupError("attach set must be nonempty")
        missing = [x for x in attach if x not in self.vertices]
        if missing:
            raise GroupError(f"attach vertices missing: {missing}")
        idx = self._fresh_index()
        self.vertices[vertex] = idx
        for x in attach:
            self.edges[_norm_edge(vertex, x)] = every_zero(idx, self.vertices[x], zero, (None, None))
        self.steps.append(JoinStep(vertex, tuple(attach), zero, idx))

    def edge_law_holds(self) -> bool:
        return all(
            self.edges[_norm_edge(step.vertex, x)]
            == every_zero(self.vertices[step.vertex], self.vertices[x], step.zero, (None, None))
            for step in self.steps
            for x in step.attach
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "index_bound": self.index_bound,
                "steps": [
                    {
                        "vertex": s.vertex,
                        "attach": list(s.attach),
                        "zero": list(s.zero),
                        "index": list(s.index),
                    }
                    for s in self.steps
                ],
            }
        )


def replay_join_transcript(blob: str) -> MultipleJoinNetwork:
    """Re-run a transcript from its seed; indices must reproduce exactly."""
    data = json.loads(blob)
    net = MultipleJoinNetwork(seed=data["seed"], index_bound=data["index_bound"])
    for i, step in enumerate(data["steps"]):
        zero = tuple(step["zero"])
        if i == 0:
            net.start(step["vertex"], zero)
        else:
            net.add_vertex(step["vertex"], step["attach"], zero)
        if tuple(step["index"]) != net.steps[-1].index:
            raise GroupError(f"replay diverged at step {i}")
    return net


# ---------------------------------------------------------------------------
# Graph-valued strings (two levels).
# ---------------------------------------------------------------------------


def graph_based_string(
    host: Graph,
    graph_values: Mapping[int, ColoredGraph],
    level1_perm: Sequence[int] | None = None,
    leaf_perms: Mapping[int, PermIndex] | None = None,
) -> DigitString:
    """Expand a graph-valued vertex coloring of the host into digits.

    The level-1 order is the sorted host vertices (optionally permuted);
    each vertex's graph expands to its Topcode string under its own
    permutation.  Leaf graphs must carry numeric colorings (depth 2 only).
    """
    missing = set(host.vertices) - set(graph_values)
    if missing:
        raise GroupError(f"graph values missing for vertices {sorted(missing)}")
    order = sorted(graph_values)
    if level1_perm is not None:
        if sorted(level1_perm) != list(range(len(order))):
            raise GroupError("level-1 permutation invalid")
        order = [order[i] for i in level1_perm]
    pieces: list[str] = []
    for v in order:
        leaf = graph_values[v]
        colors = list(leaf.vcolors.values()) + list((leaf.ecolors or {}).values())
        if any(type(c) is not int for c in colors):
            raise GroupError("leaf colorings deeper than numbers: depth > 2 requested")
        perm = leaf_perms.get(v) if leaf_perms else None
        pieces.append(str(string_from_topcode(topcode_from_graph(leaf), perm)))
    return DigitString.parse("".join(pieces))


def multiple_join_step(
    net: MultipleJoinNetwork, vertex: int, attach: Sequence[int], zero: Pair
) -> MultipleJoinNetwork:
    """Functional form of one growth step; mutates and returns the network."""
    net.add_vertex(vertex, attach, zero)
    return net
