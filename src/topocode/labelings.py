"""Verification and search for W-constraint labelings and colorings.

The eight families share one verifier: a per-edge arithmetic rule, a
required edge color set (an arithmetic progression in the general (k, d)
form), and optional clauses switched by flags (set-ordered, strongly,
labeling, odd-edge, pseudo, proper).  Each family's edge rule is written
once, as the ``EdgeRule`` that ``Family.rule`` returns; ``verify``,
``search``, ``magic_transform`` and ``compose_string_coloring`` all read
it.  Verification modes:

* constraint-only (default): just the per-edge rule, with magic constants
  inferred from the first edge when undeclared;
* labeling (``labeling`` flag): the classical clauses, e.g. graceful =
  injective vertex labels in [0, q] with edge set exactly [1, q];
* parametric (explicit k or d): bipartite range clauses X in {0, d, ...},
  Y and edges in {k, k+d, ...} plus the edge-set clause.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .graphs import ColoredGraph, Edge, Graph, _norm_edge


class LabelingError(ValueError):
    pass


class Family(Enum):
    GRACEFUL = "graceful"
    ODD_GRACEFUL = "odd-graceful"
    HARMONIOUS = "harmonious"
    ODD_ELEGANT = "odd-elegant"
    EDGE_MAGIC = "edge-magic"
    EDGE_DIFFERENCE = "edge-difference"
    GRACEFUL_DIFFERENCE = "graceful-difference"
    FELICITOUS_DIFFERENCE = "felicitous-difference"

    @property
    def rule(self) -> "EdgeRule":
        return _EDGE_RULES[self]


@dataclass(frozen=True)
class EdgeRule:
    """How a family reads an edge between labels a and b (Gallian's Dynamic
    Survey of Graph Labeling).  The edge reads s = |a - b| (``difference``)
    or s = a + b.  Its value e is s itself, or k + (s - k) mod period*q*d;
    in a magic family e is free and tied to the constant c by ``magic``:
    s + e = c or |s - e| = c.  ``kd`` is the classical (k, d)."""

    difference: bool
    period: int = 0
    magic: str | None = None  # "s+e" or "|s-e|"
    kd: tuple[int, int] = (1, 1)

    def s(self, a: int, b: int) -> int:
        return abs(a - b) if self.difference else a + b

    def induced(self, a: int, b: int, q: int, k: int, d: int) -> int:
        """The edge value of a non-magic family."""
        s = self.s(a, b)
        return k + (s - k) % (self.period * q * d) if self.period else s

    def magic_value(self, a: int, b: int, e: int) -> int:
        """What a magic family holds equal to c on an edge of value e."""
        s = self.s(a, b)
        return s + e if self.magic == "s+e" else abs(s - e)

    def values(self, a: int, b: int, q: int, k: int, d: int, c: int | None) -> set[int]:
        """The values an edge between labels a and b may take."""
        return self._mirror(self.s(a, b), c) if self.magic else {self.induced(a, b, q, k, d)}

    def partners(self, e: int, labels: set[int], q: int, d: int, c: int | None) -> dict[int, list[int]]:
        """Each label's partners among ``labels`` across an edge of value e,
        keyed in the order of ``labels``.  A list's order fixes the order of
        a search's moves, so it is kept by construction.  A difference rule
        takes each s >= 0 of ``_mirror(e, c)`` in set order and gives label a
        the members of the set {a - s, a + s} in that set's iteration order,
        which is not always ascending ({7, 9} iterates 9 first).  A period
        rule gives a the labels of residue (e - a) mod period*q*d in the
        order of ``labels``; labels of one residue share that list, so the
        lists are read-only."""
        if self.period:
            m, groups, empty = self.period * q * d, {}, []
            for b in labels:
                groups.setdefault(b % m, []).append(b)
            return {a: groups.get((e - a) % m, empty) for a in labels}
        sums = self._mirror(e, c)
        if not self.difference:
            return {a: [s - a for s in sums if s - a in labels] for a in labels}
        table = {a: [] for a in labels}
        for s in sums:
            if s < 0:
                continue
            for a, bs in table.items():
                lo, hi = a - s, a + s
                if lo in labels:
                    if hi in labels:
                        bs.extend({lo, hi})
                    else:
                        bs.append(lo)
                elif hi in labels:
                    bs.append(hi)
        return table

    def _mirror(self, x: int, c: int | None) -> set[int]:
        """Without a period, the edge values that s = x allows, which are
        also the s that allow edge value x."""
        if self.magic == "s+e":
            return {c - x}
        return {x + t for t in (-c, c)} if self.magic else {x}


_EDGE_RULES = {
    Family.GRACEFUL: EdgeRule(difference=True),
    Family.ODD_GRACEFUL: EdgeRule(difference=True, kd=(1, 2)),
    Family.HARMONIOUS: EdgeRule(difference=False, period=1),
    Family.ODD_ELEGANT: EdgeRule(difference=False, period=2, kd=(0, 1)),
    Family.EDGE_MAGIC: EdgeRule(difference=False, magic="s+e"),
    Family.EDGE_DIFFERENCE: EdgeRule(difference=True, magic="s+e"),
    Family.GRACEFUL_DIFFERENCE: EdgeRule(difference=True, magic="|s-e|"),
    Family.FELICITOUS_DIFFERENCE: EdgeRule(difference=False, magic="|s-e|"),
}
MAGIC_FAMILIES = frozenset(family for family, rule in _EDGE_RULES.items() if rule.magic)


# spec text -> ConstraintSpec field of each on/off flag, in to_text order
_FLAGS = {
    "set-ordered": "set_ordered",
    "strongly": "strongly",
    "labeling": "labeling",
    "odd-edge": "odd_edge",
    "pseudo": "pseudo",
    "proper": "proper",
}
# integer-valued spec tokens "text=value"; abc takes a comma-separated list
_VALUES = {"k": "k", "d": "d", "c": "magic_constant", "abc": "abc"}


@dataclass(frozen=True)
class ConstraintSpec:
    family: Family
    set_ordered: bool = False
    strongly: bool = False
    labeling: bool = False
    odd_edge: bool = False
    pseudo: bool = False
    proper: bool = False
    k: int | None = None
    d: int | None = None
    abc: tuple[int, int, int] | None = None
    magic_constant: int | None = None

    def __post_init__(self) -> None:
        if self.abc is not None and len(self.abc) != 3:
            raise LabelingError(f"abc needs three weights a,b,c, got {len(self.abc)}")
        if self.k is not None and self.k < 0:
            raise LabelingError("k must be >= 0")
        if self.d is not None and self.d < 1:
            raise LabelingError("d must be >= 1")
        if self.abc is not None and any(w <= 0 for w in self.abc):
            raise LabelingError("abc weights must be positive")
        if self.strongly and self.family not in (Family.GRACEFUL, Family.ODD_GRACEFUL):
            raise LabelingError("strongly flag applies to graceful families only")

    @property
    def kd_mode(self) -> bool:
        return self.k is not None or self.d is not None

    @property
    def kd(self) -> tuple[int, int]:
        dk, dd = self.family.rule.kd
        return (self.k if self.k is not None else dk, self.d if self.d is not None else dd)

    def edge_value_set(self, q: int) -> list[int]:
        k, d = self.kd
        if self.odd_edge or self.family is Family.ODD_ELEGANT:
            return [k + (2 * i - 1) * d for i in range(1, q + 1)]
        return [k + j * d for j in range(q)]

    def to_text(self) -> str:
        parts = [self.family.value] + [text for text, name in _FLAGS.items() if getattr(self, name)]
        for text, name in _VALUES.items():
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{text}=" + (",".join(map(str, value)) if name == "abc" else str(value)))
        return ";".join(parts)

    @staticmethod
    def parse(text: str) -> "ConstraintSpec":
        parts = [p.strip() for p in text.split(";") if p.strip()]
        if not parts:
            raise LabelingError("empty constraint spec")
        try:
            family = Family(parts[0])
        except ValueError:
            raise LabelingError(f"unknown family {parts[0]!r}") from None
        kwargs: dict = {}
        for part in parts[1:]:
            name, eq, value = part.partition("=")
            if part in _FLAGS:
                kwargs[_FLAGS[part]] = True
            elif eq and name in _VALUES:
                try:
                    kwargs[_VALUES[name]] = tuple(map(int, value.split(","))) if name == "abc" else int(value)
                except ValueError:
                    raise LabelingError(f"spec token {part!r} needs integer values") from None
            else:
                raise LabelingError(f"unknown spec token {part!r}")
        return ConstraintSpec(family, **kwargs)


@dataclass
class VerifyReport:
    verdict: bool
    violations: list[tuple[str, str]] = field(default_factory=list)
    magic_constant: int | None = None
    proper_total: bool = False
    bipartition: tuple[frozenset[int], frozenset[int]] | None = None

    def fail(self, clause: str, detail: str) -> None:
        self.verdict = False
        self.violations.append((clause, detail))


def _orientations(
    cg: ColoredGraph, x_side: Iterable[int] | None
) -> list[tuple[frozenset[int], frozenset[int]]]:
    """The bipartitions (X, Y) to try: the declared one, else both
    orientations of the graph's classes, the one whose X holds the smaller
    minimum color first; none when the graph is not connected bipartite."""
    if x_side is not None:
        xs = frozenset(x_side)
        ys = frozenset(cg.graph.vertices) - xs
        for u, v in cg.graph.edges:
            if (u in xs) == (v in xs):
                raise LabelingError("declared bipartition is not independent")
        return [(xs, ys)]
    sides = cg.graph.bipartition()
    if sides is None:
        return []
    a, b, vc = frozenset(sides[0]), frozenset(sides[1]), cg.vcolors
    if min(vc[v] for v in a) <= min(vc[v] for v in b):
        return [(a, b), (b, a)]
    return [(b, a), (a, b)]


def _oriented_failures(
    cg: ColoredGraph, spec: ConstraintSpec, edge_colors: dict[Edge, int], xs: frozenset[int], ys: frozenset[int]
) -> list[tuple[str, str]]:
    """Violations of the clauses that read which class is X: abc,
    set-ordered and the (k, d) ranges."""
    out, vc = [], cg.vcolors
    if spec.abc is not None:
        a, b, c = spec.abc
        lam = None
        for (u, v), e in edge_colors.items():
            x, y = (u, v) if u in xs else (v, u)
            value = a * vc[x] + b * vc[y] + c * e
            if lam is None:
                lam = value
            elif value != lam:
                out.append(("abc", f"edge {(u, v)}: abc value {value} != {lam}"))
    if spec.set_ordered and max(vc[v] for v in xs) >= min(vc[v] for v in ys):
        out.append(("C-6", "max X color not below min Y color"))
    if spec.kd_mode:
        k, d = spec.kd
        for v in sorted(xs):
            if vc[v] % d != 0 or vc[v] < 0:
                out.append(("range-X", f"vertex {v} color {vc[v]} not in {{0,d,...}}"))
        for v in sorted(ys):
            if vc[v] < k or (vc[v] - k) % d != 0:
                out.append(("range-YE", f"vertex {v} color {vc[v]} not in {{k,k+d,...}}"))
        for e, value in sorted(edge_colors.items()):
            if value < k or (value - k) % d != 0:
                out.append(("range-YE", f"edge {e} color {value} not in {{k,k+d,...}}"))
    return out


def _check_proper_total(cg: ColoredGraph, edge_colors: dict[Edge, int]) -> bool:
    vc = cg.vcolors
    seen: set[tuple[int, int]] = set()  # (vertex, color of an edge at it)
    for (u, v), e in edge_colors.items():
        if vc[u] == vc[v] or e in (vc[u], vc[v]) or {(u, e), (v, e)} & seen:
            return False
        seen |= {(u, e), (v, e)}
    return True


def _has_perfect_matching(g: Graph) -> bool:
    """Whether g has a perfect matching: none when a component has odd order
    (an isolated vertex is one of order 1), an O(n + q) check on one walk,
    which visits the components whole, one after another, so all are even
    exactly when n is and each depth-0 start is at an even position; else
    depth first on a stack of unpaired-vertex sets, pairing the smallest
    unpaired vertex with each free neighbour in ascending order."""
    if g.n % 2 or any(i % 2 for i, d in enumerate(g.walk(g.vertices).values()) if d == 0):
        return False
    adj, stack = g.adjacency(), [frozenset(g.vertices)]
    while stack:
        remaining = stack.pop()
        if not remaining:
            return True
        u = min(remaining)
        stack += [remaining - {u, w} for w in sorted(adj[u] & remaining, reverse=True)]
    return False


def verify(
    cg: ColoredGraph, spec: ConstraintSpec, x_side: Iterable[int] | None = None
) -> VerifyReport:
    """Check every clause of the spec against a colored graph."""
    report = VerifyReport(verdict=True)
    g = cg.graph
    q = g.q
    if not cg.vcolors:
        raise LabelingError("vertex colors missing")
    if q == 0:
        raise LabelingError("graph has no edges")

    rule, (k, d) = spec.family.rule, spec.kd
    if rule.magic and cg.ecolors is None:
        raise LabelingError("magic families need explicit edge colors")

    # actual edge colors (stored, or induced by the family rule) and the
    # magic constant (declared, or inferred from the first edge)
    vc, ec = cg.vcolors, cg.ecolors
    edge_colors: dict[Edge, int] = {}
    constant = spec.magic_constant
    for u, v in g.sorted_edges():
        fu, fv = vc[u], vc[v]
        color = None if ec is None else ec[u, v]
        if rule.magic:
            value = rule.magic_value(fu, fv, color)
            if constant is None:
                constant = value
            elif value != constant:
                report.fail("magic-constant", f"edge {(u, v)}: {spec.family.value} value {value} != {constant}")
        elif color is None:
            color = rule.induced(fu, fv, q, k, d)
        elif color != (induced := rule.induced(fu, fv, q, k, d)):
            report.fail("edge-rule", f"edge {(u, v)}: stored {color} != induced {induced}")
        edge_colors[(u, v)] = color
    report.magic_constant = constant if rule.magic else None

    vertex_values = [vc[v] for v in g.vertices]
    report.proper_total = _check_proper_total(cg, edge_colors)

    if spec.proper and not report.proper_total:
        report.fail("proper-total", "adjacent or incident elements share a color")

    full_mode = spec.labeling or spec.kd_mode
    if full_mode and not spec.pseudo:
        required = spec.edge_value_set(q)
        if sorted(edge_colors.values()) != sorted(required):
            report.fail(
                "edge-set",
                f"edge colors {sorted(edge_colors.values())} != required {sorted(required)}",
            )

    if spec.labeling:
        if len(set(vertex_values)) != g.n:
            report.fail("C-1", "vertex colors are not all distinct")
        if not spec.kd_mode:
            if spec.family is Family.GRACEFUL:
                if not all(0 <= v <= q for v in vertex_values) or min(vertex_values) != 0:
                    report.fail("C-2", f"vertex colors {sorted(set(vertex_values))} not in [0,{q}] with min 0")
            elif spec.family is Family.ODD_GRACEFUL:
                if not all(0 <= v <= 2 * q - 1 for v in vertex_values) or min(vertex_values) != 0:
                    report.fail("C-3", f"vertex colors not in [0,{2 * q - 1}] with min 0")

    if spec.abc is not None or spec.set_ordered or spec.kd_mode:
        orientations = _orientations(cg, x_side)
        if not orientations:
            if spec.abc is not None:
                report.fail("abc", "abc-linear check needs a bipartite graph")
            if spec.set_ordered or spec.kd_mode:
                report.fail("C-6", "graph is not connected bipartite; no bipartition")
        else:
            # keep the first orientation that passes, else report the first
            sides, failures = orientations[0], _oriented_failures(cg, spec, edge_colors, *orientations[0])
            for other in orientations[1:] if failures else ():
                if not _oriented_failures(cg, spec, edge_colors, *other):
                    sides, failures = other, []
            report.bipartition = sides
            for clause, detail in failures:
                report.fail(clause, detail)

    if spec.strongly:
        k, d = spec.kd
        if spec.family is Family.GRACEFUL:
            target = k + (q - 1) * d if spec.kd_mode else q
        else:  # odd-graceful; ConstraintSpec rejects strongly on other families
            target = k + (2 * q - 1) * d if spec.kd_mode else 2 * q - 1
        # a matching with every pair sum on target pairs each color c with
        # target - c, so their classes are of one size, and it uses only
        # target-sum edges
        counts = Counter(vertex_values)
        sums = Graph(g.vertices, frozenset(e for e in g.edges if vc[e[0]] + vc[e[1]] == target))
        if any(counts[c] != counts[target - c] for c in counts) or not _has_perfect_matching(sums):
            report.fail("C-7/C-8", f"no perfect matching with pair sums {target}")

    return report


# ---------------------------------------------------------------------------
# Backtracking search.
# ---------------------------------------------------------------------------


class SearchStatus(Enum):
    FOUND = "found"
    NONE_EXHAUSTED = "none-exhausted"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass
class SearchResult:
    coloring: ColoredGraph | None
    status: SearchStatus
    nodes: int
    restarts: int


def _domain_variants(g: Graph, spec: ConstraintSpec) -> list[dict[int, set[int]]]:
    """Per-vertex label domains, one map per orientation of the classes (one
    orientation where a complement swaps them) and, when set-ordered, per
    threshold t with X below t and Y from t up."""
    q, (k, d) = g.q, spec.kd
    base = range(q + 1 if spec.family is Family.GRACEFUL else 2 * q)
    if spec.family in MAGIC_FAMILIES:  # colors live alongside the edge value set
        base = range(max(spec.edge_value_set(q)) + 2 * q + 1)
    if not (spec.kd_mode or spec.set_ordered):
        return [dict.fromkeys(g.vertices, set(base))]
    if (sides := g.bipartition()) is None:
        raise LabelingError("set-ordered or (k,d) search needs a connected bipartite graph")
    x_dom = [j * d for j in range(q + 1)] if spec.kd_mode else base
    y_dom = [k + j * d for j in range(2 * q + 1)] if spec.kd_mode else base
    # the complement f -> max - f keeps every |a - b| and swaps the classes
    one_way = spec.family in (Family.GRACEFUL, Family.ODD_GRACEFUL) and not (spec.kd_mode or spec.proper or spec.abc)
    variants = []
    for xs, ys in [sides] if one_way else [sides, sides[::-1]]:
        for t in sorted(set(y_dom)) if spec.set_ordered else [None]:
            dx = {x for x in x_dom if t is None or x < t}
            dy = {y for y in y_dom if t is None or y >= t}
            if dx and dy and not (spec.labeling and (len(dx) < len(xs) or len(dy) < len(ys))):
                variants.append({**dict.fromkeys(xs, dx), **dict.fromkeys(ys, dy)})
    return variants


# nodes in an attempt of Luby weight 1, the seed of the child order, and
# the most edges a graph may have for search
_LUBY_UNIT = 64
_SHUFFLE_SEED = 0x7C0DE
MAX_SEARCH_EDGES = 24


def search(
    g: Graph, spec: ConstraintSpec, budget: int = 2_000_000, timeout: float | None = None
) -> SearchResult:
    """Search for a coloring meeting the spec, one edge value at a time.

    Edge values go from the largest down, each on an edge with one labeled
    end (labeling the other by the family's pair rule) or with none.  The
    child order is shuffled from a fixed seed, so a call without a timeout
    always returns the same witness after the same nodes and restarts.
    Attempts restart under Luby's schedule and skip first moves that an
    earlier attempt searched in full; ``budget`` (nodes) and ``timeout``
    hold over all of them.  NONE_EXHAUSTED: an attempt not cut
    short found nothing; BUDGET_EXHAUSTED: the budget or timeout ran out.
    Undeclared magic constants go from 0 up.  Witnesses pass ``verify``.
    A family with a period induces values in [k, k + period*q*d) only, so a
    required value outside that range ends NONE_EXHAUSTED after 0 nodes.
    """
    if type(budget) is not int or budget <= 0:
        raise LabelingError(f"budget must be a positive integer, got {budget!r}")
    if timeout is not None and (type(timeout) is bool or not isinstance(timeout, (int, float)) or math.isnan(timeout)):
        raise LabelingError(f"timeout must be a number of seconds or None, got {timeout!r}")
    if not 0 < g.q <= MAX_SEARCH_EDGES:
        raise LabelingError(f"search needs 1 to {MAX_SEARCH_EDGES} edges, graph has {g.q}")
    variants = _domain_variants(g, spec)
    period, (k, d) = spec.family.rule.period, spec.kd
    if period and not all(k <= e < k + period * g.q * d for e in spec.edge_value_set(g.q)):
        return SearchResult(None, SearchStatus.NONE_EXHAUSTED, 0, 0)
    constants: Iterable[int | None] = [spec.magic_constant]
    if spec.family in MAGIC_FAMILIES and spec.magic_constant is None:
        constants = range(3 * max((max(dom) for doms in variants for dom in doms.values()), default=0) + 1)
    run = _Search(g, budget, timeout)
    for constant, domains in itertools.product(constants, variants):
        found = run.attempts(spec if constant is None else replace(spec, magic_constant=constant), domains)
        if found is not None or run.nodes >= budget or run.timed_out:
            status = SearchStatus.FOUND if found is not None else SearchStatus.BUDGET_EXHAUSTED
            return SearchResult(found, status, run.nodes, run.restarts)
    return SearchResult(None, SearchStatus.NONE_EXHAUSTED, run.nodes, run.restarts)


class _Search:
    """Depth-first over the edge values; labels and used sets change along an undo trail.

    A node puts the largest required value not yet used on one edge: it
    records the value, labels the edge's unlabeled ends, and values each
    edge those labels close that allows one unused value; it fails at once
    when such an edge allows none.  Its children are the moves of the next
    value, shuffled from the seed, less the first moves an earlier attempt
    searched in full."""

    def __init__(self, g: Graph, budget: int, timeout: float | None):
        self.g, self.budget = g, budget
        self.deadline = None if timeout is None else time.monotonic() + timeout
        self.nodes = self.restarts = 0
        self.timed_out = timeout is not None and timeout <= 0
        self.rng, self.edges, self.adj = random.Random(_SHUFFLE_SEED), sorted(g.edges), g.adjacency()

    def attempts(self, spec: ConstraintSpec, domains: dict[int, set[int]]) -> ColoredGraph | None:
        """Attempts sized by Luby's 1, 1, 2, 1, 1, 2, 4, .. until one finds a witness or ends uncut."""
        self.spec, self.members = spec, domains
        self.labels = set().union(*domains.values())
        self.by_value: dict[int, dict[int, list[int]]] = {}  # e -> label a -> partners b, built on first use
        self.required = sorted(spec.edge_value_set(self.g.q), reverse=True)
        self.required_set = set(self.required)
        rule, c, (k, d), q = spec.family.rule, spec.magic_constant, spec.kd, self.g.q
        # the family's edge rule both ways: the values of an edge a-b, and each label's partners for value e
        self.values = lambda a, b: rule.values(a, b, q, k, d, c)
        self.partners = lambda e, labels: rule.partners(e, labels, q, d, c)
        self.dead: set[tuple] = set()  # first one or two moves an attempt searched in full
        u, weight = 1, 1
        while True:
            self.end = min(self.nodes + _LUBY_UNIT * weight, self.budget)
            self.cut = self.timed_out
            self.label, self.edge_value, self.used_labels, self.used_values, self.trail = {}, {}, set(), set(), []
            found = self._descend(0)
            if found is not None or not self.cut or self.nodes >= self.budget or self.timed_out:
                return found
            self.restarts += 1
            u, weight = (u + 1, 1) if u & -u == weight else (u, 2 * weight)  # Knuth's reluctant doubling

    def _descend(self, i: int, path: tuple | None = ()) -> ColoredGraph | None:
        required, used_values = self.required, self.used_values
        while i < len(required) and required[i] in used_values:
            i += 1
        if i == len(required):
            return self._leaf()
        e, moves = required[i], self._moves(required[i])
        if path is not None:
            moves = [m for m in moves if path + (m,) not in self.dead]
        if len(moves) > 1:  # shuffle draws nothing for fewer, so skipping keeps the stream
            self.rng.shuffle(moves)
        for move in moves:
            if self.cut:
                return None
            self.nodes += 1
            if self.nodes % 512 == 0 and self.deadline is not None:
                self.timed_out = time.monotonic() >= self.deadline
            self.cut = self.nodes >= self.end or self.timed_out
            mark = len(self.trail)
            self._record(self.edge_value, move[0], e, used_values)
            for v, x in move[1:]:
                if not self._place(v, x):
                    break
            else:
                if found := self._descend(i + 1, (move,) if path == () else None):
                    return found
            self._undo(mark)
            if path is not None and not self.cut:
                self.dead.add(path + (move,))
        return None

    def _moves(self, e: int) -> list[tuple]:
        """The moves that put value e on an edge, in edge order: an unvalued
        edge with both ends labeled, if they allow e; one with one labeled end,
        once per partner label its other end may take; one with no labeled
        end, once per pair (a, b) of unused labels that the rule joins by e.
        One pass over the edges skips a valued edge first, and the pairs are
        built only when an edge with no labeled end turns up.  An edge adds
        its few moves in a plain loop, which costs less than a comprehension."""
        label, used, members, edge_value, values = self.label, self.used_labels, self.members, self.edge_value, self.values
        if (partners := self.by_value.get(e)) is None:
            partners = self.by_value[e] = self.partners(e, self.labels)
        pairs = None
        moves: list[tuple] = []
        add = moves.append
        for edge in self.edges:
            if edge in edge_value:
                continue
            u, w = edge
            if u in label:
                if w in label:
                    if e in values(label[u], label[w]):
                        add((edge,))
                    continue
                x, y = u, w
            elif w in label:
                x, y = w, u
            else:
                if pairs is None:
                    repeats = not self.spec.labeling
                    pairs = [(a, b) for a, bs in partners.items() if a not in used for b in bs
                             if b not in used and (a != b or repeats)]
                mu, mw = members[u], members[w]
                for a, b in pairs:
                    if a in mu and b in mw:
                        add((edge, (u, a), (w, b)))
                continue
            my = members[y]
            for b in partners[label[x]]:
                if b in my and b not in used:
                    add((edge, (y, b)))
        return moves

    def _record(self, store: dict, key: object, value: int, used: set[int]) -> None:
        store[key] = value
        used.add(value)
        self.trail.append((store, key, used))

    def _undo(self, mark: int) -> None:
        trail = self.trail
        for store, key, used in reversed(trail[mark:]):
            used.discard(store.pop(key))
        del trail[mark:]

    def _place(self, v: int, x: int) -> bool:
        """Label v and value its edges to labeled ends that allow one unused value; False if one allows none."""
        label, edge_value, used_values = self.label, self.edge_value, self.used_values
        self._record(label, v, x, self.used_labels if self.spec.labeling else set())
        for w in self.adj[v] & label.keys():
            if (edge := _norm_edge(v, w)) not in edge_value:
                cands = (self.values(x, label[w]) & self.required_set) - used_values
                if not cands:
                    return False
                if len(cands) == 1:
                    self._record(edge_value, edge, cands.pop(), used_values)
        return True

    def _leaf(self) -> ColoredGraph | None:
        rest = [v for v in self.g.vertices if v not in self.label]  # isolated vertices
        free = sorted(self.members[rest[0]] - self.used_labels) if rest else []
        if len(free) < len(rest) and self.spec.labeling:
            return None
        witness = ColoredGraph(self.g, {**self.label, **dict(zip(rest, itertools.cycle(free)))}, dict(self.edge_value))
        return witness if verify(witness, self.spec).verdict else None


# ---------------------------------------------------------------------------
# Lifts from a set-ordered graceful labeling to the (k, d) families.
# ---------------------------------------------------------------------------

# family -> (Y, E, c): F(y) = k + d Y(f(y), q), F(e) = k + d E(f(e), q) and
# the magic constant c(k, d, q); every row keeps F(x) = d f(x)
_LIFTS = {
    Family.GRACEFUL: (lambda f, q: f - 1, lambda f, q: f - 1, lambda k, d, q: None),
    Family.EDGE_MAGIC: (lambda f, q: q - f, lambda f, q: f - 1, lambda k, d, q: 2 * k + d * (q - 1)),
    Family.EDGE_DIFFERENCE: (lambda f, q: f, lambda f, q: q - f, lambda k, d, q: 2 * k + d * q),
    Family.GRACEFUL_DIFFERENCE: (lambda f, q: f, lambda f, q: f - 1, lambda k, d, q: d),
    Family.FELICITOUS_DIFFERENCE: (lambda f, q: q - f, lambda f, q: q - f, lambda k, d, q: 0),
}


def lift_from_set_ordered_graceful(
    cg: ColoredGraph, family: Family, k: int = 1, d: int = 1
) -> tuple[ColoredGraph, int | None]:
    """Transport a set-ordered graceful labeling into a (k, d)-total coloring
    of the requested family; returns (coloring, magic constant or None).

    With f the graceful labeling, bipartition (X, Y), edge value
    f(uv) = f(y) - f(x) and q edges:

    * graceful:              F(x)=d f(x), F(y)=k+d(f(y)-1),  F(e)=k+d(f(e)-1)
    * edge-magic:            F(x)=d f(x), F(y)=k+d(q-f(y)),  F(e)=k+d(f(e)-1), c=2k+d(q-1)
    * edge-difference:       F(x)=d f(x), F(y)=k+d f(y),     F(e)=k+d(q-f(e)), c=2k+dq
    * graceful-difference:   F(x)=d f(x), F(y)=k+d f(y),     F(e)=k+d(f(e)-1), c=d
    * felicitous-difference: F(x)=d f(x), F(y)=k+d(q-f(y)),  F(e)=k+d(q-f(e)), c=0
    """
    base = verify(cg, ConstraintSpec(Family.GRACEFUL, set_ordered=True, labeling=True))
    if not base.verdict:
        raise LabelingError(f"input is not a set-ordered graceful labeling: {base.violations}")
    if family not in _LIFTS:
        raise LabelingError(f"no lift defined for {family}")
    y_map, e_map, constant = _LIFTS[family]
    xs, q, f = base.bipartition[0], cg.graph.q, cg.vcolor
    vcolors = {v: d * f(v) if v in xs else k + d * y_map(f(v), q) for v in cg.graph.vertices}
    ecolors = {(u, v): k + d * e_map(Family.GRACEFUL.rule.s(f(u), f(v)), q) for u, v in cg.graph.edges}
    return ColoredGraph(cg.graph, vcolors, ecolors), constant(k, d, q)


# ---------------------------------------------------------------------------
# Connections between the four magic constraints.
# ---------------------------------------------------------------------------


@dataclass
class TransformReport:
    verdict: bool
    source_constant: int
    derived_values: dict[Edge, int]
    derived_set: tuple[int, ...]
    closed_form_set: tuple[int, ...] | None
    violations: list[tuple[str, str]] = field(default_factory=list)


def magic_transform(
    cg: ColoredGraph, from_family: Family, to_family: Family
) -> TransformReport:
    """Re-derive the to-family's per-edge values from a from-family coloring.

    Each value is the to-family's rule read on the edge.  A source that
    verifies fixes c = lo + hi + e (edge-magic) or hi - lo + e
    (edge-difference), and a difference source reads s = +-c off the
    colors, so every per-edge connection formula reduces to that value.
    When the input is set-ordered bipartite, the closed-form value set is
    the derived set.
    """
    if from_family not in MAGIC_FAMILIES or to_family not in MAGIC_FAMILIES:
        raise LabelingError("magic transforms connect the four magic families")
    source = verify(cg, ConstraintSpec(from_family))
    if not source.verdict:
        raise LabelingError(f"input fails {from_family.value}: {source.violations}")
    rule, vc, ec = to_family.rule, cg.vcolors, cg.ecolors
    derived = {(u, v): rule.magic_value(vc[u], vc[v], ec[u, v]) for u, v in cg.graph.sorted_edges()}
    values = tuple(sorted(set(derived.values())))
    set_ordered = verify(cg, ConstraintSpec(from_family, set_ordered=True)).verdict
    return TransformReport(True, source.magic_constant, derived, values, values if set_ordered else None)


# ---------------------------------------------------------------------------
# Magic-constant witness constructions.
# ---------------------------------------------------------------------------

# family -> (m, i) -> (leaf color, edge color) of leaf i on a star centered at 1
_WITNESS_LEAF = {
    Family.EDGE_MAGIC: lambda m, i: (m - 2 - i, i + 1),
    Family.EDGE_DIFFERENCE: lambda m, i: (i + 1, m - i),
    Family.FELICITOUS_DIFFERENCE: lambda m, i: (i + 1, m + i + 2),
    # at m = 1: |diff| = i+2 and |i+2-(i+1)| = 1
    Family.GRACEFUL_DIFFERENCE: lambda m, i: (i + 3, i + 1) if m == 1 else (i + 1, i + m),
}


def construct_witness(m: int, family: Family) -> ColoredGraph:
    """A connected properly-total-colored graph whose every edge realizes the
    family's constraint with constant m.

    Star-based: center colored 1, leaves i+1 paired with edge colors chosen
    per family; leaf indices that would collide with properness are dropped
    or shifted.  The result is re-verified before being returned.
    """
    if family not in MAGIC_FAMILIES:
        raise LabelingError("witness constructions cover the four magic families")
    floor = 0 if family is Family.GRACEFUL_DIFFERENCE else 5
    if m < floor:
        raise LabelingError(f"{family.value} witness needs a constant >= {floor}")

    if family is Family.EDGE_MAGIC and m == 5:
        # the only sum-5 triple of distinct non-negative colors is {0, 2, 3}
        g = Graph.build([0, 1], [(0, 1)])
        witness = ColoredGraph(g, {0: 0, 1: 3}, {(0, 1): 2})
    else:
        leaves = []  # (leaf color, edge color) for leaf j + 1
        for i in range(1, max(2, m - 4) + 1):
            leaf, edge = _WITNESS_LEAF[family](m, i)
            if leaf == 1 or edge == 1 or leaf == edge or leaf < 0 or edge < 1:
                continue
            leaves.append((leaf, edge))
        if not leaves:
            raise LabelingError(f"no proper witness at constant {m}")
        vcolors = {0: 1, **{j + 1: leaf for j, (leaf, _) in enumerate(leaves)}}
        ecolors = {(0, j + 1): edge for j, (_, edge) in enumerate(leaves)}
        witness = ColoredGraph(Graph.star(len(leaves)), vcolors, ecolors)

    report = verify(witness, ConstraintSpec(family, magic_constant=m, proper=True))
    if not report.verdict:
        raise LabelingError(f"witness construction failed verification: {report.violations}")
    return witness


# ---------------------------------------------------------------------------
# Twin labelings.
# ---------------------------------------------------------------------------


def twin_shift(cg: ColoredGraph) -> ColoredGraph:
    """The +1 vertex shift of a set-ordered odd-graceful labeling.

    Edge colors are unchanged; the shifted labeling shares the odd edge set
    [1, 2q-1] and overlaps the original vertex colors in at most one value.
    """
    report = verify(cg, ConstraintSpec(Family.ODD_GRACEFUL, set_ordered=True, labeling=True))
    if not report.verdict:
        raise LabelingError(f"input is not set-ordered odd-graceful: {report.violations}")
    vcolors = {v: cg.vcolor(v) + 1 for v in cg.graph.vertices}
    ecolors = {(u, v): Family.ODD_GRACEFUL.rule.s(vcolors[u], vcolors[v]) for u, v in cg.graph.edges}
    return ColoredGraph(cg.graph, vcolors, ecolors)


class PairingKind(Enum):
    TWIN = "twin"
    V_IMAGE = "v-image"
    E_IMAGE = "e-image"
    SET_DUAL = "set-dual"
    EDGE_SEPARABLE = "edge-separable"
    EDGE_UNIFORM = "edge-uniform"


def check_pairing(
    a: ColoredGraph,
    b: ColoredGraph,
    kind: PairingKind,
    constant: int | None = None,
    mapping: Mapping[int, int] | None = None,
    twin_spec: ConstraintSpec | None = None,
) -> VerifyReport:
    """Verify a two-labeling relationship clause by clause.

    TWIN defaults to the classical odd-graceful twin (shared odd edge set,
    vertex colors within [0, 2q]); passing ``twin_spec`` switches to the
    odd-edge W-constraint (k, d) form, where both sides verify the spec and
    vertex colors stay within [0, k + 2qd]."""
    report = VerifyReport(verdict=True)
    if kind is PairingKind.TWIN:
        qa, qb = a.graph.q, b.graph.q
        if qa != qb:
            report.fail("twin-size", f"edge counts differ: {qa} vs {qb}")
            return report
        if twin_spec is not None:
            for name, side in (("first", a), ("second", b)):
                sub = verify(side, twin_spec)
                if not sub.verdict:
                    report.fail(f"twin-{name}", f"{twin_spec.to_text()}: {sub.violations}")
            k, d = twin_spec.kd
            bound = k + 2 * qa * d
        else:
            base = verify(a, ConstraintSpec(Family.ODD_GRACEFUL, labeling=True))
            if not base.verdict:
                report.fail("twin-first", f"first labeling not odd-graceful: {base.violations}")
            for u, v in b.graph.edges:
                if b.ecolor(u, v) != Family.ODD_GRACEFUL.rule.s(b.vcolor(u), b.vcolor(v)):
                    report.fail("twin-rule", f"second labeling breaks |diff| at {(u, v)}")
            vb_all = [b.vcolor(v) for v in b.graph.vertices]
            if len(set(vb_all)) != b.graph.n:
                report.fail("twin-injective", "second labeling repeats a vertex color")
            bound = 2 * qa
        edges_a = sorted(a.ecolor(u, v) for u, v in a.graph.edges)
        edges_b = sorted(b.ecolor(u, v) for u, v in b.graph.edges)
        if edges_a != edges_b:
            report.fail("twin-edges", f"edge color sets differ: {edges_a} vs {edges_b}")
        va = {a.vcolor(v) for v in a.graph.vertices}
        vb = {b.vcolor(v) for v in b.graph.vertices}
        union = va | vb
        if union and (min(union) < 0 or max(union) > bound):
            report.fail("twin-span", f"vertex colors exceed [0, {bound}]")
        report.magic_constant = len(va & vb)  # overlap size, for callers
        return report

    if kind in (PairingKind.V_IMAGE, PairingKind.E_IMAGE):
        if constant is None:
            raise LabelingError("image pairings need the target constant")
        if kind is PairingKind.V_IMAGE:
            if set(a.graph.vertices) != set(b.graph.vertices):
                report.fail("image-domain", "vertex sets differ")
                return report
            for v in a.graph.vertices:
                if a.vcolor(v) + b.vcolor(v) != constant:
                    report.fail("v-image", f"vertex {v}: {a.vcolor(v)}+{b.vcolor(v)} != {constant}")
        else:
            if set(a.graph.edges) != set(b.graph.edges):
                report.fail("image-domain", "edge sets differ")
                return report
            for u, v in a.graph.edges:
                if a.ecolor(u, v) + b.ecolor(u, v) != constant:
                    report.fail("e-image", f"edge {(u, v)} sums != {constant}")
        return report

    if kind is PairingKind.SET_DUAL:
        if constant is None:
            raise LabelingError("set-dual needs the constant")
        phi = mapping if mapping is not None else {v: v for v in a.graph.vertices}
        for w, target in phi.items():
            if a.vcolor(w) + b.vcolor(target) != constant:
                report.fail("set-dual", f"{w} -> {target}: sum != {constant}")
        return report

    # edge-separable / edge-uniform over the two parts
    ca = {a.ecolor(u, v) for u, v in a.graph.edges}
    cb = {b.ecolor(u, v) for u, v in b.graph.edges}
    if kind is PairingKind.EDGE_SEPARABLE:
        if ca & cb:
            report.fail("edge-separable", f"shared edge colors {sorted(ca & cb)}")
    else:
        if ca != cb:
            report.fail("edge-uniform", f"edge color sets differ: {sorted(ca)} vs {sorted(cb)}")
    return report


# ---------------------------------------------------------------------------
# Indexed colors and the Klein four-group tables.
# ---------------------------------------------------------------------------

# 1 := group zero, 2 := a, 3 := b, 4 := c
KLEIN_ADD_TABLE = (
    (1, 2, 3, 4),
    (2, 1, 4, 3),
    (3, 4, 1, 2),
    (4, 3, 2, 1),
)
KLEIN_MUL_TABLE = (
    (1, 1, 1, 1),
    (1, 2, 3, 4),
    (1, 3, 4, 2),
    (1, 4, 2, 3),
)


@dataclass(frozen=True)
class IndexedColor:
    base: int
    index: int

    def __post_init__(self) -> None:
        if self.base < 0:
            raise LabelingError("indexed color base must be >= 0")

    def __str__(self) -> str:
        return f"{self.base}_{self.index}"


class IndexedOp(Enum):
    ADD = "add"
    MUL = "mul"
    SUB = "sub"
    KLEIN_ADD = "klein-add"
    KLEIN_MUL = "klein-mul"


def indexed_op(x: IndexedColor, y: IndexedColor, op: IndexedOp) -> IndexedColor:
    if op is IndexedOp.ADD:
        return IndexedColor(x.base + y.base, x.index + y.index)
    if op is IndexedOp.MUL:
        return IndexedColor(x.base * y.base, x.index * y.index)
    if op is IndexedOp.SUB:
        return IndexedColor(abs(x.base - y.base), abs(x.index - y.index))
    if not (1 <= x.base <= 4 and 1 <= y.base <= 4):
        raise LabelingError("Klein operations need bases in [1, 4]")
    if op is IndexedOp.KLEIN_ADD:
        return IndexedColor(KLEIN_ADD_TABLE[x.base - 1][y.base - 1], x.index + y.index)
    return IndexedColor(KLEIN_MUL_TABLE[x.base - 1][y.base - 1], x.index * y.index)


# ---------------------------------------------------------------------------
# Homogeneous string-colorings by composition.
# ---------------------------------------------------------------------------


def compose_string_coloring(
    g: Graph, colorings: Sequence[tuple[ColoredGraph, ConstraintSpec]]
) -> ColoredGraph:
    """Concatenate per-element colors of several verified colorings of g.

    Each component must pass its own spec; the result colors every vertex
    and edge with the tuple of component values.
    """
    if not colorings:
        raise LabelingError("composition needs at least one coloring")
    for i, (cg, spec) in enumerate(colorings):
        if cg.graph != g:
            raise LabelingError(f"component {i} colors a different graph")
        report = verify(cg, spec)
        if not report.verdict:
            raise LabelingError(f"component {i} fails {spec.to_text()}: {report.violations}")
    vcolors = {
        v: tuple(cg.vcolor(v) for cg, _ in colorings) for v in g.vertices
    }
    ecolors = {}
    for u, v in g.edges:
        ecolors[(u, v)] = tuple(
            cg.ecolor(u, v) if cg.ecolors is not None
            else spec.family.rule.induced(cg.vcolor(u), cg.vcolor(v), g.q, *spec.kd)
            for cg, spec in colorings
        )
    return ColoredGraph(g, vcolors, ecolors)


def verify_string_coloring(
    cg: ColoredGraph, specs: Sequence[ConstraintSpec]
) -> VerifyReport:
    """Position-wise verification of a tuple-valued total coloring.

    ``proper_total`` is true when some position slice is a proper total
    coloring on its stored colors.  That position alone makes every two
    adjacent or incident strings differ, so the whole strings need no
    check of their own.
    """
    report = VerifyReport(verdict=True)
    g = cg.graph
    for pos in range(len(specs)):
        vslice = {v: cg.vcolor(v)[pos] for v in g.vertices}
        eslice = {e: cg.ecolors[e][pos] for e in g.edges}
        sub = verify(ColoredGraph(g, vslice, eslice), specs[pos])
        report.proper_total = report.proper_total or sub.proper_total
        if not sub.verdict:
            report.fail(f"position-{pos}", f"{specs[pos].to_text()}: {sub.violations}")
    return report


# ---------------------------------------------------------------------------
# Rainbow prefix set-labelings of trees.
# ---------------------------------------------------------------------------


@dataclass
class RainbowLabeling:
    vsets: dict[int, frozenset[int]]
    esets: dict[Edge, frozenset[int]]


def rainbow_set_labeling(tree: Graph) -> RainbowLabeling:
    """Label tree vertices with distinct prefixes [1, k] so that every edge's
    intersection set is the smaller endpoint prefix and all edge sets differ.

    Labels decrease away from the root (the maximum vertex id), so each
    non-root vertex is the unique minimum of its parent edge.
    """
    if not tree.is_tree():
        raise LabelingError("rainbow prefix labeling is defined for trees")
    p = tree.n
    rank = {v: p - i for i, v in enumerate(tree.walk([max(tree.vertices)]))}  # root gets p, leaves lowest
    vsets = {v: frozenset(range(1, rank[v] + 1)) for v in tree.vertices}
    esets = {}
    for u, v in tree.edges:
        esets[(u, v)] = vsets[u] & vsets[v]
    return RainbowLabeling(vsets, esets)


def verify_rainbow(tree: Graph, lab: RainbowLabeling) -> bool:
    sets = list(lab.vsets.values())
    if len(set(sets)) != len(sets):
        return False
    for s in sets:
        if s != frozenset(range(1, max(s) + 1)):
            return False
    for (u, v), es in lab.esets.items():
        if es != lab.vsets[u] & lab.vsets[v]:
            return False
    edge_sets = list(lab.esets.values())
    return len(set(edge_sets)) == len(edge_sets)


class StringRule(Enum):
    """Extra per-position rules for string-colorings (verify only)."""

    GCD = "gcd"
    PRIME_SUM = "prime-sum"
    PRIME_PRODUCT = "prime-product"
    ANTI_EQUITABLE = "anti-equitable"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def verify_string_rules(
    cg: ColoredGraph, rules: Mapping[int, StringRule] | StringRule
) -> VerifyReport:
    """Check gcd / prime-sum / prime-product position rules on a tuple-valued
    total coloring; ANTI_EQUITABLE instead demands each edge string's
    positions be pairwise distinct.  A color that is not a tuple, or a rule
    at a position outside an edge's color tuples, raises LabelingError."""
    report = VerifyReport(verdict=True)
    g = cg.graph
    for u, v in g.sorted_edges():
        au, av, ae = cg.vcolor(u), cg.vcolor(v), cg.ecolor(u, v)
        if not isinstance(ae, tuple):
            raise LabelingError(f"edge {(u, v)} has color {ae!r}, not a tuple")
        rule_map = {i: rules for i in range(len(ae))} if isinstance(rules, StringRule) else rules
        if StringRule.ANTI_EQUITABLE in rule_map.values() and len(set(ae)) != len(ae):
            report.fail("anti-equitable", f"edge {(u, v)} repeats a position value")
        for pos, rule in rule_map.items():
            if rule is StringRule.ANTI_EQUITABLE:  # a rule on the whole edge string, checked above
                continue
            for w, c in ((u, au), (v, av)):
                if not isinstance(c, tuple):
                    raise LabelingError(f"vertex {w} of edge {(u, v)} has color {c!r}, not a tuple")
            if not 0 <= pos < min(len(au), len(av), len(ae)):
                raise LabelingError(f"edge {(u, v)} pos {pos} lies outside its color tuples {au}, {ae}, {av}")
            x, y, e = au[pos], av[pos], ae[pos]
            if rule is StringRule.GCD:
                if e != math.gcd(x, y):
                    report.fail("gcd", f"edge {(u, v)} pos {pos}: {e} != gcd({x},{y})")
            elif rule is StringRule.PRIME_SUM:
                if not (_is_prime(x) and _is_prime(y) and e == x + y):
                    report.fail("prime-sum", f"edge {(u, v)} pos {pos}")
            elif rule is StringRule.PRIME_PRODUCT:
                if not (_is_prime(x) and _is_prime(y) and e == x * y):
                    report.fail("prime-product", f"edge {(u, v)} pos {pos}")
    return report
