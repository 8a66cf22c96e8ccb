"""Verification and search for W-constraint labelings and colorings.

The eight families share one verifier: a per-edge arithmetic rule, a
required edge color set (an arithmetic progression in the general (k, d)
form), and optional clauses switched by flags (set-ordered, strongly,
labeling, odd-edge, pseudo, proper).  Verification modes:

* constraint-only (default): just the per-edge rule, with magic constants
  inferred from the first edge when undeclared;
* labeling (``labeling`` flag): the classical clauses, e.g. graceful =
  injective vertex labels in [0, q] with edge set exactly [1, q];
* parametric (explicit k or d): bipartite range clauses X in {0, d, ...},
  Y and edges in {k, k+d, ...} plus the edge-set clause.
"""

from __future__ import annotations

import itertools
import time
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


MAGIC_FAMILIES = frozenset(
    {
        Family.EDGE_MAGIC,
        Family.EDGE_DIFFERENCE,
        Family.GRACEFUL_DIFFERENCE,
        Family.FELICITOUS_DIFFERENCE,
    }
)

# classical parameter choices per family when no explicit (k, d) is given
_FAMILY_DEFAULT_KD = {
    Family.GRACEFUL: (1, 1),
    Family.ODD_GRACEFUL: (1, 2),
    Family.HARMONIOUS: (1, 1),
    Family.ODD_ELEGANT: (0, 1),
    Family.EDGE_MAGIC: (1, 1),
    Family.EDGE_DIFFERENCE: (1, 1),
    Family.GRACEFUL_DIFFERENCE: (1, 1),
    Family.FELICITOUS_DIFFERENCE: (1, 1),
}


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
        if self.k is not None and self.k < 0:
            raise LabelingError("k must be >= 0")
        if self.d is not None and self.d < 1:
            raise LabelingError("d must be >= 1")
        if self.abc is not None and any(w <= 0 for w in self.abc):
            raise LabelingError("abc weights must be positive")

    @property
    def kd_mode(self) -> bool:
        return self.k is not None or self.d is not None

    @property
    def kd(self) -> tuple[int, int]:
        dk, dd = _FAMILY_DEFAULT_KD[self.family]
        return (self.k if self.k is not None else dk, self.d if self.d is not None else dd)

    def edge_value_set(self, q: int) -> list[int]:
        k, d = self.kd
        if self.odd_edge or self.family is Family.ODD_ELEGANT:
            return [k + (2 * i - 1) * d for i in range(1, q + 1)]
        return [k + j * d for j in range(q)]

    def to_text(self) -> str:
        parts = [self.family.value]
        for flag, name in (
            (self.set_ordered, "set-ordered"),
            (self.strongly, "strongly"),
            (self.labeling, "labeling"),
            (self.odd_edge, "odd-edge"),
            (self.pseudo, "pseudo"),
            (self.proper, "proper"),
        ):
            if flag:
                parts.append(name)
        if self.k is not None:
            parts.append(f"k={self.k}")
        if self.d is not None:
            parts.append(f"d={self.d}")
        if self.magic_constant is not None:
            parts.append(f"c={self.magic_constant}")
        if self.abc is not None:
            parts.append("abc=" + ",".join(str(w) for w in self.abc))
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
            if part in ("set-ordered", "strongly", "labeling", "odd-edge", "pseudo", "proper"):
                kwargs[part.replace("-", "_")] = True
            elif part.startswith("k="):
                kwargs["k"] = int(part[2:])
            elif part.startswith("d="):
                kwargs["d"] = int(part[2:])
            elif part.startswith("c="):
                kwargs["magic_constant"] = int(part[2:])
            elif part.startswith("abc="):
                kwargs["abc"] = tuple(int(w) for w in part[4:].split(","))
            else:
                raise LabelingError(f"unknown spec token {part!r}")
        return ConstraintSpec(family, **kwargs)


@dataclass
class VerifyReport:
    verdict: bool
    violations: list[tuple[str, str]] = field(default_factory=list)
    magic_constant: int | None = None
    vertex_colors: tuple[int, ...] = ()
    edge_colors: tuple[int, ...] = ()
    proper_total: bool = False
    bipartition: tuple[frozenset[int], frozenset[int]] | None = None

    def fail(self, clause: str, detail: str) -> None:
        self.verdict = False
        self.violations.append((clause, detail))


def _induced_edge_value(spec: ConstraintSpec, q: int, fu: int, fv: int) -> int | None:
    """Edge color induced from the endpoints, for the non-magic families."""
    k, d = spec.kd
    if spec.family in (Family.GRACEFUL, Family.ODD_GRACEFUL):
        return abs(fu - fv)
    if spec.family is Family.HARMONIOUS:
        return k + (fu + fv - k) % (q * d)
    if spec.family is Family.ODD_ELEGANT:
        return k + (fu + fv - k) % (2 * q * d)
    return None


def _magic_expression(family: Family, fu: int, fv: int, fe: int) -> int:
    if family is Family.EDGE_MAGIC:
        return fu + fe + fv
    if family is Family.EDGE_DIFFERENCE:
        return fe + abs(fu - fv)
    if family is Family.GRACEFUL_DIFFERENCE:
        return abs(abs(fu - fv) - fe)
    if family is Family.FELICITOUS_DIFFERENCE:
        return abs(fu + fv - fe)
    raise LabelingError(f"{family} is not a magic family")


def _resolve_bipartition(
    cg: ColoredGraph, x_side: Iterable[int] | None
) -> tuple[frozenset[int], frozenset[int]] | None:
    if x_side is not None:
        xs = frozenset(x_side)
        ys = frozenset(cg.graph.vertices) - xs
        for u, v in cg.graph.edges:
            if (u in xs) == (v in xs):
                raise LabelingError("declared bipartition is not independent")
        return xs, ys
    sides = cg.graph.bipartition()
    if sides is None:
        return None
    a, b = sides
    # orient the class with the smaller minimum color as X
    if min(cg.vcolor(v) for v in a) <= min(cg.vcolor(v) for v in b):
        return frozenset(a), frozenset(b)
    return frozenset(b), frozenset(a)


def _check_proper_total(cg: ColoredGraph, edge_colors: dict[Edge, int]) -> bool:
    for u, v in cg.graph.edges:
        if cg.vcolor(u) == cg.vcolor(v):
            return False
        e = edge_colors[_norm_edge(u, v)]
        if e == cg.vcolor(u) or e == cg.vcolor(v):
            return False
    for (a, b), (c, d) in itertools.combinations(cg.graph.edges, 2):
        if {a, b} & {c, d} and edge_colors[(a, b)] == edge_colors[(c, d)]:
            return False
    return True


def _perfect_matchings(g: Graph) -> Iterable[frozenset[Edge]]:
    verts = sorted(g.vertices)

    def extend(remaining: list[int], acc: list[Edge]) -> Iterable[frozenset[Edge]]:
        if not remaining:
            yield frozenset(acc)
            return
        u = remaining[0]
        for w in sorted(g.neighbors(u)):
            if w in remaining[1:]:
                rest = [x for x in remaining if x not in (u, w)]
                yield from extend(rest, acc + [_norm_edge(u, w)])

    if len(verts) % 2 == 0:
        yield from extend(verts, [])


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

    magic = spec.family in MAGIC_FAMILIES
    if magic and cg.ecolors is None:
        raise LabelingError("magic families need explicit edge colors")

    # collect actual edge colors (stored, or induced by the family rule)
    edge_colors: dict[Edge, int] = {}
    for u, v in g.sorted_edges():
        induced = _induced_edge_value(spec, q, cg.vcolor(u), cg.vcolor(v))
        if cg.ecolors is not None:
            stored = cg.ecolor(u, v)
            edge_colors[(u, v)] = stored
            if induced is not None and stored != induced:
                report.fail("edge-rule", f"edge {(u, v)}: stored {stored} != induced {induced}")
        else:
            edge_colors[(u, v)] = induced

    # magic constraint with declared or inferred constant
    if magic:
        constant = spec.magic_constant
        for u, v in g.sorted_edges():
            value = _magic_expression(spec.family, cg.vcolor(u), cg.vcolor(v), edge_colors[(u, v)])
            if constant is None:
                constant = value
            elif value != constant:
                report.fail(
                    "magic-constant",
                    f"edge {(u, v)}: {spec.family.value} value {value} != {constant}",
                )
        report.magic_constant = constant

    if spec.abc is not None:
        sides = _resolve_bipartition(cg, x_side)
        if sides is None:
            report.fail("abc", "abc-linear check needs a bipartite graph")
        else:
            xs, _ = sides
            a, b, c = spec.abc
            lam = None
            for u, v in g.sorted_edges():
                x, y = (u, v) if u in xs else (v, u)
                value = a * cg.vcolor(x) + b * cg.vcolor(y) + c * edge_colors[(u, v)]
                if lam is None:
                    lam = value
                elif value != lam:
                    report.fail("abc", f"edge {(u, v)}: abc value {value} != {lam}")

    vertex_values = [cg.vcolor(v) for v in g.vertices]
    report.vertex_colors = tuple(sorted(vertex_values))
    report.edge_colors = tuple(sorted(edge_colors.values()))
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

    sides = None
    if spec.set_ordered or spec.kd_mode:
        sides = _resolve_bipartition(cg, x_side)
        if sides is None:
            report.fail("C-6", "graph is not connected bipartite; no bipartition")
        else:
            report.bipartition = sides

    if spec.set_ordered and sides is not None:
        xs, ys = sides
        if max(cg.vcolor(v) for v in xs) >= min(cg.vcolor(v) for v in ys):
            report.fail("C-6", "max X color not below min Y color")

    if spec.kd_mode and sides is not None:
        k, d = spec.kd
        xs, ys = sides
        for v in sorted(xs):
            if cg.vcolor(v) % d != 0 or cg.vcolor(v) < 0:
                report.fail("range-X", f"vertex {v} color {cg.vcolor(v)} not in {{0,d,...}}")
        for v in sorted(ys):
            if cg.vcolor(v) < k or (cg.vcolor(v) - k) % d != 0:
                report.fail("range-YE", f"vertex {v} color {cg.vcolor(v)} not in {{k,k+d,...}}")
        for e, value in sorted(edge_colors.items()):
            if value < k or (value - k) % d != 0:
                report.fail("range-YE", f"edge {e} color {value} not in {{k,k+d,...}}")

    if spec.strongly:
        k, d = spec.kd
        if spec.family is Family.GRACEFUL:
            target = k + (q - 1) * d if spec.kd_mode else q
        elif spec.family is Family.ODD_GRACEFUL:
            target = k + (2 * q - 1) * d if spec.kd_mode else 2 * q - 1
        else:
            raise LabelingError("strongly flag applies to graceful families only")
        ok = any(
            all(cg.vcolor(u) + cg.vcolor(v) == target for u, v in matching)
            for matching in _perfect_matchings(g)
        )
        if not ok:
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


def _vertex_domain(spec: ConstraintSpec, q: int) -> list[int]:
    k, d = spec.kd
    if spec.kd_mode:
        xs = [j * d for j in range(q + 1)]
        ys = [k + j * d for j in range(2 * q + 1)]
        return sorted(set(xs) | set(ys))
    if spec.family is Family.GRACEFUL:
        return list(range(q + 1))
    if spec.family is Family.ODD_GRACEFUL:
        return list(range(2 * q))
    if spec.family in (Family.HARMONIOUS, Family.ODD_ELEGANT):
        return list(range(2 * q))
    # magic families: colors live alongside the edge value set
    top = max(spec.edge_value_set(q)) + 2 * q
    return list(range(top + 1))


def search(
    g: Graph,
    spec: ConstraintSpec,
    budget: int = 2_000_000,
    max_edges: int = 14,
    timeout: float | None = None,
) -> SearchResult:
    """Backtracking search for a coloring meeting the spec.

    Vertices are processed by decreasing degree with values tried in
    ascending order, so the first hit is the lexicographically least
    solution for that order.  Magic families without a declared constant
    iterate candidate constants in ascending order under a shared budget.
    """
    if not isinstance(budget, int) or budget <= 0:
        raise LabelingError("budget must be a positive integer")
    if g.q > max_edges:
        raise LabelingError(f"search limited to {max_edges} edges, graph has {g.q}")

    constants: list[int | None]
    if spec.family in MAGIC_FAMILIES and spec.magic_constant is None:
        domain_top = max(_vertex_domain(spec, g.q))
        constants = list(range(0, 3 * domain_top + 1))
    else:
        constants = [spec.magic_constant]

    deadline = time.monotonic() + timeout if timeout is not None else None
    state = _SearchState(budget, deadline)
    for constant in constants:
        trial = replace(spec, magic_constant=constant) if constant is not None else spec
        result = _search_one(g, trial, state)
        if result is not None:
            return SearchResult(result, SearchStatus.FOUND, state.nodes)
        if state.exhausted():
            return SearchResult(None, SearchStatus.BUDGET_EXHAUSTED, state.nodes)
    return SearchResult(None, SearchStatus.NONE_EXHAUSTED, state.nodes)


class _SearchState:
    def __init__(self, budget: int, deadline: float | None):
        self.budget = budget
        self.deadline = deadline
        self.nodes = 0

    def tick(self) -> bool:
        self.nodes += 1
        return not self.exhausted()

    def exhausted(self) -> bool:
        if self.nodes >= self.budget:
            return True
        if self.deadline is not None and self.nodes % 512 == 0:
            return time.monotonic() > self.deadline
        return False


def _search_one(g: Graph, spec: ConstraintSpec, state: _SearchState) -> ColoredGraph | None:
    q = g.q
    order = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
    position = {v: i for i, v in enumerate(order)}
    domain = _vertex_domain(spec, q)
    required_set = set(spec.edge_value_set(q))
    magic = spec.family in MAGIC_FAMILIES
    labeling = spec.labeling

    sides = g.bipartition() if (spec.kd_mode or spec.set_ordered) else None
    if (spec.kd_mode or spec.set_ordered) and sides is None:
        raise LabelingError("set-ordered or (k,d) search needs a connected bipartite graph")
    k, d = spec.kd
    x_class: set[int] | None = None
    if sides is not None:
        a, b = sides
        x_class = a if order[0] in a else b

    def vertex_choices(v: int) -> list[int]:
        if sides is not None and spec.kd_mode:
            if v in x_class:
                return [j * d for j in range(q + 1)]
            return [k + j * d for j in range(2 * q + 1)]
        return domain

    earlier = {v: [w for w in g.neighbors(v) if position[w] < position[v]] for v in order}

    assignment: dict[int, int] = {}
    used_vertex: set[int] = set()
    used_edges: dict[Edge, int] = {}
    used_edge_values: set[int] = set()

    def edge_candidates(fu: int, fv: int) -> list[int]:
        if not magic:
            value = _induced_edge_value(spec, q, fu, fv)
            return [value] if value is not None else []
        c = spec.magic_constant
        fam = spec.family
        if fam is Family.EDGE_MAGIC:
            return [c - fu - fv]
        if fam is Family.EDGE_DIFFERENCE:
            return [c - abs(fu - fv)]
        if fam is Family.GRACEFUL_DIFFERENCE:
            return sorted({abs(fu - fv) - c, abs(fu - fv) + c})
        return sorted({fu + fv - c, fu + fv + c})

    def place(i: int) -> ColoredGraph | None:
        if i == len(order):
            candidate = ColoredGraph(g, dict(assignment), dict(used_edges))
            return candidate if verify(candidate, spec).verdict else None
        if state.exhausted():
            return None
        v = order[i]
        nbrs = earlier[v]
        # set-ordered prune: X values stay strictly below every Y value.
        # Completeness is kept because the complement labeling swaps classes.
        x_cap = y_floor = None
        if spec.set_ordered and sides is not None:
            assigned_x = [assignment[w] for w in assignment if w in x_class]
            assigned_y = [assignment[w] for w in assignment if w not in x_class]
            if v in x_class and assigned_y:
                x_cap = min(assigned_y)
            if v not in x_class and assigned_x:
                y_floor = max(assigned_x)
        for value in vertex_choices(v):
            if not state.tick():
                return None
            if x_cap is not None and value >= x_cap:
                break  # values ascend; nothing later can fit below the cap
            if y_floor is not None and value <= y_floor:
                continue
            if labeling and value in used_vertex:
                continue
            cand_lists: list[list[int]] = []
            feasible = True
            for w in nbrs:
                cands = [
                    e
                    for e in edge_candidates(value, assignment[w])
                    if e in required_set and e not in used_edge_values
                ]
                if not cands:
                    feasible = False
                    break
                cand_lists.append(cands)
            if not feasible:
                continue
            for combo in itertools.product(*cand_lists):
                if len(set(combo)) != len(combo):
                    continue
                for w, e_value in zip(nbrs, combo):
                    used_edges[_norm_edge(v, w)] = e_value
                    used_edge_values.add(e_value)
                assignment[v] = value
                used_vertex.add(value)
                found = place(i + 1)
                if found is not None:
                    return found
                del assignment[v]
                used_vertex.discard(value)
                for w, e_value in zip(nbrs, combo):
                    del used_edges[_norm_edge(v, w)]
                    used_edge_values.discard(e_value)
                if state.exhausted():
                    return None
        return None

    return place(0)


# ---------------------------------------------------------------------------
# Lifts from a set-ordered graceful labeling to the (k, d) families.
# ---------------------------------------------------------------------------


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
    xs, ys = base.bipartition
    q = cg.graph.q

    def f(v: int) -> int:
        return cg.vcolor(v)

    def fe(u: int, v: int) -> int:
        return abs(f(u) - f(v))

    vcolors: dict[int, int] = {}
    ecolors: dict[Edge, int] = {}
    for v in cg.graph.vertices:
        if v in xs:
            vcolors[v] = d * f(v)
        elif family in (Family.GRACEFUL,):
            vcolors[v] = k + d * (f(v) - 1)
        elif family in (Family.EDGE_MAGIC, Family.FELICITOUS_DIFFERENCE):
            vcolors[v] = k + d * (q - f(v))
        else:
            vcolors[v] = k + d * f(v)
    for u, v in cg.graph.edges:
        value = fe(u, v)
        if family in (Family.GRACEFUL, Family.EDGE_MAGIC, Family.GRACEFUL_DIFFERENCE):
            ecolors[(u, v)] = k + d * (value - 1)
        elif family in (Family.EDGE_DIFFERENCE, Family.FELICITOUS_DIFFERENCE):
            ecolors[(u, v)] = k + d * (q - value)
        else:
            raise LabelingError(f"no lift defined for {family}")
    constants = {
        Family.GRACEFUL: None,
        Family.EDGE_MAGIC: 2 * k + d * (q - 1),
        Family.EDGE_DIFFERENCE: 2 * k + d * q,
        Family.GRACEFUL_DIFFERENCE: d,
        Family.FELICITOUS_DIFFERENCE: 0,
    }
    return ColoredGraph(cg.graph, vcolors, ecolors), constants[family]


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
    """Re-derive the to-family's per-edge values from the from-family constant.

    Verifies the closed-form connection case by case on every edge, and
    reports the set-ordered closed-form value set when the input is
    set-ordered bipartite.
    """
    if from_family not in MAGIC_FAMILIES or to_family not in MAGIC_FAMILIES:
        raise LabelingError("magic transforms connect the four magic families")
    source = verify(cg, ConstraintSpec(from_family))
    if not source.verdict:
        raise LabelingError(f"input fails {from_family.value}: {source.violations}")
    c = source.magic_constant

    derived: dict[Edge, int] = {}
    violations: list[tuple[str, str]] = []
    for u, v in cg.graph.sorted_edges():
        fu, fv, fe = cg.vcolor(u), cg.vcolor(v), cg.ecolor(u, v)
        lo, hi = min(fu, fv), max(fu, fv)
        direct = _magic_expression(to_family, fu, fv, fe)
        formula = _case_formula(from_family, to_family, c, lo, hi, fe)
        if formula != direct:
            violations.append(
                ("case-formula", f"edge {(u, v)}: formula {formula} != direct {direct}")
            )
        derived[(u, v)] = direct

    closed: tuple[int, ...] | None = None
    so = verify(cg, ConstraintSpec(from_family, set_ordered=True))
    if so.verdict and so.bipartition is not None:
        closed = tuple(sorted(_closed_form_set(from_family, to_family, c, cg, so.bipartition[0])))
        if set(closed) != set(derived.values()):
            violations.append(
                ("closed-form-set", f"{sorted(set(derived.values()))} != {sorted(closed)}")
            )
    return TransformReport(
        verdict=not violations,
        source_constant=c,
        derived_values=derived,
        derived_set=tuple(sorted(set(derived.values()))),
        closed_form_set=closed,
        violations=violations,
    )


def _case_formula(src: Family, dst: Family, c: int, lo: int, hi: int, fe: int) -> int:
    """The per-edge connection formulas, branch chosen by the actual colors."""
    if src is dst:
        return c
    if src is Family.EDGE_MAGIC:
        if dst is Family.EDGE_DIFFERENCE:
            return c - 2 * lo
        if dst is Family.FELICITOUS_DIFFERENCE:
            return abs(c - 2 * fe)
        return abs(c - 2 * hi)
    if src is Family.EDGE_DIFFERENCE:
        if dst is Family.EDGE_MAGIC:
            return c + 2 * lo
        if dst is Family.FELICITOUS_DIFFERENCE:
            return abs(c - 2 * hi)
        return abs(c - 2 * fe)
    if src is Family.FELICITOUS_DIFFERENCE:
        s = lo + hi - fe  # = +-c
        if dst is Family.EDGE_MAGIC:
            return 2 * fe + s
        if dst is Family.EDGE_DIFFERENCE:
            return 2 * hi - s
        return abs(s - 2 * lo)
    # graceful-difference source
    s = (hi - lo) - fe  # = +-c
    if dst is Family.EDGE_MAGIC:
        return 2 * hi - s
    if dst is Family.EDGE_DIFFERENCE:
        return 2 * fe + s
    return abs(2 * lo + s)


def _closed_form_set(src: Family, dst: Family, c: int, cg: ColoredGraph, xs) -> set[int]:
    """The set-ordered value set: each edge's case formula with lo = f(x) and
    hi = f(y), x in X and y in Y, since every X color is below every Y color."""
    edges = ((u, v) if u in xs else (v, u) for u, v in cg.graph.edges)
    return {_case_formula(src, dst, c, cg.vcolor(x), cg.vcolor(y), cg.ecolor(x, y)) for x, y in edges}


# ---------------------------------------------------------------------------
# Magic-constant witness constructions.
# ---------------------------------------------------------------------------


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
        leaves: list[tuple[int, int, int]] = []  # (leaf color, edge color, index)
        n = max(2, m - 4)
        for i in range(1, n + 1):
            if family is Family.EDGE_MAGIC:
                leaf, edge = m - 2 - i, i + 1
            elif family is Family.EDGE_DIFFERENCE:
                leaf, edge = i + 1, m - i
            elif family is Family.FELICITOUS_DIFFERENCE:
                leaf, edge = i + 1, m + i + 2
            else:  # graceful-difference
                if m == 1:
                    leaf, edge = i + 3, i + 1  # |diff| = i+2, |i+2-(i+1)| = 1
                else:
                    leaf, edge = i + 1, i + m
            if leaf == 1 or edge == 1 or leaf == edge or leaf < 0 or edge < 1:
                continue
            leaves.append((leaf, edge, i))
        if not leaves:
            raise LabelingError(f"no proper witness at constant {m}")
        center = 0
        verts = [center] + [center + j + 1 for j in range(len(leaves))]
        vcolors = {center: 1}
        ecolors = {}
        for j, (leaf, edge, _) in enumerate(leaves):
            v = center + j + 1
            vcolors[v] = leaf
            ecolors[(center, v)] = edge
        witness = ColoredGraph(Graph.build(verts, ecolors.keys()), vcolors, ecolors)

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
    ecolors = {e: abs(vcolors[e[0]] - vcolors[e[1]]) for e in cg.graph.edges}
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
                if b.ecolor(u, v) != abs(b.vcolor(u) - b.vcolor(v)):
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
        values = []
        for cg, spec in colorings:
            if cg.ecolors is not None:
                values.append(cg.ecolor(u, v))
            else:
                values.append(_induced_edge_value(spec, g.q, cg.vcolor(u), cg.vcolor(v)))
        ecolors[(u, v)] = tuple(values)
    return ColoredGraph(g, vcolors, ecolors)


def verify_string_coloring(
    cg: ColoredGraph, specs: Sequence[ConstraintSpec]
) -> VerifyReport:
    """Position-wise verification of a tuple-valued total coloring.

    Whole-string adjacent/incident distinctness is guaranteed as soon as one
    position is a proper total coloring, so those clauses are enforced
    exactly when some position slice is proper.
    """
    report = VerifyReport(verdict=True)
    g = cg.graph
    any_proper = False
    for pos in range(len(specs)):
        vslice = {v: cg.vcolor(v)[pos] for v in g.vertices}
        eslice = {e: cg.ecolors[e][pos] for e in g.edges}
        part = ColoredGraph(g, vslice, eslice)
        sub = verify(part, specs[pos])
        any_proper = any_proper or sub.proper_total
        if not sub.verdict:
            report.fail(f"position-{pos}", f"{specs[pos].to_text()}: {sub.violations}")
    report.proper_total = any_proper
    if any_proper:
        for u, v in g.edges:
            if cg.vcolor(u) == cg.vcolor(v):
                report.fail("string-adjacent-v", f"{u} and {v} share a string")
            if cg.ecolor(u, v) in (cg.vcolor(u), cg.vcolor(v)):
                report.fail("string-incident", f"edge {(u, v)} repeats an endpoint string")
        for (a, b), (c, d) in itertools.combinations(g.edges, 2):
            if {a, b} & {c, d} and cg.ecolor(a, b) == cg.ecolor(c, d):
                report.fail("string-adjacent-e", f"edges {(a, b)} and {(c, d)} share a string")
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
    root = max(tree.vertices)
    order = [root]
    seen = {root}
    i = 0
    while i < len(order):
        for w in sorted(tree.neighbors(order[i])):
            if w not in seen:
                seen.add(w)
                order.append(w)
        i += 1
    p = tree.n
    rank = {v: p - i for i, v in enumerate(order)}  # root gets p, leaves lowest
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
    positions be pairwise distinct."""
    import math

    report = VerifyReport(verdict=True)
    g = cg.graph
    for u, v in g.sorted_edges():
        au, av, ae = cg.vcolor(u), cg.vcolor(v), cg.ecolor(u, v)
        if isinstance(rules, StringRule) and rules is StringRule.ANTI_EQUITABLE:
            if len(set(ae)) != len(ae):
                report.fail("anti-equitable", f"edge {(u, v)} repeats a position value")
            continue
        rule_map = {i: rules for i in range(len(ae))} if isinstance(rules, StringRule) else rules
        for pos, rule in rule_map.items():
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
            elif rule is StringRule.ANTI_EQUITABLE:
                if len(set(ae)) != len(ae):
                    report.fail("anti-equitable", f"edge {(u, v)} repeats a position value")
    return report
