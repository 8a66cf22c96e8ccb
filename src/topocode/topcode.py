"""Topcode matrices: 3 x q matrices whose columns carry, per edge, the two
endpoint colors and the edge color.  Includes number-based string
derivation under explicit cell permutations, parameterized matrices and
their evaluation, curve-attached string sequences, assignment
substitution, adjacency-family matrices, nested (string-celled) matrices,
and PRONBS, which recovers (graph, coloring, k, d) candidates from a string
by reading each cell as the (k, d) image of a base color.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .graphs import ColoredGraph, Graph, _norm_edge
from .strings import MOD10, DigitString

Cell = object  # int | DigitString | tuple[int, ...] | TopcodeMatrix


class TopcodeError(ValueError):
    pass


@dataclass(frozen=True)
class TopcodeMatrix:
    x_row: tuple[Cell, ...]
    e_row: tuple[Cell, ...]
    y_row: tuple[Cell, ...]

    def __post_init__(self) -> None:
        q = len(self.x_row)
        if q < 1 or len(self.e_row) != q or len(self.y_row) != q:
            raise TopcodeError("all three rows must share a positive length")

    @property
    def q(self) -> int:
        return len(self.x_row)

    def rows(self) -> tuple[tuple[Cell, ...], ...]:
        return (self.x_row, self.e_row, self.y_row)

    def column(self, i: int) -> tuple[Cell, Cell, Cell]:
        return (self.x_row[i], self.e_row[i], self.y_row[i])

    def cells_row_major(self) -> list[Cell]:
        return [*self.x_row, *self.e_row, *self.y_row]

    def is_numeric(self) -> bool:
        return all(type(c) is int for c in self.cells_row_major())

    def concat(self, other: "TopcodeMatrix") -> "TopcodeMatrix":
        return TopcodeMatrix(
            self.x_row + other.x_row, self.e_row + other.e_row, self.y_row + other.y_row
        )

    def to_json(self) -> dict:
        def cell_json(c: Cell):
            if isinstance(c, TopcodeMatrix):
                return c.to_json()
            if isinstance(c, DigitString):
                return str(c)
            if isinstance(c, tuple):
                return list(c)
            return c

        return {
            "q": self.q,
            "X": [cell_json(c) for c in self.x_row],
            "E": [cell_json(c) for c in self.e_row],
            "Y": [cell_json(c) for c in self.y_row],
        }


@dataclass(frozen=True)
class PermIndex:
    """A permutation of the 3q cell positions: ``sequence[i]`` is the
    row-major index of the cell read i-th.

    Its rank is its position in lexicographic order among all n!
    permutations of ``range(n)``: its Lehmer digits d_i (how many unused
    items are smaller than ``sequence[i]``) read in the factorial number
    system, ``sum(d_i * (n - 1 - i)!)``.  Rank 0 is the identity, i.e.
    row-major reading order; rank n! - 1 is the reversal.  Reading cells
    needs only the sequence, so the rank is computed when asked for, and
    every constructor checks the sequence once.
    """

    sequence: tuple[int, ...]

    def __post_init__(self) -> None:
        try:  # one hashing pass: a duplicate leaves the set short of n items
            ok = set(self.sequence) == set(range(len(self.sequence)))
        except TypeError:  # an unhashable item is no cell position
            ok = False
        if not ok:
            raise TopcodeError("not a permutation")

    @property
    def rank(self) -> int:
        return _perm_rank(self.sequence)

    @staticmethod
    def identity(n: int) -> "PermIndex":
        return PermIndex(tuple(range(n)))

    @staticmethod
    def from_sequence(seq: Sequence[int]) -> "PermIndex":
        return PermIndex(tuple(seq))

    @staticmethod
    def from_rank(rank: int, n: int) -> "PermIndex":
        return PermIndex(_perm_unrank(rank, n))

    @staticmethod
    def column_major(q: int) -> "PermIndex":
        """Read the 3 x q cells column by column: the X, E and Y cells of
        column i, i.e. row-major cells i, q + i and 2q + i.  PRONBS reads a
        string through this sequence alone: a reading that takes each
        cell's exact text in this order spells the string again."""
        return PermIndex(tuple(chain.from_iterable(zip(range(q), range(q, 2 * q), range(2 * q, 3 * q)))))


def _perm_rank(seq: Sequence[int]) -> int:
    """Lexicographic rank of a permutation of ``range(len(seq))``.

    Each Lehmer digit is ``s`` minus the number of smaller items already
    used: ``bisect_left`` finds that number in the sorted list of used
    items, and ``insert`` keeps the list sorted.  The digits, with radices
    n, n - 1, ..., 1, fold into the rank by halves (see ``_fold``).
    """
    n = len(seq)
    used: list[int] = []
    digits = []
    for s in seq:
        smaller_used = bisect_left(used, s)
        used.insert(smaller_used, s)
        digits.append(s - smaller_used)
    return _fold(digits, n, 0, n)


def _perm_unrank(rank: int, n: int) -> tuple[int, ...]:
    """The permutation of ``range(n)`` with lexicographic rank ``rank``.

    A negative rank is out of range.  Otherwise the rank splits into its
    Lehmer digits by halves (see ``_unfold``), and a quotient left over past
    the most significant digit means rank >= n!.  Digit d_i then pops the
    item at index d_i from the sorted list of free items.
    """
    digits = [0] * n
    if rank < 0 or _unfold(rank, n, 0, n, digits):
        try:
            shown = str(rank)
        except ValueError:  # past CPython's limit on int -> decimal string conversion
            shown = f"of {rank.bit_length()} bits"
        raise TopcodeError(f"rank {shown} out of range for n={n}")
    free = list(range(n))
    return tuple([free.pop(d) for d in digits])


# Below this many positions the digits fold or split one at a time; above
# it, by halves, so the rank meets a few multiplies and divides by balanced
# operands instead of one small radix per position on a growing integer.
_HALVING = 16


def _fold(digits: list[int], n: int, a: int, b: int) -> int:
    """Digits a..b-1 read as one mixed-radix number, position i in radix n - i.

    The value of the high half times the product of the low half's radices
    (``math.perm``, a balanced product), plus the value of the low half.
    """
    if b - a <= _HALVING:
        r = 0
        for i in range(a, b):
            r = r * (n - i) + digits[i]
        return r
    h = (a + b) // 2
    return _fold(digits, n, a, h) * math.perm(n - h, b - h) + _fold(digits, n, h, b)


def _unfold(r: int, n: int, a: int, b: int, digits: list[int]) -> int:
    """Write r's mixed-radix digits at positions a..b-1 of ``digits``, the
    inverse of ``_fold``; return the quotient left past position a, which
    is 0 exactly when 0 <= r < the product of the radices."""
    if b - a <= _HALVING:
        for i in range(b - 1, a - 1, -1):
            r, digits[i] = divmod(r, n - i)
        return r
    h = (a + b) // 2
    high, low = divmod(r, math.perm(n - h, b - h))
    _unfold(low, n, h, b, digits)
    return _unfold(high, n, a, h, digits)


def topcode_from_graph(
    cg: ColoredGraph,
    edge_order: Sequence[tuple[int, int]] | None = None,
    x_side: Iterable[int] | None = None,
) -> TopcodeMatrix:
    """The colored Topcode matrix with one column (f(x), f(xy), f(y)) per edge.

    ``edge_order`` fixes both the column order and, per pair, which endpoint
    lands in the X row.  Without it, edges come sorted; when an ``x_side``
    bipartition class is supplied, that side's endpoint fills the X row.
    """
    if not cg.vcolors or cg.ecolors is None:
        raise TopcodeError("topcode matrix needs a total coloring")
    if cg.graph.q == 0:
        raise TopcodeError("graph has no edges")
    if edge_order is None:
        ordered = cg.graph.sorted_edges()
    else:
        ordered = [tuple(e) for e in edge_order]
        if {_norm_edge(*e) for e in ordered} != set(cg.graph.edges) or len(ordered) != cg.graph.q:
            raise TopcodeError("edge order must list every edge exactly once")
    if x_side is not None:
        side = set(x_side)
        ordered = [(u, v) if u in side else (v, u) for u, v in ordered]
    vc, ec = cg.vcolors, cg.ecolors  # ordered holds edges only, so u != v
    es = tuple([ec[(u, v) if u < v else (v, u)] for u, v in ordered])
    return TopcodeMatrix(tuple([vc[u] for u, _ in ordered]), es, tuple([vc[v] for _, v in ordered]))


def _cell_text(c: Cell) -> str:
    if type(c) is int and c >= 0:
        return str(c)
    if isinstance(c, TopcodeMatrix):
        raise TopcodeError("nested cells must be flattened before string derivation")
    if isinstance(c, DigitString):
        return str(c)
    if isinstance(c, tuple):
        return "".join(str(v) for v in c)
    if type(c) is int:
        raise TopcodeError(f"negative cell {c} has no digit form")
    raise TopcodeError(f"cell {c!r} has no digit form")


def string_from_topcode(t: TopcodeMatrix, perm: PermIndex | None = None) -> DigitString:
    """Concatenate the 3q cells in permutation order (row-major by default)."""
    cells = t.cells_row_major()
    if perm is not None:
        if len(perm.sequence) != len(cells):
            raise TopcodeError(f"permutation over {len(perm.sequence)} cells, expected {len(cells)}")
        cells = map(cells.__getitem__, perm.sequence)
    text = "".join([str(c) if type(c) is int and c >= 0 else _cell_text(c) for c in cells])
    return DigitString.parse(text, MOD10)


# ---------------------------------------------------------------------------
# Parameterized matrices.
# ---------------------------------------------------------------------------


_UNIT = (0, 1, 1)  # the unit part of the X, E and Y rows of k * unit + d * base


def unit_matrix(q: int) -> TopcodeMatrix:
    """X row all zeros, E and Y rows all ones."""
    return TopcodeMatrix(*((u,) * q for u in _UNIT))


@dataclass(frozen=True)
class ParamTopcode:
    """k * unit + d * base, evaluated cell-wise at integer (k, d)."""

    base: TopcodeMatrix

    def __post_init__(self) -> None:
        if not self.base.is_numeric():
            raise TopcodeError("parameterized matrices need a numeric base")

    @property
    def q(self) -> int:
        return self.base.q

    def evaluate(self, k: int, d: int) -> TopcodeMatrix:
        return evaluate_set_cells(self.base, k, d)

    def render(self) -> list[list[str]]:
        """Symbolic cells like 'k+5d', 'd', 'k'."""

        def cell(u: int, b: int) -> str:
            parts = ["k"] * u + (["d" if b == 1 else f"{b}d"] if b >= 1 else [])
            return "+".join(parts) or "0"

        return [[cell(u, b) for b in brow] for u, brow in zip(_UNIT, self.base.rows())]


def parameterize(t: TopcodeMatrix) -> ParamTopcode:
    return ParamTopcode(t)


def curve_strings(
    p: ParamTopcode,
    points: Sequence[tuple[int, int]],
    perm: PermIndex | None = None,
) -> list[DigitString]:
    """One string per (k, d) plane point, via evaluate then concatenate."""
    out = []
    for k, d in points:
        if k < 0 or d < 0:
            raise TopcodeError(f"plane point ({k}, {d}) must be non-negative")
        out.append(string_from_topcode(p.evaluate(k, d), perm))
    return out


def assignment_substitute(s: DigitString, table: Mapping[int, DigitString | str]) -> DigitString:
    """Replace every digit by its assigned string, concatenated in place."""
    resolved: dict[int, DigitString] = {}
    for digit, repl in table.items():
        resolved[digit] = repl if isinstance(repl, DigitString) else DigitString.parse(repl)
    missing = sorted(set(s.digits) - set(resolved))
    if missing:
        raise TopcodeError(f"assignment table missing digits {missing}")
    text = "".join(resolved[d].to_text() for d in s.digits)
    return DigitString.parse(text, s.ring)


# ---------------------------------------------------------------------------
# Adjacency-family matrices.
# ---------------------------------------------------------------------------


def adjacency_family(
    cg: ColoredGraph,
) -> tuple[list[list[int]], list[list[object]], list[list[object]]]:
    """(A, colored A, bordered A_code) over the sorted vertex order.

    A is the 0/1 adjacency matrix; the colored variant carries f(uv) at
    adjacent cells; A_code borders A with a 0 corner and the vertex colors.
    """
    if not cg.vcolors:
        raise TopcodeError("adjacency family needs vertex colors")
    verts = list(cg.graph.vertices)
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    a = [[0] * n for _ in range(n)]
    colored = [[0] * n for _ in range(n)]
    for u, v in cg.graph.edges:
        i, j = index[u], index[v]
        a[i][j] = a[j][i] = 1
        value = cg.ecolor(u, v) if cg.ecolors is not None else 1
        colored[i][j] = colored[j][i] = value
    border = [cg.vcolor(v) for v in verts]
    a_code: list[list[object]] = [[0] + border]
    for i, v in enumerate(verts):
        a_code.append([border[i]] + a[i])
    return a, colored, a_code


# ---------------------------------------------------------------------------
# Nested matrices for string-colored graphs.
# ---------------------------------------------------------------------------


def _as_positions(c: Cell) -> tuple[int, ...]:
    if isinstance(c, DigitString):
        return c.digits
    if isinstance(c, tuple):
        return c
    raise TopcodeError(f"cell {c!r} is not a string value")


def nested_topcode(
    cg: ColoredGraph, edge_order: Sequence[tuple[int, int]] | None = None
) -> TopcodeMatrix:
    """The string-celled matrix of a homogeneous string-colored graph.

    Each cell is a tuple of digit positions; column i re-reads as the inner
    3 x n matrix of edge i via :func:`inner_matrix`.
    """
    outer = topcode_from_graph(cg, edge_order)
    xs, es, ys = [], [], []
    for i in range(outer.q):
        x, e, y = (_as_positions(c) for c in outer.column(i))
        if not len(x) == len(e) == len(y):
            raise TopcodeError(f"ragged string lengths in column {i}")
        xs.append(x)
        es.append(e)
        ys.append(y)
    return TopcodeMatrix(tuple(xs), tuple(es), tuple(ys))


def inner_matrix(t: TopcodeMatrix, i: int) -> TopcodeMatrix:
    """Column i of a string-celled matrix as its own 3 x n matrix."""
    x, e, y = (_as_positions(c) for c in t.column(i))
    return TopcodeMatrix(tuple(x), tuple(e), tuple(y))


# ---------------------------------------------------------------------------
# PRONBS: invert a string back to (graph, coloring, k, d).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PronbsCandidate:
    graph: Graph
    base: TopcodeMatrix
    k: int
    d: int
    layout: str  # 'row-major' or 'column-major'
    set_ordered: bool

    def regenerate(self) -> DigitString:
        perm = None if self.layout == "row-major" else PermIndex.column_major(self.base.q)
        return string_from_topcode(ParamTopcode(self.base).evaluate(self.k, self.d), perm)


def pronbs_solve(
    s: DigitString,
    max_q: int = 4,
    max_color: int = 6,
    k_range: Sequence[int] = (0, 1, 2, 3),
    d_range: Sequence[int] = (1, 2),
) -> list[PronbsCandidate]:
    """Exhaustively recover parameterized graceful sources of s.

    Every candidate (H, f, k, d) satisfies: the base matrix obeys the
    graceful constraint (edge value = |Y - X| >= 1) on a simple graph whose
    vertices are identified by color, colors stay within max_color, and
    regenerating via k*unit + d*base under a row-major or column-major
    reading reproduces s exactly.  Set-ordered bases are flagged.

    Each cell of k*unit + d*base is the text of u*k + d*b, b a base color
    and u its row's unit part, so s is read cell by cell through one
    text -> b map per row, which d >= 1 makes one-to-one.  A reading takes
    each cell as that exact text, so its evaluated cells, joined in layout
    order, spell s again: no candidate needs regenerating to be checked.
    Regeneration gives a mod-10 string, so a string over any other ring
    has no candidates.
    """
    if max_q > 5:
        raise TopcodeError("PRONBS search bounded to q <= 5")
    if any(d < 1 for d in d_range):
        raise TopcodeError("PRONBS needs d >= 1")
    if s.ring != MOD10:
        return []
    text = str(s)
    layouts = [(q, "row-major", range(3 * q)) for q in range(1, max_q + 1)]
    layouts += [(q, "column-major", PermIndex.column_major(q).sequence) for q, _, _ in layouts]
    found: dict[tuple, PronbsCandidate] = {}
    for k in k_range:
        for d in d_range:
            maps = [{str(u * k + d * b): b for b in range(max_color + 1)} for u in _UNIT]
            width = max((len(t) for m in maps for t in m), default=0)
            for q, layout, order in layouts:
                for values in _cells(text, 0, tuple(maps[c // q] for c in order), width):
                    cells = [b for _, b in sorted(zip(order, values))]  # row-major
                    if (cand := _graceful_candidate(cells, q, k, d, layout)) is not None:
                        found.setdefault((cand.base.rows(), k, d, layout), cand)
    return sorted(found.values(), key=lambda c: (c.base.q, c.k, c.d, c.layout, c.base.rows()))


def _cells(text: str, start: int, maps: tuple[dict[str, int], ...], width: int) -> list[tuple[int, ...]]:
    """Every reading of text[start:] as one cell per map, each cell a key of
    its map at most width digits long: the cells' base colors."""
    if not len(maps) <= len(text) - start <= len(maps) * width:
        return []
    if not maps:
        return [()]
    readings = []
    for end in range(start + 1, min(start + width, len(text)) + 1):
        if (b := maps[0].get(text[start:end])) is not None:
            readings += [(b,) + v for v in _cells(text, end, maps[1:], width)]
    return readings


def _graceful_candidate(cells: list[int], q: int, k: int, d: int, layout: str) -> PronbsCandidate | None:
    """The candidate whose base holds cells row by row, if every edge value
    is |y - x| >= 1 (0 would be a loop) and no two columns join the same two
    colors: vertices are identified by color, and the graph stays simple."""
    xs, es, ys = cells[:q], cells[q : 2 * q], cells[2 * q :]
    edges = {(min(x, y), max(x, y)) for x, y in zip(xs, ys)}
    if len(edges) < q or any(e != abs(y - x) or e < 1 for x, e, y in zip(xs, es, ys)):
        return None
    base = TopcodeMatrix(tuple(xs), tuple(es), tuple(ys))
    return PronbsCandidate(Graph.build(set(xs) | set(ys), edges), base, k, d, layout, max(xs) < min(ys))


def evaluate_set_cells(t: TopcodeMatrix, k: int, d: int) -> TopcodeMatrix:
    """The set-type scaling rule: every member a of a set cell maps to k + d*a
    (numeric cells scale the same way, X-row cells with a zero unit part)."""
    if d < 0:
        raise TopcodeError("d must be non-negative")
    rows = []
    for u, row in zip(_UNIT, t.rows()):
        out = []
        for cell in row:
            if type(cell) is int:
                out.append(k * u + d * cell)
            elif isinstance(cell, (frozenset, set)):
                out.append(frozenset(k * u + d * a for a in cell))
            else:
                raise TopcodeError(f"cell {cell!r} is not a set or number")
        rows.append(tuple(out))
    return TopcodeMatrix(*rows)
