"""Number-based digit strings, their arithmetic, and every-zero string groups.

Digits are stored canonically: a ring of modulus M keeps every digit in
[0, M-1].  The mod-9 convention displays the residue 0 as the digit 9 in
some contexts, so rendering takes an explicit ``zero_as_nine`` switch and
parsing folds '9' into residue 0 under mod 9.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence, Union


class StringError(ValueError):
    pass


class GroupError(StringError):
    """An every-zero group, or an index into one, is malformed."""


class GroupLawError(GroupError):
    """A claimed every-zero group fails its digit-wise closure law."""


@dataclass(frozen=True)
class DigitRing:
    """Digit reduction convention: all digit arithmetic is mod ``modulus``."""

    modulus: int

    def __post_init__(self) -> None:
        if not 2 <= self.modulus <= 10:
            raise StringError(f"digit ring modulus must be in [2, 10], got {self.modulus}")

    def reduce(self, value: int) -> int:
        return value % self.modulus

    @property
    def name(self) -> str:
        return f"mod{self.modulus}"


MOD10 = DigitRing(10)
MOD9 = DigitRing(9)

# _DIGIT_VALUE[m] maps the ASCII digit byte of k (48 + k) to k mod m under
# bytes.translate, so one translate reads a whole digit string; other bytes
# map to 0, and parse admits none
_DIGIT_VALUE = {m: bytes(48) + bytes(k % m for k in range(10)) + bytes(198) for m in range(2, 11)}

# _ROTATE[m][s] maps digit d to (d + s) mod m under bytes.translate, so one
# translate advances a whole string of residues mod m by s
_ROTATE = {m: [bytes((d + s) % m for d in range(m)) + bytes(256 - m) for s in range(m)] for m in range(2, 11)}

# _DIGIT_TEXT maps digit k to its ASCII byte under bytes.translate, so one
# translate writes a whole digit string; _DIGIT_TEXT_NINE writes 0 as '9'
_DIGIT_TEXT = b"0123456789" + bytes(246)
_DIGIT_TEXT_NINE = b"9" + _DIGIT_TEXT[1:]

_RING_BY_NAME = {"mod10": MOD10, "mod9": MOD9}


def ring_by_name(name: str) -> DigitRing:
    key = name.strip().lower()
    if key in _RING_BY_NAME:
        return _RING_BY_NAME[key]
    digits = key.removeprefix("mod")
    if digits == key or not digits.isdecimal():
        raise StringError(f"unknown digit ring {name!r}")
    return DigitRing(int(digits))


class CombineOp(Enum):
    ADD = "add"
    SUB = "sub"


class GroupOpMode(Enum):
    # ADDSUB: s_i [+] s_j [-] s_zero, index i+j-zero.
    # SUBADD: s_i [-] s_j [+] s_zero, index i-j+zero.
    ADDSUB = "addsub"
    SUBADD = "subadd"


@dataclass(frozen=True)
class DigitString:
    """An immutable string of canonical digits under a digit ring."""

    digits: tuple[int, ...]
    ring: DigitRing = MOD10

    def __post_init__(self) -> None:
        if len(self.digits) < 1:
            raise StringError("digit string must have length >= 1")
        m = self.ring.modulus
        if min(self.digits) < 0 or max(self.digits) >= m:
            bad = next(d for d in self.digits if not 0 <= d < m)
            raise StringError(f"digit {bad} out of range for {self.ring.name}")

    @staticmethod
    def parse(text: str, ring: DigitRing = MOD10) -> "DigitString":
        """Read ASCII digits 0–9, each reduced mod the ring's modulus (so '9'
        is 0 under mod 9); any other character, or empty text, is an error."""
        if not (text.isascii() and text.isdigit()):
            raise StringError(f"not a digit string: {text!r}")
        # ASCII isdigit admits only 0-9, and the translate reduces each mod m
        return _digit_string(tuple(text.encode().translate(_DIGIT_VALUE[ring.modulus])), ring)

    def __len__(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        return self.to_text()

    def to_text(self, zero_as_nine: bool = False) -> str:
        """The digits as ASCII text; under mod 9, `zero_as_nine` writes the
        residue 0 as '9'."""
        table = _DIGIT_TEXT_NINE if zero_as_nine and self.ring.modulus == 9 else _DIGIT_TEXT
        return bytes(self.digits).translate(table).decode()

    def combine(self, other: "DigitString", op: CombineOp) -> "DigitString":
        if len(self) != len(other):
            raise StringError(f"length mismatch: {len(self)} vs {len(other)}")
        if self.ring != other.ring:
            raise StringError(f"ring mismatch: {self.ring.name} vs {other.ring.name}")
        if op is CombineOp.ADD:
            out = (self.ring.reduce(a + b) for a, b in zip(self.digits, other.digits))
        else:
            out = (self.ring.reduce(a - b) for a, b in zip(self.digits, other.digits))
        return DigitString(tuple(out), self.ring)

    def complement(self) -> "DigitString":
        return DigitString(tuple(self.ring.reduce(9 - d) for d in self.digits), self.ring)

    def reverse(self) -> "DigitString":
        return DigitString(tuple(reversed(self.digits)), self.ring)

    def scale(self, k: int) -> "DigitString":
        if k < 1:
            raise StringError(f"scalar must be >= 1, got {k}")
        return DigitString(tuple(self.ring.reduce(k * d) for d in self.digits), self.ring)


def _digit_string(digits: tuple[int, ...], ring: DigitRing) -> DigitString:
    """A DigitString whose digits are already known to lie in [0, modulus)."""
    s = object.__new__(DigitString)
    object.__setattr__(s, "digits", digits)
    object.__setattr__(s, "ring", ring)
    return s


@dataclass(frozen=True)
class StringGroup:
    """A shift-generated every-zero string group.

    Element t equals the seed advanced by t*k at every active position.
    ``mask`` lists the positions that advance (None means all positions);
    ``position_moduli`` overrides the ring modulus per position, and every
    element digit must lie below its position's modulus.
    """

    elements: tuple[DigitString, ...]
    shift: int
    mask: frozenset[int] | None = None
    position_moduli: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.elements) < 2:
            raise StringError("string group needs order >= 2")
        lengths = {len(e) for e in self.elements}
        rings = {e.ring for e in self.elements}
        if len(lengths) != 1 or len(rings) != 1:
            raise StringError("group elements must share length and ring")
        if self.position_moduli is None:
            return
        if len(self.position_moduli) not in lengths:
            raise StringError("position moduli length mismatch")
        for t, e in enumerate(self.elements):
            for pos, (d, mod) in enumerate(zip(e.digits, self.position_moduli)):
                if d >= mod:
                    raise StringError(f"element {t} has digit {d} at position {pos}, not below its modulus {mod}")

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def ring(self) -> DigitRing:
        return self.elements[0].ring

    @property
    def has_collisions(self) -> bool:
        return len(set(self.elements)) < self.order

    @cached_property
    def closed(self) -> bool:
        """Whether the every-zero law holds digit-wise for every triple
        (``law_closed``), proved once per group on first use;
        ``build_shift_group`` decides it at build instead."""
        moduli = self.position_moduli or (self.ring.modulus,) * len(self.elements[0])
        return law_closed([e.digits for e in self.elements], moduli)

    def to_json(self) -> dict:
        return {
            "seed": str(self.elements[0]),
            "k": self.shift,
            "m": self.order,
            "ring": self.ring.name,
            "mask": sorted(self.mask) if self.mask is not None else None,
        }


def _string_group(elements: tuple[DigitString, ...], shift: int) -> StringGroup:
    """An unmasked StringGroup under its ring's modulus whose elements are
    already known to share one length and ring."""
    g = object.__new__(StringGroup)
    object.__setattr__(g, "elements", elements)
    object.__setattr__(g, "shift", shift)
    object.__setattr__(g, "mask", None)
    object.__setattr__(g, "position_moduli", None)
    return g


def build_shift_group(
    seed: DigitString,
    k: int,
    m: int,
    mask: Iterable[int] | None = None,
    position_moduli: Sequence[int] | None = None,
) -> StringGroup:
    """Build the order-m group whose element t advances the seed by t*k.

    An unmasked group under the ring's modulus takes each element from one
    translate of the seed.  ``closed`` is decided here by ``law_closed``'s
    theorem with step k: the group is closed exactly when m*k = 0 mod every
    advancing position's modulus."""
    if m < 2:
        raise StringError(f"group order must be >= 2, got {m}")
    if k < 1:
        raise StringError(f"shift must be >= 1, got {k}")
    mask_set = frozenset(mask) if mask is not None else None
    if mask_set is not None and any(p < 0 or p >= len(seed) for p in mask_set):
        raise StringError("mask position out of range")
    moduli = tuple(position_moduli) if position_moduli is not None else None
    if moduli is not None:
        if len(moduli) != len(seed):
            raise StringError("position moduli length mismatch")
        if any(m < 2 or m > seed.ring.modulus for m in moduli):
            raise StringError("position moduli must lie in [2, ring modulus]")

    ring = seed.ring
    if mask_set is None and moduli is None:
        raw, rotate, mod = bytes(seed.digits), _ROTATE[ring.modulus], ring.modulus
        elements = tuple([_digit_string(tuple(raw.translate(rotate[t * k % mod])), ring) for t in range(m)])
        g = _string_group(elements, k)
        advancing = [mod]
    else:
        # (digit, modulus) per position; a masked-out digit stays fixed and unreduced
        columns = [
            (d, mod if mask_set is None or pos in mask_set else None)
            for pos, (d, mod) in enumerate(zip(seed.digits, moduli or (ring.modulus,) * len(seed)))
        ]
        elements = tuple(
            DigitString(tuple(d if mod is None else (d + t * k) % mod for d, mod in columns), ring)
            for t in range(m)
        )
        g = StringGroup(elements, shift=k, mask=mask_set, position_moduli=moduli)
        advancing = [mod for _, mod in columns if mod is not None]
    # closed is a cached_property, a non-data descriptor, so this stores the
    # value it would otherwise compute on first use
    object.__setattr__(g, "closed", all(m * k % mod == 0 for mod in advancing))
    return g


def every_zero(
    a: Sequence[int],
    b: Sequence[int],
    zero: Sequence[int],
    moduli: Sequence[int | None],
    mode: GroupOpMode = GroupOpMode.ADDSUB,
) -> tuple[int, ...]:
    """The every-zero law on equal-length residue vectors: a + b - zero
    (ADDSUB) or a - b + zero (SUBADD) at each position, mod that position's
    modulus; a None modulus leaves its position unreduced."""
    if mode is GroupOpMode.SUBADD:
        b, zero = zero, b
    return tuple(
        x + y - z if m is None else (x + y - z) % m
        for x, y, z, m in zip(a, b, zero, moduli, strict=True)
    )


def law_closed(rows: Sequence[Sequence[int]], moduli: Sequence[int]) -> bool:
    """Whether m rows of digits satisfy the every-zero law digit-wise for
    every triple (i, j, zero), in both ``GroupOpMode``s: row_i + row_j -
    row_zero (or row_i - row_j + row_zero) equals row (i + j - zero) mod m
    (or (i - j + zero) mod m) at each position, mod that position's modulus.

    The law holds exactly when, at each position with digits x_0..x_{m-1}
    and modulus M, x_t = (x_0 + t*step) mod M for step = x_1 - x_0 and
    m*step = 0 mod M.  Necessity: i = j = zero = t forces x_t to be reduced,
    zero = 0 and j = 1 give x_{t+1} = x_t + step, and wrapping at t = m gives
    m*step = 0.  Sufficiency: x_t = x_0 + t*step then holds mod M for every
    integer t, so both sides of the law equal x_0 + (i + j - zero)*step
    reduced.  The check is O(m*L) where the law has m^3 triples; rows of
    unequal length, or not as long as ``moduli``, are not closed.
    ``build_shift_group`` knows step = k at every advancing position, so it
    decides closure by this theorem alone (m*k = 0 mod M) and never calls
    this check; ``StringGroup.closed`` calls it for groups built from given
    elements."""
    m = len(rows)
    if any(len(row) != len(moduli) for row in rows):
        return False
    for column, mod in zip(zip(*rows), moduli):
        x0 = column[0]
        step = column[1] - x0 if m > 1 else 0
        if (m * step) % mod or any(x != (x0 + t * step) % mod for t, x in enumerate(column)):
            return False
    return True


def index_law(i: int, j: int, zero: int, m: int, mode: GroupOpMode = GroupOpMode.ADDSUB) -> int:
    """The every-zero index law of an order-m group: (i + j - zero) mod m
    (ADDSUB) or (i - j + zero) mod m (SUBADD).  Raises GroupError unless all
    three indices are ints, not bools, in range(m)."""
    if type(i) is type(j) is type(zero) is int and 0 <= i < m and 0 <= j < m and 0 <= zero < m:
        return (i + j - zero if mode is GroupOpMode.ADDSUB else i - j + zero) % m
    raise GroupError(f"indices {(i, j, zero)!r} are not integers in range({m})")


def group_op(
    g: StringGroup, i: int, j: int, zero: int, mode: GroupOpMode = GroupOpMode.ADDSUB
) -> int:
    """Apply the every-zero operation; returns the index of the result.

    The element at the returned index equals the digit-wise computation
    (s_i [+] s_j [-] s_zero for ADDSUB, s_i [-] s_j [+] s_zero for SUBADD).
    A group proved closed (``StringGroup.closed``) returns the index law
    at once; any other group is checked digit by digit on this triple, and
    a mismatch raises GroupLawError naming the first differing position.
    """
    lam = index_law(i, j, zero, g.order, mode)
    if g.closed:
        return lam
    a, b, c = g.elements[i].digits, g.elements[j].digits, g.elements[zero].digits
    got = every_zero(a, b, c, g.position_moduli or (g.ring.modulus,) * len(a), mode)
    want = g.elements[lam].digits
    if got != want:
        pos = [x == y for x, y in zip(got, want)].index(False)
        raise GroupLawError(f"digit-wise result differs from element {lam} at position {pos}")
    return lam


# ---------------------------------------------------------------------------
# Super-strings: segments carrying their own all-nines modulus.
# ---------------------------------------------------------------------------


def _is_all_nines(m: int) -> bool:
    return m > 0 and set(str(m)) == {"9"}


@dataclass(frozen=True)
class SuperString:
    """Segments (value, modulus) with each modulus of the form 10^a - 1."""

    segments: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.segments) < 1:
            raise StringError("super-string needs at least one segment")
        for value, modulus in self.segments:
            if not _is_all_nines(modulus):
                raise StringError(f"segment modulus {modulus} is not of the form 10^a - 1")
            if not 0 <= value <= modulus:
                raise StringError(f"segment value {value} out of [0, {modulus}]")

    @staticmethod
    def parse(text: str) -> "SuperString":
        segs = []
        for part in text.split(","):
            value_text, _, modulus_text = part.strip().partition("|")
            if not modulus_text:
                raise StringError(f"segment {part!r} missing '|modulus'")
            segs.append((int(value_text), int(modulus_text)))
        return SuperString(tuple(segs))

    def __str__(self) -> str:
        return ",".join(f"{v}|{m}" for v, m in self.segments)

    def values(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.segments)


def super_arith(s: SuperString, t: int, sign: str = "+") -> SuperString:
    """Uniform arithmetic: add or subtract t in every segment mod its modulus."""
    if t < 0:
        raise StringError("shift must be non-negative")
    if sign not in ("+", "-"):
        raise StringError(f"sign must be '+' or '-', got {sign!r}")
    delta = t if sign == "+" else -t
    return SuperString(tuple((((v + delta) % m), m) for v, m in s.segments))


# ---------------------------------------------------------------------------
# Self-breeding string sets.
# ---------------------------------------------------------------------------

# An element of generation t+1 concatenates a full permutation of generation t,
# so generations grow as iterated factorials; only small generations are ever
# materialized while byte counts stay exact via integer arithmetic.
_MATERIALIZE_LIMIT = 4000
# the most strings self_breed returns
_SAMPLE_LIMIT = 64
# factorial(n) for n beyond this cannot be held in memory as an exact integer
_FACTORIAL_ARG_LIMIT = 200_000


def self_breed(
    strings: Sequence[DigitString | str],
    depth: int,
    seed: int = 0,
) -> tuple[list[DigitString], int]:
    """Breed the string set ``depth`` times; return (samples, exact total bytes).

    The total byte count of generation depth+1 is byte(S_1) * prod((M_j)!)
    where M_1 = |S_1| and M_{j+1} = (M_j)!.
    """
    if len(strings) < 2:
        raise StringError("self-breeding needs at least two strings")
    if depth < 1:
        raise StringError("depth must be >= 1")
    base = [s if isinstance(s, DigitString) else DigitString.parse(s) for s in strings]
    byte1 = sum(len(s) for s in base)

    sizes = [len(base)]
    total = byte1
    for level in range(1, depth + 1):
        if sizes[-1] > _FACTORIAL_ARG_LIMIT:
            raise StringError(
                f"exact byte count at depth {level} needs a factorial that cannot be "
                "represented; reduce the depth"
            )
        step = math.factorial(sizes[-1])
        total *= step
        sizes.append(step)

    # Materialize whole generations while they stay small; at the first one
    # that would not, draw a bounded sample of random permutations instead.
    rng = random.Random(seed)
    generation = base
    for next_size in sizes[1:]:
        if next_size > _MATERIALIZE_LIMIT:
            drawn = []
            for _ in range(_SAMPLE_LIMIT):
                perm = list(generation)
                rng.shuffle(perm)
                drawn.append(_concat_all(perm))
            return drawn, total
        generation = [_concat_all(p) for p in itertools.permutations(generation)]
    return generation[:_SAMPLE_LIMIT], total


def _concat_all(items: Sequence[DigitString]) -> DigitString:
    rings = {s.ring for s in items}
    if len(rings) != 1:
        raise StringError("cannot concatenate strings over different rings")
    digits = tuple(itertools.chain.from_iterable(s.digits for s in items))
    return DigitString(digits, items[0].ring)


# ---------------------------------------------------------------------------
# Multi-level rank trees.
# ---------------------------------------------------------------------------

LevelNode = Union[DigitString, Sequence["LevelNode"]]


def flatten_multilevel(node: LevelNode) -> DigitString:
    """Depth-first concatenation of a nested rank tree with DigitString leaves."""
    if isinstance(node, DigitString):
        return node
    children = list(node)
    if not children:
        raise StringError("empty node in multi-level string spec")
    return _concat_all([flatten_multilevel(c) for c in children])


# ---------------------------------------------------------------------------
# Integer-partitioned and integer-decomposed strings.
# ---------------------------------------------------------------------------


class PartitionMode(Enum):
    SUM = "sum"
    PRODUCT = "product"


@dataclass(frozen=True)
class PartitionSpec:
    target: int
    parts: tuple[int, ...]
    mode: PartitionMode

    def __post_init__(self) -> None:
        if self.mode is PartitionMode.SUM:
            if sum(self.parts) != self.target or any(p <= 0 for p in self.parts):
                raise StringError(f"invalid sum partition {self.parts} of {self.target}")
        else:
            if math.prod(self.parts) != self.target or any(p < 3 for p in self.parts):
                raise StringError(f"invalid product partition {self.parts} of {self.target}")

    def to_string(self) -> DigitString:
        return DigitString.parse("".join(str(p) for p in self.parts))


def _sum_partitions(m: int, max_part: int) -> Iterable[tuple[int, ...]]:
    # Non-increasing parts, emitted in descending lexicographic order.
    if m == 0:
        yield ()
        return
    for first in range(min(m, max_part), 0, -1):
        for rest in _sum_partitions(m - first, first):
            yield (first,) + rest


def _product_partitions(m: int, max_factor: int) -> Iterable[tuple[int, ...]]:
    if m == 1:
        yield ()
        return
    for first in range(min(m, max_factor), 2, -1):
        if m % first == 0:
            for rest in _product_partitions(m // first, first):
                yield (first,) + rest


def partition_strings(
    m: int, mode: PartitionMode, limit: int | None = None
) -> list[tuple[PartitionSpec, DigitString]]:
    """All >=2-part partitions (SUM) or >=2-factor decompositions (PRODUCT) of m.

    Enumeration is deterministic: descending lexicographic on the
    non-increasing part sequences.  PRODUCT factors are all >= 3; a value
    with no such decomposition yields an empty list.  ``limit``, when given,
    caps the number returned and must be at least 1.
    """
    if limit is not None and limit < 1:
        raise StringError(f"partition limit must be >= 1, got {limit}")
    if mode is PartitionMode.SUM and m < 2:
        raise StringError("SUM partitioning needs m >= 2")
    if mode is PartitionMode.PRODUCT and m < 2:
        raise StringError("PRODUCT decomposition needs m >= 2")
    out: list[tuple[PartitionSpec, DigitString]] = []
    gen = _sum_partitions(m, m - 1) if mode is PartitionMode.SUM else _product_partitions(m, m)
    for parts in gen:
        if len(parts) < 2:
            continue
        spec = PartitionSpec(m, parts, mode)
        out.append((spec, spec.to_string()))
        if limit is not None and len(out) >= limit:
            break
    return out
