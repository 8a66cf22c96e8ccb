"""Regenerate the two reference digit-string tables from their seeds.

Both tables list, per row i, a base string and the columns their headers
name, each a formula over that string.  Table 1 advances its seed mod 10;
Table 2 advances mod 9 and prints the residue 0 as the digit 9 everywhere
except in the two complement columns, which print 0.  Known discrepancies
in the published layouts are reported as erratum notes rather than
silently reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass

from .strings import MOD9, MOD10, CombineOp, DigitRing, DigitString, build_shift_group

TABLE1_SEED = "1013412"
TABLE2_SEED = "142857"

TABLE1_HEADER = ("i", "s", "s_rev", "comp", "comp_rev", "s+s_rev", "s-s_rev", "comp+comp_rev")
TABLE2_HEADER = (
    "i",
    "d",
    "d_rev",
    "comp",
    "comp_rev",
    "d+d_rev",
    "comp+comp_rev",
    "d-comp",
    "d-comp_rev",
    "d_rev-comp_rev",
)

# the operation a column name may put between two base strings
_OPS = {"+": CombineOp.ADD, "-": CombineOp.SUB}


@dataclass(frozen=True)
class TableResult:
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    notes: tuple[str, ...]

    def to_text(self) -> str:
        lines = ["\t".join(self.header)]
        lines.extend("\t".join(row) for row in self.rows)
        return "\n".join(lines) + "\n"


def _reproduce(seed: str, ring: DigitRing, header: tuple[str, ...], notes: tuple[str, ...]) -> TableResult:
    """One row per element s of the seed's shift group under ``ring``.
    Each header after ``i`` names its column: a base string (s, its
    reversal, its complement ``comp`` or ``comp_rev``), or ``a+b`` /
    ``a-b`` of two base strings.  Residue 0 prints as 9 except in the two
    plain complement columns."""
    columns = []
    for name in header[1:]:
        op = next((c for c in _OPS if c in name), None)
        a, b = name.split(op) if op else (name, None)
        columns.append((a, _OPS.get(op), b, op is not None or not a.startswith("comp")))
    group = build_shift_group(DigitString.parse(seed, ring), k=1, m=ring.modulus)
    rows = []
    for i, s in enumerate(group.elements, start=1):
        comp = s.complement()
        base = {header[1]: s, f"{header[1]}_rev": s.reverse(), "comp": comp, "comp_rev": comp.reverse()}
        row = [str(i)]
        for a, op, b, nine in columns:
            cell = base[a] if op is None else base[a].combine(base[b], op)
            row.append(cell.to_text(zero_as_nine=nine))
        rows.append(tuple(row))
    return TableResult(header, tuple(rows), notes)


def reproduce_table1() -> TableResult:
    """Rows 1..10 from seed 1013412, all columns folded mod 10."""
    notes = (
        "table1: the subtraction column folds negatives mod 10 (e.g. 1-2 -> 9) "
        "although the defining text reduces strings mod 9; reproduced under mod 10.",
    )
    return _reproduce(TABLE1_SEED, MOD10, TABLE1_HEADER, notes)


def reproduce_table2() -> TableResult:
    """Rows 1..9 from seed 142857 under mod 9 with per-column zero display."""
    notes = (
        "table2: residue 0 prints as 9 in every column except the two complement "
        "columns, matching the published layout.",
        "table2: row 6 of the d-comp_rev column computes to 912219; the published "
        "table prints 921129 (digit transposition), inconsistent with its own "
        "identity d+d_rev = d-comp_rev.",
        "table2: row 9 of the d-comp column computes to 962583; the published "
        "table prints 962853 (digit transposition), inconsistent with the "
        "identity d-comp = 2d (mod 9).",
    )
    return _reproduce(TABLE2_SEED, MOD9, TABLE2_HEADER, notes)
