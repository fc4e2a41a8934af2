"""Exact rank and echelon pivots over the rationals.

Rows are sparse maps from column index to coefficient.  `pivot_columns`
takes rows of nonzero ints, not necessarily primitive; the rational entry
points `rank_sparse` and `rank_dense` clear denominators once (`primitive`).
The update rule  r <- a * r - b * pivot  (a, b the leading entries over
their gcd) keeps every entry an int, with the row's content divided out
after every step to control growth.  The echelon basis is kept by leading
column, the smallest column index of a row, so a caller that numbers its
columns by degree can read graded information off the pivots.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List


def _without_content(row: dict) -> dict:
    """Divide a row of nonzero ints by the gcd of its entries."""
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def primitive(row: dict) -> dict:
    """Scale a rational row to coprime integers, dropping zeros."""
    scale = lcm(*[v.denominator for v in row.values()])
    return _without_content(
        {c: v.numerator * (scale // v.denominator) for c, v in row.items() if v}
    )


def pivot_columns(rows: Iterable[dict]) -> List[int]:
    """Sorted leading columns of an echelon basis of the integer rows' span over Q."""
    pivots: Dict[int, dict] = {}
    for row in rows:
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            a, b = pivot[col], row[col]
            g = gcd(a, b)
            a, b = a // g, b // g
            row = {c: a * v for c, v in row.items()}
            for c, v in pivot.items():
                v = row.get(c, 0) - b * v
                if v:
                    row[c] = v
                else:
                    del row[c]
            row = _without_content(row)
    return sorted(pivots)


def rank_sparse(rows: Iterable[dict]) -> int:
    """Rank over Q of the span of the given sparse rational rows."""
    return len(pivot_columns(primitive(row) for row in rows))


def rank_dense(matrix: List[List[Fraction]]) -> int:
    return rank_sparse(dict(enumerate(row)) for row in matrix)
