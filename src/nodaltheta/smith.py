"""Linear algebra over the truncated valuation ring Q[t]/(t^(N+1)).

Matrices are lists of rows of dense entries (`series`): the curve builds
them with int coefficients (`IntRows`) and hands them to `diagonalize` and
`dense_kernel` as they are.  `smith_exponents`, `matrix_det` and
`kernel_basis` take matrices of `PowerSeries`, convert each entry once
(`_integer_rows` scales each row to ints) and run the same cores.  Smith
reduction pivots on an entry of minimal t-order, which divides every
remaining entry, eliminates fraction-free as Bareiss does (no pivot is
inverted), and shrinks the block to its Schur complement, where only the
rows a pivot updates lose precision.  The sum of the elementary divisor
exponents equals the t-order of the determinant whenever the determinant
does not vanish to truncation; `diagonalize` checks one against the other,
with the determinant computed by Berkowitz's division-free algorithm.
The kernel pivots on units and inverts them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from typing import List, Tuple

from .errors import IndeterminateAtTruncation, PreconditionError, VerificationError
from .linalg import rank_dense
from .series import PowerSeries, clear_denominators, invert_list, mul_lists, sub_mul

Matrix = List[List[PowerSeries]]  # the series boundary
IntRows = List[List[List[int]]]  # dense int entries, the curve-side matrix type


def _integer_rows(matrix: Matrix) -> Tuple[IntRows, List[int]]:
    """Each row's dense entries scaled to ints (`clear_denominators`), and
    the scales."""
    pairs = [clear_denominators([entry.dense() for entry in row]) for row in matrix]
    return [row for row, _ in pairs], [scale for _, scale in pairs]


def _without_content(row: List[list]) -> List[list]:
    """A row of dense int entries divided by the gcd of all its coefficients."""
    g = 0
    for entry in row:
        g = gcd(g, *entry)
    return [[c // g for c in entry] for entry in row] if g > 1 else row


def _series(coefficients: list, var: str = "t") -> PowerSeries:
    return PowerSeries.univariate(dict(enumerate(coefficients)), len(coefficients) - 1, var)


def _order(coefficients: list):
    """Degree of the first nonzero coefficient; None if zero to truncation."""
    return next((d for d, c in enumerate(coefficients) if c), None)


def _mul(a: list, b: list) -> list:
    return mul_lists(a, b, min(len(a), len(b)) - 1)


def _dot(xs: List[list], ys: List[list], n: int) -> list:
    total = [0] * (n + 1)
    for x, y in zip(xs, ys):
        total = [s + p for s, p in zip(total, _mul(x, y))]
    return total


def _det(rows: IntRows) -> list:
    """Determinant of square int rows by Berkowitz's division-free algorithm
    (IPL 18, 1984), known to the lowest truncation among the entries.

    The characteristic polynomial det(x I - A) is built over the trailing
    principal submatrices, one row and column at a time: for a block
    [[a, R], [C, B]] with B of size m - 1, the lower triangular Toeplitz
    matrix with first column 1, -a, -R C, -R B C, ..., -R B^(m-2) C maps the
    coefficients of B's polynomial to the block's.  That is O(n^4) ring
    operations with no division and no pivoting, so it holds over
    Q[t]/(t^(N+1)), zero divisors included, independently of Smith reduction.
    """
    n = len(rows)
    if n == 0:
        raise PreconditionError("matrix", "empty matrix has no determinant here")
    if any(len(row) != n for row in rows):
        raise PreconditionError("matrix", "determinant needs a square matrix")
    w = min(len(entry) for row in rows for entry in row) - 1
    work = [[entry[: w + 1] for entry in row] for row in rows]
    one = [1] + [0] * w
    poly = [one]
    for k in range(n - 1, -1, -1):
        row = work[k][k + 1:]
        block = [r[k + 1:] for r in work[k + 1:]]
        toeplitz = [one, [-c for c in work[k][k]]]
        vector = [r[k] for r in work[k + 1:]]
        for j in range(len(block)):
            if j:
                vector = [_dot(r, vector, w) for r in block]
            toeplitz.append([-c for c in _dot(row, vector, w)])
        poly = [_dot(toeplitz[i::-1], poly[: i + 1], w) for i in range(len(poly) + 1)]
    return poly[n] if n % 2 == 0 else [-c for c in poly[n]]


def matrix_det(matrix: Matrix) -> PowerSeries:
    """Determinant of a square series matrix: `_det` on its integer rows,
    divided once by the product of their scales."""
    work, scales = _integer_rows(matrix)
    scale = prod(scales)
    return _series([Fraction(c, scale) for c in _det(work)], matrix[0][0].variables[0])


def dense_kernel(rows: List[List[list]], ncols: int, truncation: int) -> List[List[list]]:
    """Free basis of the kernel of dense rows whose reduction at t=0 has full row rank.

    Row-reduce with unit pivots (every pivot has nonzero constant term, so
    inversion loses no precision); the kernel is then free of rank
    ncols - nrows with one basis vector per non-pivot column, whose own
    entry is 1 mod t^(truncation+1).  Raises if the constant matrix is
    row-rank deficient.  A matrix with no rows has the full space as kernel.
    """
    work, nrows = list(rows), len(rows)
    pivot_cols: List[int] = []
    for i in range(nrows):
        pivot_col = None
        for j in range(ncols):
            if j in pivot_cols:
                continue
            pivot_row = next((r for r in range(i, nrows) if work[r][j][0]), None)
            if pivot_row is not None:
                pivot_col = j
                work[i], work[pivot_row] = work[pivot_row], work[i]
                break
        if pivot_col is None:
            raise VerificationError(
                "condition matrix is rank deficient at t=0; "
                "first cohomology of the twisted family does not vanish"
            )
        inverse = invert_list(work[i][pivot_col])
        work[i] = [_mul(entry, inverse) for entry in work[i]]
        for r in range(nrows):
            factor = work[r][pivot_col]
            if r != i and any(factor):
                work[r] = [sub_mul(a, factor, b) for a, b in zip(work[r], work[i])]
        pivot_cols.append(pivot_col)

    zero = [0] * (truncation + 1)
    basis = []
    for j in range(ncols):
        if j in pivot_cols:
            continue
        vector = [zero] * ncols
        vector[j] = [1] + zero[1:]
        for i, pc in enumerate(pivot_cols):
            vector[pc] = [-c for c in work[i][j]]
        basis.append(vector)
    return basis


def kernel_basis(matrix: Matrix, ncols: int, truncation: int) -> List[List[PowerSeries]]:
    """`dense_kernel` of a series matrix, as series vectors."""
    if any(len(row) != ncols for row in matrix):
        raise PreconditionError("matrix", "ragged matrix")
    rows = [[entry.dense() for entry in row] for row in matrix]
    return [[_series(v) for v in vector] for vector in dense_kernel(rows, ncols, truncation)]


def _exponents(work: IntRows) -> List[int]:
    """Elementary divisor exponents, the t-orders of the successive pivots.

    Each step takes an entry t^nu u of least t-order (u a unit), clears its
    column without inverting u: a row r whose pivot-column entry is a
    becomes u r - (a / t^nu) r_pivot, divided by its integer content.  That
    is the inverse-based update r - (a / t^nu) u^-1 r_pivot times a unit, so
    every t-order, and with it every pivot choice, is the same.  The step
    records nu and drops the pivot's row and column: the block shrinks to
    its Schur complement.  An updated row is known nu truncation levels
    less; a row whose pivot-column entry is zero to its truncation L skips
    an O(t^(L+1)) update and keeps L.  A block that vanishes to truncation
    leaves the remaining exponents undetermined.
    """
    exponents: List[int] = []
    while work and work[0]:
        best = None
        for i, row in enumerate(work):
            for j, entry in enumerate(row):
                order = _order(entry)
                if order is not None and (best is None or order < best[0]):
                    best = (order, i, j)
        if best is None:
            raise IndeterminateAtTruncation(min(len(e) for row in work for e in row) - 1)
        nu, bi, bj = best
        pivot_row = work.pop(bi)
        unit = pivot_row.pop(bj)[nu:]
        for i, row in enumerate(work):
            entry = row.pop(bj)
            if any(entry):
                quotient = entry[nu:]
                work[i] = _without_content(
                    [sub_mul(_mul(unit, a), quotient, b) for a, b in zip(row, pivot_row)]
                )
        exponents.append(nu)
    return exponents


def smith_exponents(matrix: Matrix) -> List[int]:
    """`_exponents` of a series matrix's integer rows."""
    return _exponents(_integer_rows(matrix)[0])


def diagonalize(rows: IntRows, truncation: int) -> Tuple[Tuple[int, ...], int]:
    """Elementary divisor exponents and corank at t = 0 of a square matrix
    of dense int rows over Q[t]/(t^(truncation+1)), each computed once and
    cross-checked.

    Smith reduction runs first, on a copy of the row lists.  Its exponents
    can sum past the truncation while the determinant vanishes there
    (diag(t^3, t^3) mod t^5 gives [3, 3]), so only a sum <= truncation
    resolves; then the determinant's t-order must equal that sum, and the
    corank of the constant matrix the number of positive exponents.  A
    0 x 0 matrix has no exponents.
    """
    exponents = tuple(_exponents([list(row) for row in rows]))
    order = sum(exponents)
    if order > truncation:
        raise IndeterminateAtTruncation(truncation)
    if rows:
        det_order = _order(_det(rows))
        if order != det_order:
            raise VerificationError(
                f"elementary divisors sum to {order} but det has order {det_order}"
            )
    corank = len(rows) - rank_dense([[entry[0] for entry in row] for row in rows])
    if corank != sum(1 for e in exponents if e >= 1):
        raise VerificationError("corank at t=0 disagrees with positive exponents")
    return exponents, corank
