"""Linear algebra over the truncated valuation ring Q[t]/(t^(N+1)).

Matrices are lists of lists of univariate series.  Pivots for elimination
must be units (nonzero constant term); Smith reduction instead pivots on an
entry of minimal t-order, which divides every remaining entry, at the cost
of one truncation level per order of the pivot.  The sum of the elementary
divisor exponents equals the t-order of the determinant whenever the
determinant does not vanish to truncation; `diagonalize` checks one against
the other, with the determinant computed by Berkowitz's division-free
algorithm.
"""

from __future__ import annotations

from typing import List, Tuple

from .errors import IndeterminateAtTruncation, PreconditionError, VerificationError
from .linalg import rank_dense
from .series import INFINITE, PowerSeries

Matrix = List[List[PowerSeries]]


def constant_matrix(matrix: Matrix) -> List[List]:
    return [[entry.constant_term() for entry in row] for row in matrix]


def _dot(xs, ys, zero: PowerSeries) -> PowerSeries:
    total = zero
    for x, y in zip(xs, ys):
        if not (x.is_zero() or y.is_zero()):
            total = total + x * y
    return total


def matrix_det(matrix: Matrix) -> PowerSeries:
    """Determinant by Berkowitz's division-free algorithm (IPL 18, 1984).

    The characteristic polynomial det(x I - A) is built over the trailing
    principal submatrices, one row and column at a time: for a block
    [[a, R], [C, B]] with B of size m - 1, the lower triangular Toeplitz
    matrix with first column 1, -a, -R C, -R B C, ..., -R B^(m-2) C maps the
    coefficients of B's polynomial to the block's.  That is O(n^4) ring
    operations with no division and no pivoting, so it holds over
    Q[t]/(t^(N+1)), zero divisors included, independently of Smith reduction.
    """
    n = len(matrix)
    if n == 0:
        raise PreconditionError("matrix", "empty matrix has no determinant here")
    if any(len(row) != n for row in matrix):
        raise PreconditionError("matrix", "determinant needs a square matrix")
    template = matrix[0][0]
    zero = PowerSeries.zero(template.variables, template.truncation)
    one = PowerSeries.constant(template.variables, 1, template.truncation)
    poly = [one]
    for k in range(n - 1, -1, -1):
        row = matrix[k][k + 1:]
        block = [r[k + 1:] for r in matrix[k + 1:]]
        toeplitz = [one, -matrix[k][k]]
        vector = [r[k] for r in matrix[k + 1:]]
        for j in range(len(block)):
            if j:
                vector = [_dot(r, vector, zero) for r in block]
            toeplitz.append(-_dot(row, vector, zero))
        poly = [
            _dot(toeplitz[i::-1], poly[: i + 1], zero) for i in range(len(poly) + 1)
        ]
    return poly[n] if n % 2 == 0 else -poly[n]


def kernel_basis(matrix: Matrix, ncols: int, truncation: int) -> List[List[PowerSeries]]:
    """Free basis of the kernel of a matrix whose reduction at t=0 has full row rank.

    Row-reduce with unit pivots (every pivot has nonzero constant term, so
    inversion loses no precision); the kernel is then free of rank
    ncols - nrows with one basis vector per non-pivot column.  Raises if the
    constant matrix is row-rank deficient.  A matrix with no rows has the
    full space as kernel.
    """
    nrows = len(matrix)
    for row in matrix:
        if len(row) != ncols:
            raise PreconditionError("matrix", "ragged matrix")

    work = [list(row) for row in matrix]
    pivot_cols: List[int] = []
    for i in range(nrows):
        pivot_col = None
        for j in range(ncols):
            if j in pivot_cols:
                continue
            pivot_row = None
            for r in range(i, nrows):
                if work[r][j].constant_term() != 0:
                    pivot_row = r
                    break
            if pivot_row is not None:
                pivot_col = j
                work[i], work[pivot_row] = work[pivot_row], work[i]
                break
        if pivot_col is None:
            raise VerificationError(
                "condition matrix is rank deficient at t=0; "
                "first cohomology of the twisted family does not vanish"
            )
        inverse = work[i][pivot_col].invert_unit()
        work[i] = [entry * inverse for entry in work[i]]
        for r in range(nrows):
            if r == i:
                continue
            factor = work[r][pivot_col]
            if factor.is_zero():
                continue
            work[r] = [a - factor * b for a, b in zip(work[r], work[i])]
        pivot_cols.append(pivot_col)

    zero = PowerSeries.zero(("t",), truncation)
    one = PowerSeries.constant(("t",), 1, truncation)
    basis = []
    for j in range(ncols):
        if j in pivot_cols:
            continue
        vector = [zero] * ncols
        vector[j] = one
        for i, pc in enumerate(pivot_cols):
            vector[pc] = -work[i][j]
        basis.append(vector)
    return basis


def smith_exponents(matrix: Matrix) -> List[int]:
    """Elementary divisor exponents: diagonalize to units times t^(e_i).

    The pivot at each step is an entry of globally minimal t-order nu; after
    dividing it out, clearing its row and column only needs unit inversions.
    Entries are known one truncation level less per pivot order consumed, so
    the reduction resolves whenever the total order fits under the working
    truncation; otherwise the remaining block vanishes to truncation and the
    exponents are undetermined.
    """
    work = [list(row) for row in matrix]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    steps = min(nrows, ncols)
    exponents: List[int] = []
    for k in range(steps):
        best = None
        best_order = INFINITE
        for i in range(k, nrows):
            for j in range(k, ncols):
                order = work[i][j].order()
                if order is INFINITE:
                    continue
                if best is None or order < best_order:
                    best = (i, j)
                    best_order = order
        if best is None:
            truncation = min(
                work[i][j].truncation for i in range(k, nrows) for j in range(k, ncols)
            )
            raise IndeterminateAtTruncation(truncation)
        bi, bj = best
        work[k], work[bi] = work[bi], work[k]
        for row in work:
            row[k], row[bj] = row[bj], row[k]
        nu = best_order
        exponents.append(nu)
        pivot_unit = work[k][k].shift_down(nu)
        pivot_inverse = pivot_unit.invert_unit()
        for i in range(k + 1, nrows):
            entry = work[i][k]
            if entry.is_zero():
                continue
            quotient = entry.shift_down(nu) * pivot_inverse
            work[i] = [
                a - quotient * b for a, b in zip(work[i], work[k])
            ]
        for j in range(k + 1, ncols):
            entry = work[k][j]
            if entry.is_zero():
                continue
            quotient = entry.shift_down(nu) * pivot_inverse
            for i in range(nrows):
                work[i][j] = work[i][j] - quotient * work[i][k]
    return exponents


def diagonalize(matrix: Matrix, truncation: int) -> Tuple[Tuple[int, ...], int]:
    """Elementary divisor exponents and corank at t = 0 of a square matrix
    over Q[t]/(t^(truncation+1)), each computed once and cross-checked.

    Smith reduction runs first.  Its exponents can sum past the truncation
    while the determinant vanishes there (diag(t^3, t^3) mod t^5 gives
    [3, 3]), so only a sum <= truncation resolves; then the determinant's
    t-order must equal that sum, and the corank of the constant matrix the
    number of positive exponents.  A 0 x 0 matrix has no exponents.
    """
    exponents = tuple(smith_exponents(matrix))
    order = sum(exponents)
    if order > truncation:
        raise IndeterminateAtTruncation(truncation)
    if matrix:
        determinant = matrix_det(matrix)
        if order != determinant.order():
            raise VerificationError(
                f"elementary divisors sum to {order} but det has order "
                f"{determinant.order()}"
            )
    corank = len(matrix) - rank_dense(constant_matrix(matrix))
    if corank != sum(1 for e in exponents if e >= 1):
        raise VerificationError("corank at t=0 disagrees with positive exponents")
    return exponents, corank
