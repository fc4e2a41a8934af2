import random
from fractions import Fraction

from nodaltheta.linalg import pivot_columns, primitive, rank_dense, rank_sparse


def naive_rank(matrix):
    """Textbook Gaussian elimination over Fraction, kept independent on purpose."""
    m = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    ncols = len(m[0]) if m else 0
    pivot_row = 0
    for col in range(ncols):
        found = None
        for r in range(pivot_row, len(m)):
            if m[r][col] != 0:
                found = r
                break
        if found is None:
            continue
        m[pivot_row], m[found] = m[found], m[pivot_row]
        pivot = m[pivot_row][col]
        for r in range(len(m)):
            if r != pivot_row and m[r][col] != 0:
                factor = m[r][col] / pivot
                m[r] = [a - factor * b for a, b in zip(m[r], m[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def test_identity_and_dependent_rows():
    assert rank_dense([[1, 0], [0, 1]]) == 2
    assert rank_dense([[1, 2], [2, 4]]) == 1
    assert rank_dense([[0, 0], [0, 0]]) == 0


def test_fraction_entries():
    matrix = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(1, 4), Fraction(1, 6)],
        [Fraction(3, 2), Fraction(2, 3)],
    ]
    assert rank_dense(matrix) == naive_rank(matrix)


def test_sparse_singleton_rows_count_distinct_columns():
    rows = [{3: Fraction(2)}, {3: Fraction(-5)}, {7: Fraction(1)}, {0: Fraction(4)}]
    assert rank_sparse(rows) == 3


def test_random_agreement_with_naive_elimination():
    rng = random.Random(123)
    for _ in range(60):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        matrix = []
        for _ in range(nrows):
            row = [
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if rng.random() < 0.6 else Fraction(0)
                for _ in range(ncols)
            ]
            matrix.append(row)
        assert rank_dense(matrix) == naive_rank(matrix)


def random_matrix(rng, nrows, ncols, density=0.5):
    return [
        [
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < density else Fraction(0)
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


def sparse(matrix):
    """Integer rows for `pivot_columns`, through the same `primitive` as `rank_sparse`."""
    return [primitive({j: v for j, v in enumerate(row)}) for row in matrix]


def test_pivots_below_k_count_rank_of_projection():
    rng = random.Random(7)
    for _ in range(60):
        ncols = rng.randint(1, 8)
        matrix = random_matrix(rng, rng.randint(1, 8), ncols, rng.choice([0.3, 0.6]))
        pivots = pivot_columns(sparse(matrix))
        assert pivots == sorted(set(pivots))
        for k in range(ncols + 1):
            projected = [row[:k] for row in matrix]
            assert sum(1 for c in pivots if c < k) == naive_rank(projected)


def test_rank_and_pivots_invariant_under_row_operations():
    rng = random.Random(11)
    for _ in range(40):
        nrows, ncols = rng.randint(2, 6), rng.randint(1, 7)
        matrix = random_matrix(rng, nrows, ncols)
        rank, pivots = rank_dense(matrix), pivot_columns(sparse(matrix))
        mixed = [row[:] for row in matrix]
        for _ in range(10):
            i, j = rng.sample(range(nrows), 2)
            move = rng.randrange(3)
            if move == 0:
                mixed[i], mixed[j] = mixed[j], mixed[i]
            elif move == 1:
                scale = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
                mixed[i] = [scale * v for v in mixed[i]]
            else:
                factor = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                mixed[i] = [a + factor * b for a, b in zip(mixed[i], mixed[j])]
        assert rank_dense(mixed) == rank == naive_rank(matrix)
        assert pivot_columns(sparse(mixed)) == pivots


def test_pivots_ignore_row_content():
    # pivot_columns takes integer rows as they come; a common factor in a
    # row, including one kept as a pivot, must not move the pivots
    rng = random.Random(13)
    assert pivot_columns([{0: 6, 2: 4}, {0: 9, 1: 3, 2: 6}, {1: 10}]) == [0, 1]
    for _ in range(40):
        matrix = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 7))
        rows = sparse(matrix)
        factors = [rng.choice([-6, 2, 3, 10]) for _ in rows]
        scaled = [{c: k * v for c, v in row.items()} for k, row in zip(factors, rows)]
        assert pivot_columns(scaled) == pivot_columns(rows)
