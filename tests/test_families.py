import random
from dataclasses import replace
from fractions import Fraction

import pytest

from nodaltheta.curve import (
    RationalNodalCurve,
    SheafFamily,
    TFSheaf,
    _draw_points,
    _gluing_rows,
    cohomology,
    constant_family,
    family_cohomology,
    family_contact,
    make_minimal_family,
    random_gluing_family,
    theta_invariants,
    verify_theorem_A,
)
from nodaltheta import smith
from nodaltheta.errors import IndeterminateAtTruncation, PreconditionError, VerificationError
from nodaltheta.linalg import rank_dense
from nodaltheta.parsing import parse_series
from nodaltheta.series import PowerSeries, invert_list, mul_lists, sub_mul
from nodaltheta.smith import (
    _integer_rows,
    diagonalize,
    kernel_basis,
    matrix_det,
    smith_exponents,
)


def curve_of(*pairs):
    return RationalNodalCurve(tuple((Fraction(p), Fraction(q)) for p, q in pairs))


def sheaf_of(nonfree, d, glue):
    return TFSheaf.make(nonfree, d, {j: Fraction(v) for j, v in glue.items()})


def tser(text, truncation=16):
    return parse_series(text, ("t",), truncation)


def tlist(text, truncation=16):
    """A series as the dense list a `SheafFamily` holds."""
    return tser(text, truncation).dense()


def series_of(coefficients, n):
    """A dense list of a family as a `PowerSeries` mod t^(n+1), for the
    oracles that compute on series."""
    return PowerSeries.univariate(dict(enumerate(coefficients[: n + 1])), n)


def int_rows(matrix):
    """A series matrix as the dense int rows `diagonalize` takes."""
    return _integer_rows(matrix)[0]


G1 = curve_of((0, 1))
TRIVIAL = sheaf_of([], 0, {0: 1})


def symmetric_point(g, n):
    """Nodes (-k, k) for k = 1..g glued by 1, the first n nodes non-free.

    A section is a polynomial of degree <= g-1-n whose odd part vanishes at
    the g-n glued k, so it is even: h0 = (g-1-n)//2 + 1, at least 2 once
    n <= g-3.
    """
    curve = curve_of(*[(-k, k) for k in range(1, g + 1)])
    return curve, sheaf_of(range(n), g - 1 - n, {j: 1 for j in range(n, g)})


def random_theta_point(rng, g, n):
    """Random integer nodes, the first n non-free, glued along an effective
    divisor of degree g-1-n at odd halves, so that the sheaf has a section
    (for n < g)."""
    points = rng.sample(range(-25, 26), 2 * g)
    curve = curve_of(*[(points[2 * i], points[2 * i + 1]) for i in range(g)])
    zeros = [Fraction(2 * rng.randrange(-50, 50) + 1, 2) for _ in range(g - 1 - n)]
    glue = {}
    for j in range(n, g):
        p, q = curve.nodes[j]
        glue[j] = Fraction(1)
        for c in zeros:
            glue[j] *= (p - c) / (q - c)
    return curve, sheaf_of(range(n), g - 1 - n, glue)


def solved(route, curve, family):
    """What a route reports: its invariants, or the bound it stopped at."""
    try:
        result = route(curve, family)
    except IndeterminateAtTruncation as exc:
        return ("indeterminate", exc.at_least)
    return (result.exponents, result.h0_rank, result.theta_order, result.precision)


class TestSmith:
    def test_diagonal_orders(self):
        matrix = [[tser("t^2"), tser("0")], [tser("0"), tser("3 + t")]]
        assert smith_exponents(matrix) == [0, 2]

    def test_mixing_needs_reduction(self):
        matrix = [[tser("t"), tser("t")], [tser("t"), tser("t + t^3")]]
        # det = t*(t + t^3) - t^2 = t^4
        assert matrix_det(matrix).order() == 4
        assert smith_exponents(matrix) == [1, 3]

    def test_all_zero_block_is_indeterminate(self):
        matrix = [[tser("t"), tser("0")], [tser("0"), tser("0")]]
        with pytest.raises(IndeterminateAtTruncation):
            smith_exponents(matrix)

    def test_exponents_can_sum_past_the_truncation(self):
        # the t^3 entries never meet, so Smith keeps both at truncation 4,
        # but the determinant t^6 vanishes mod t^5: not resolved there
        matrix = [[tser("t^3", 4), tser("0", 4)], [tser("0", 4), tser("t^3", 4)]]
        assert smith_exponents(matrix) == [3, 3]
        assert matrix_det(matrix).is_zero()
        with pytest.raises(IndeterminateAtTruncation) as info:
            diagonalize(int_rows(matrix), 4)
        assert info.value.truncation == 4
        resolved = [[tser("t^3", 6), tser("0", 6)], [tser("0", 6), tser("t^3", 6)]]
        assert diagonalize(int_rows(resolved), 6) == ((3, 3), 2)

    def test_rows_off_the_pivot_column_keep_their_truncation(self):
        # the pivot t touches no other row, so t^4 stays known mod t^5 and
        # Smith resolves; the exponents sum past 4, so diagonalize does not
        matrix = [[tser("t", 4), tser("t", 4)], [tser("0", 4), tser("t^4", 4)]]
        assert smith_exponents(matrix) == [1, 4]
        with pytest.raises(IndeterminateAtTruncation):
            diagonalize(int_rows(matrix), 4)

    def test_diagonalize_reports_corank_at_zero(self):
        matrix = [[tser("t", 8), tser("t", 8)], [tser("t", 8), tser("t + t^3", 8)]]
        assert diagonalize(int_rows(matrix), 8) == ((1, 3), 2)
        assert diagonalize(int_rows([[tser("2 + t", 8)]]), 8) == ((0,), 0)
        assert diagonalize([], 8) == ((), 0)

    def test_diagonalize_rejects_exponents_it_cannot_confirm(self, monkeypatch):
        # a Smith reduction that reports a wrong order is caught by the
        # determinant's t-order, and a wrong split of it by the corank at 0
        matrix = int_rows([[tser("t", 8), tser("t", 8)], [tser("t", 8), tser("t + t^3", 8)]])
        monkeypatch.setattr(smith, "_exponents", lambda work: [1, 2])
        with pytest.raises(VerificationError, match="det has order 4"):
            diagonalize(matrix, 8)
        monkeypatch.setattr(smith, "_exponents", lambda work: [0, 4])
        with pytest.raises(VerificationError, match="corank"):
            diagonalize(matrix, 8)

    def test_kernel_basis_claims_no_more_than_its_entries_know(self):
        # 1/(1+t) is known mod t^3 only, so the kernel vector is too
        basis = kernel_basis([[tser("1 + t", 2), tser("t", 8)]], 2, 8)
        assert basis == [[tser("-t + t^2", 2), tser("1", 8)]]
        with pytest.raises(VerificationError):
            kernel_basis([[tser("t", 4), tser("t^2", 4)]], 2, 4)

    def test_exponent_sum_matches_determinant_order(self):
        rng = random.Random(51)
        for _ in range(40):
            size = rng.randint(1, 3)
            matrix = [
                [
                    PowerSeries.univariate(
                        {d: rng.randint(-3, 3) for d in range(rng.randint(0, 3), 5)},
                        12,
                    )
                    for _ in range(size)
                ]
                for _ in range(size)
            ]
            det = matrix_det(matrix)
            if det.is_zero():
                continue
            assert sum(smith_exponents(matrix)) == det.order()


class TestSmithUnimodularInvariance:
    """Smith exponents are invariants of the cokernel: random unimodular
    row and column operations over Q[t] must not move them."""

    @staticmethod
    def _polynomial(rng, truncation, low=0):
        return PowerSeries.univariate(
            {d: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for d in range(low, 4)},
            truncation,
        )

    def _unit(self, rng, truncation):
        constant = PowerSeries.constant(("t",), rng.choice([-2, -1, 1, 3]), truncation)
        return constant + self._polynomial(rng, truncation, low=1)

    def _operate(self, rng, matrix, truncation):
        """One elementary operation on rows, or on columns via the transpose."""
        on_columns = rng.random() < 0.5
        work = [list(col) for col in zip(*matrix)] if on_columns else [list(r) for r in matrix]
        size = len(work)
        kind = rng.choice(["add", "swap", "scale"]) if size > 1 else "scale"
        if kind == "scale":
            i = rng.randrange(size)
            unit = self._unit(rng, truncation)
            work[i] = [unit * entry for entry in work[i]]
        else:
            i, j = rng.sample(range(size), 2)
            if kind == "swap":
                work[i], work[j] = work[j], work[i]
            else:
                factor = self._polynomial(rng, truncation)
                work[i] = [a + factor * b for a, b in zip(work[i], work[j])]
        return [list(col) for col in zip(*work)] if on_columns else work

    def test_exponents_survive_unimodular_operations(self):
        rng = random.Random(61)
        truncation = 14
        shapes = [(1, 1), (2, 2), (3, 3), (4, 4), (2, 3), (3, 2), (1, 4)]
        for trial in range(84):
            nrows, ncols = shapes[trial % len(shapes)]
            exponents = sorted(rng.randint(0, 3) for _ in range(min(nrows, ncols)))
            matrix = [
                [
                    PowerSeries.univariate({exponents[i]: 1} if i == j else {}, truncation)
                    for j in range(ncols)
                ]
                for i in range(nrows)
            ]
            for _ in range(rng.randint(1, 8)):
                matrix = self._operate(rng, matrix, truncation)
                assert smith_exponents(matrix) == exponents
                if nrows == ncols:
                    assert matrix_det(matrix).order() == sum(exponents)


def unit_inverse_smith(matrix):
    """Smith exponents by elimination over Q with inverted pivots, as computed
    before the fraction-free update, kept as an oracle: a pivot t^nu u
    clears its column by r <- r - (a / t^nu) u^-1 r_pivot.  Returns the
    exponents, or the truncation at which they became undetermined."""
    work = [[entry.dense() for entry in row] for row in matrix]
    exponents = []
    while work and work[0]:
        orders = [
            (next(d for d, c in enumerate(entry) if c), i, j)
            for i, row in enumerate(work)
            for j, entry in enumerate(row)
            if any(entry)
        ]
        if not orders:
            return ("indeterminate", min(len(e) for row in work for e in row) - 1)
        nu, bi, bj = min(orders)
        pivot_row = work.pop(bi)
        inverse = invert_list(pivot_row.pop(bj)[nu:])
        for i, row in enumerate(work):
            entry = row.pop(bj)
            if any(entry):
                quotient = mul_lists(entry[nu:], inverse, min(len(entry) - nu, len(inverse)) - 1)
                work[i] = [sub_mul(a, quotient, b) for a, b in zip(row, pivot_row)]
        exponents.append(nu)
    return exponents


def smith_or_bound(matrix):
    try:
        return smith_exponents(matrix)
    except IndeterminateAtTruncation as exc:
        return ("indeterminate", exc.truncation)


class TestFractionFreeSmith:
    """The fraction-free elimination multiplies each updated row by a unit
    and clears denominators by constant row scalings; neither may move an
    exponent, a truncation or a pivot choice."""

    @staticmethod
    def _entry(rng):
        """Zero or a series of order 0-3, own truncation, denominators <= 3."""
        truncation = rng.choice([2, 4, 6, 9])
        if rng.random() < 0.2:
            return PowerSeries.zero(("t",), truncation)
        low = rng.choice([0, 1, 1, 2, 3])
        return PowerSeries.univariate(
            {
                d: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for d in range(low, truncation + 1)
            },
            truncation,
        )

    def _matrix(self, rng, nrows, ncols):
        """Random entries; every other matrix also gets a rank-one constant
        part, so that pivots of positive order are common."""
        matrix = [[self._entry(rng) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.5:
            u = [rng.randint(-2, 2) for _ in range(nrows)]
            v = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
            matrix = [
                [
                    entry + PowerSeries.constant(("t",), ui * vj - entry.constant_term(), 9)
                    for entry, vj in zip(row, v)
                ]
                for row, ui in zip(matrix, u)
            ]
        return matrix

    SHAPES = [(1, 1), (2, 2), (3, 3), (4, 4), (2, 3), (3, 2), (1, 3), (4, 2)]

    def test_matches_unit_inverse_elimination(self):
        rng = random.Random(71)
        outcomes = set()
        for trial in range(240):
            matrix = self._matrix(rng, *self.SHAPES[trial % len(self.SHAPES)])
            expected = unit_inverse_smith(matrix)
            assert smith_or_bound(matrix) == expected
            outcomes.add("indeterminate" if expected[0] == "indeterminate" else sum(expected) > 0)
        assert outcomes == {"indeterminate", True, False}

    def test_diagonalize_on_int_rows_matches_the_series_boundary(self):
        rng = random.Random(74)
        outcomes = set()
        for trial in range(200):
            size = 1 + trial % 4
            matrix = self._matrix(rng, size, size)
            truncation = min(entry.truncation for row in matrix for entry in row)
            try:
                exponents, corank = diagonalize(int_rows(matrix), truncation)
            except IndeterminateAtTruncation:
                # Smith stops short, or its exponents sum past the truncation
                bound = smith_or_bound(matrix)
                assert bound[0] == "indeterminate" or sum(bound) > truncation
                outcomes.add("indeterminate")
                continue
            assert list(exponents) == smith_exponents(matrix)
            assert matrix_det(matrix).order() == sum(exponents)
            constant = [[entry.constant_term() for entry in row] for row in matrix]
            assert corank == size - rank_dense(constant)
            outcomes.add(sum(exponents) > 0)
        assert outcomes == {"indeterminate", True, False}

    def test_row_scaling_moves_no_exponent(self):
        rng = random.Random(72)
        for trial in range(120):
            matrix = self._matrix(rng, *self.SHAPES[trial % len(self.SHAPES)])
            scales = [
                Fraction(rng.choice([-5, -2, -1, 1, 3, 7]), rng.randint(1, 6)) for _ in matrix
            ]
            scaled = [[entry.scale(s) for entry in row] for row, s in zip(matrix, scales)]
            assert smith_or_bound(scaled) == smith_or_bound(matrix)
            if len(matrix) == len(matrix[0]):
                product = Fraction(1)
                for s in scales:
                    product *= s
                assert matrix_det(scaled) == matrix_det(matrix).scale(product)

    def test_loops_run_on_ints(self):
        rng = random.Random(73)
        for trial in range(40):
            matrix = self._matrix(rng, *self.SHAPES[trial % len(self.SHAPES)])
            rows, scales = _integer_rows(matrix)
            for row, series_row, scale in zip(rows, matrix, scales):
                assert all(type(c) is int for entry in row for c in entry)
                assert [[Fraction(c, scale) for c in entry] for entry in row] == [
                    entry.dense() for entry in series_row
                ]

    @staticmethod
    def _rational_family():
        # rational nodes, a rational gluing series and a moving point whose
        # two factors q_j - m(t) and p_j - m(t) have different denominators
        curve = curve_of((Fraction(1, 2), Fraction(7, 3)), (-2, Fraction(5, 4)), (3, 4))
        sheaf = sheaf_of([], 1, {0: Fraction(2, 3), 1: -1, 2: Fraction(5, 7)})
        gluing = {
            0: [Fraction(2, 3), 0, Fraction(1, 5), 0, 0, 0, 0],
            1: [-1, 0, 0, 0, 0, 0, 0],
            2: [Fraction(5, 7), 0, 0, 0, 0, 0, 0],
        }
        moving = [[Fraction(-7, 2), Fraction(1, 3), 0, 0, 0, 0, 0]]
        return curve, SheafFamily.make(sheaf, 6, gluing, moving)

    AUX = ([], [Fraction(11, 5), Fraction(-1, 6), 9])

    def test_gluing_rows_are_integral(self):
        curve, family = self._rational_family()
        for aux in self.AUX:
            rows = _gluing_rows(curve, family, aux, 2 + len(aux), 6)
            assert all(
                type(row) is list and type(entry) is list and type(c) is int
                for row in rows for entry in row for c in entry
            )
            assert all(
                c.denominator == 1 for row in rows for entry in row for c in entry
            )

    def test_gluing_rows_are_scaled_conditions(self):
        # each int row is a nonzero constant times the row built from the
        # definition on series, so its cokernel is the family's
        curve, family = self._rational_family()
        for aux in self.AUX:
            for n in (0, 3, 6):
                rows = _gluing_rows(curve, family, aux, 2 + len(aux), n)
                expected = gluing_rows_by_series(curve, family, aux, 2 + len(aux), n)
                for row, series_row in zip(rows, expected):
                    assert [len(entry) for entry in row] == [n + 1] * len(row)
                    assert proportional(row, series_row)


def gluing_rows_by_series(curve, family, aux, ncols, n):
    """Row j of the gluing matrix from its definition, on series:
    s(p_j) prod(q_j - m(t)) - c_j lambda_j(t) prod(p_j - m(t)) s(q_j)."""
    rows = []
    for j, lam in family.gluing_series:
        p, q = curve.nodes[j]
        c = Fraction(1)
        for e in aux:
            c *= (p - e) / (q - e)
        left = PowerSeries.constant(("t",), 1, n)
        right = series_of(lam, n)
        for m in family.moving:
            c *= (q - m[0]) / (p - m[0])
            trajectory = series_of(m, n)
            left = left * (PowerSeries.constant(("t",), q, n) - trajectory)
            right = right * (PowerSeries.constant(("t",), p, n) - trajectory)
        rows.append([left.scale(p**i) - right.scale(c * q**i) for i in range(ncols)])
    return rows


def proportional(int_row, series_row):
    """Whether a dense int row is a nonzero constant times a series row."""
    pairs = [(a, b) for x, y in zip(int_row, series_row) for a, b in zip(x, y.dense())]
    ratio = next((Fraction(a, 1) / b for a, b in pairs if b), None)
    return bool(ratio) and all(a == ratio * b for a, b in pairs)


def subset_expansion_det(matrix):
    """The determinant as computed before Berkowitz's algorithm, kept as an
    oracle: expansion along rows, memoized on the set of used columns,
    O(2^n n) products.  Its sign is (-1)^(n(n-1)/2) times the true one."""
    n = len(matrix)
    template = matrix[0][0]
    zero = PowerSeries.zero(template.variables, template.truncation)
    states = {0: PowerSeries.constant(template.variables, 1, template.truncation)}
    for i in range(n):
        new_states = {}
        for mask, value in states.items():
            sign = 1
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    sign = -sign
                    continue
                entry = matrix[i][j]
                if entry.is_zero():
                    continue
                term = value * entry
                if sign < 0:
                    term = -term
                new_states[mask | bit] = new_states.get(mask | bit, zero) + term
        states = new_states
        if not states:
            return zero
    return states.get((1 << n) - 1, zero)


class TestBerkowitz:
    @staticmethod
    def _entry(rng, truncation):
        """Zero, a unit, or a zero divisor (positive order), rational coefficients."""
        kind = rng.choice(["zero", "unit", "divisor", "divisor"])
        if kind == "zero":
            return PowerSeries.zero(("t",), truncation)
        low = 0 if kind == "unit" else rng.randint(1, 3)
        coefficients = {
            d: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for d in range(low, truncation + 1)
        }
        if kind == "unit":
            coefficients[0] = Fraction(rng.choice([-3, -1, 1, 2]))
        return PowerSeries.univariate(coefficients, truncation)

    def test_matches_subset_expansion(self):
        rng = random.Random(57)
        for trial in range(120):
            n = trial % 7 + 1
            truncation = rng.randint(0, 10)
            matrix = [[self._entry(rng, truncation) for _ in range(n)] for _ in range(n)]
            sign = (-1) ** (n * (n - 1) // 2)
            assert matrix_det(matrix) == subset_expansion_det(matrix).scale(sign)

    @staticmethod
    def _permutation_matrix(perm, truncation=6):
        return [
            [PowerSeries.univariate({0: int(perm[i] == j)}, truncation) for j in range(len(perm))]
            for i in range(len(perm))
        ]

    def test_identity_has_determinant_one(self):
        for n in range(1, 9):
            identity = self._permutation_matrix(list(range(n)))
            assert matrix_det(identity) == PowerSeries.univariate({0: 1}, 6)

    def test_permutation_matrix_has_its_sign(self):
        rng = random.Random(58)
        for n in range(1, 8):
            for _ in range(5):
                perm = list(range(n))
                rng.shuffle(perm)
                inversions = sum(
                    perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)
                )
                sign = (-1) ** inversions
                assert matrix_det(self._permutation_matrix(perm)) == PowerSeries.univariate(
                    {0: sign}, 6
                )

    def test_zero_divisors_on_the_diagonal(self):
        # no pivot is a unit: det [[t, 1], [1, t]] = t^2 - 1
        matrix = [[tser("t", 4), tser("1", 4)], [tser("1", 4), tser("t", 4)]]
        assert matrix_det(matrix) == tser("t^2 - 1", 4)


class TestFamilyCohomology:
    def test_hand_derived_unit_gluing_family(self):
        # lambda(t) = 1 + t on the one-node curve, auxiliary point z = 2:
        # sections (a + b z)/(z - 2) with a = -b(2 + 2t)/(1 + 2t) force the
        # evaluation at z = 2 to have t-order exactly 1.
        family = SheafFamily.make(TRIVIAL, 16, {0: tlist("1 + t")})
        result = family_cohomology(G1, family, aux_points=[Fraction(2)])
        assert result.theta_order == 1
        assert result.exponents == (1,)
        assert result.h0_rank == 1

    def test_constant_family_is_indeterminate(self):
        with pytest.raises(IndeterminateAtTruncation):
            family_cohomology(G1, constant_family(TRIVIAL, 16), seed=0)

    def test_seeded_aux_draw_matches_pinned_order(self):
        family = SheafFamily.make(TRIVIAL, 16, {0: tlist("1 + t")})
        result = family_cohomology(G1, family, seed=5)
        assert result.theta_order == 1

    def test_off_theta_constant_family_has_order_zero(self):
        off = sheaf_of([], 0, {0: 2})
        family = constant_family(off, 16)
        result = family_cohomology(G1, family, seed=0)
        assert result.theta_order == 0
        assert result.h0_rank == 0

    def test_boundary_only_sheaf_off_theta(self):
        boundary = sheaf_of([0], -1, {})
        result = family_cohomology(G1, constant_family(boundary, 16), seed=0)
        assert result.theta_order == 0

    def test_drawn_auxiliary_divisor_leaves_no_first_cohomology(self):
        # At t = 0 the twisted sheaf has degree 2g-1-n on a partial
        # normalization of genus g-n, above 2(g-n)-2: its g-n gluing
        # conditions have full row rank for every E, so E is drawn once.
        rng = random.Random(62)
        nonzero = [c for c in range(-9, 10) if c]
        for g in range(1, 7):
            for n in range(g + 1):
                for _ in range(10):
                    curve, theta_sheaf = random_theta_point(rng, g, n)
                    glue = {j: Fraction(rng.choice(nonzero)) for j in range(n, g)}
                    for sheaf in (theta_sheaf, sheaf_of(range(n), g - 1 - n, glue)):
                        seed = rng.randrange(10**6)
                        minimal = make_minimal_family(curve, sheaf, 16, seed=seed)
                        gluing = random_gluing_family(sheaf, 16, rng)
                        both = SheafFamily.make(
                            sheaf, 16, dict(gluing.gluing_series), minimal.moving
                        )
                        for family in (minimal, gluing, both):
                            avoid = {m[0] for m in family.moving}
                            avoid |= set(curve.node_points())
                            aux = _draw_points(random.Random(seed), avoid, g)
                            ncols = sheaf.line_degree + g + 1
                            rows = _gluing_rows(curve, family, aux, ncols, 0)
                            constant = [[entry[0] for entry in row] for row in rows]
                            assert len(constant) == g - n
                            assert rank_dense(constant) == g - n, (curve, sheaf, aux)
        # that is the divisor `family_cohomology` draws from the seed
        curve, sheaf = symmetric_point(5, 1)
        family = make_minimal_family(curve, sheaf, 16, seed=3)
        avoid = set(curve.node_points()) | {m[0] for m in family.moving}
        drawn = family_cohomology(curve, family, seed=4).aux_points
        assert drawn == tuple(_draw_points(random.Random(4), avoid, 5))

    def test_moving_twist_family(self):
        sheaf = sheaf_of([0], 0, {1: 1})
        curve = curve_of((0, 1), (2, 3))
        moving = tlist("7 + t")
        gluing = {1: tlist("1")}
        family = SheafFamily.make(sheaf, 16, gluing, (moving,))
        result = family_cohomology(curve, family, seed=0)
        assert result.theta_order >= 1


class TestMinimalFamily:
    def test_trivial_bundle_order_one(self):
        family = make_minimal_family(G1, TRIVIAL, 16, seed=0)
        assert len(family.moving) == 1
        result = family_cohomology(G1, family, seed=1)
        assert result.theta_order == 1

    def test_boundary_sheaf_order_one(self):
        curve = curve_of((0, 1), (2, 3))
        sheaf = sheaf_of([0], 0, {1: 1})
        family = make_minimal_family(curve, sheaf, 16, seed=0)
        result = family_cohomology(curve, family, seed=1)
        assert result.theta_order == 1

    def test_h0_two_gives_order_two(self):
        curve = curve_of((0, 4), (1, 3), (-1, 5))
        sheaf = sheaf_of([], 2, {0: 1, 1: 1, 2: 1})
        assert cohomology(curve, sheaf)[0] == 2
        family = make_minimal_family(curve, sheaf, 16, seed=0)
        assert len(family.moving) == 2
        result = family_cohomology(curve, family, seed=1)
        assert result.theta_order == 2

    def test_off_theta_returns_constant_family(self):
        off = sheaf_of([], 0, {0: 2})
        family = make_minimal_family(G1, off, 16, seed=0)
        assert not family.moving
        assert family_cohomology(G1, family, seed=0).theta_order == 0

    def test_attainment_over_random_sheaves(self):
        rng = random.Random(52)
        checked = 0
        for _ in range(60):
            g = rng.randint(1, 4)
            points = rng.sample(range(-25, 26), 2 * g)
            curve = curve_of(*[(points[2 * i], points[2 * i + 1]) for i in range(g)])
            size = rng.randint(0, g - 1)
            nonfree = rng.sample(range(g), size)
            # effective-divisor gluing guarantees a section
            zeros = []
            pool = [Fraction(v) for v in range(26, 60)]
            for _ in range(g - 1 - size):
                zeros.append(pool[rng.randrange(len(pool))])
            glue = {}
            for j in range(g):
                if j in nonfree:
                    continue
                p, q = curve.nodes[j]
                lam = Fraction(1)
                for c in zeros:
                    lam *= (p - c) / (q - c)
                glue[j] = lam
            sheaf = sheaf_of(nonfree, g - 1 - size, glue)
            h0_value, h1_value = cohomology(curve, sheaf)
            if h0_value < 1:
                continue
            family = make_minimal_family(curve, sheaf, 16, seed=checked)
            result = family_cohomology(curve, family, seed=checked + 1)
            assert result.theta_order == h1_value
            checked += 1
        assert checked >= 50


class TestLowerBound:
    def test_random_gluing_families_respect_h1(self):
        rng = random.Random(53)
        curve = curve_of((0, 1), (2, 3))
        sheaf = sheaf_of([0], 0, {1: 1})
        h0_value, h1_value = cohomology(curve, sheaf)
        for k in range(6):
            family = random_gluing_family(sheaf, 16, rng)
            try:
                result = family_cohomology(curve, family, seed=k)
            except IndeterminateAtTruncation:
                continue
            assert result.theta_order >= h0_value
            # corank of the evaluation matrix at t=0 recomputes h1 of the fiber
            assert result.h0_rank == h1_value

    def test_draw_without_motion_still_moves(self):
        # a draw whose degree 1-3 coefficients are all 0 would be the constant
        # family, which lies in theta; the fallback moves the first scalar
        class ZeroDraws:
            def randint(self, low, high):
                return 0

        cases = [(G1, TRIVIAL), (curve_of((0, 1), (2, 3)), sheaf_of([], 1, {0: 1, 1: 1}))]
        for curve, sheaf in cases:
            h0_value = cohomology(curve, sheaf)[0]
            assert h0_value >= 1
            with pytest.raises(IndeterminateAtTruncation):
                family_contact(curve, constant_family(sheaf, 16))
            family = random_gluing_family(sheaf, 16, ZeroDraws())
            assert h0_value <= family_contact(curve, family).theta_order <= 16

    def test_fiber_corank_recovers_h1_across_genera(self):
        rng = random.Random(54)
        for g in (1, 2, 3):
            points = rng.sample(range(-20, 21), 2 * g)
            curve = curve_of(*[(points[2 * i], points[2 * i + 1]) for i in range(g)])
            glue = {j: Fraction(1) for j in range(g)}
            sheaf = sheaf_of([], g - 1, glue)
            _, h1_value = cohomology(curve, sheaf)
            family = random_gluing_family(sheaf, 16, rng)
            try:
                result = family_cohomology(curve, family, seed=g)
            except IndeterminateAtTruncation:
                continue
            assert result.h0_rank == h1_value


def _toeplitz_block(series, n):
    """Matrix of multiplication by a series on Q[t]/(t^(n+1)) in the t-power basis."""
    coeffs = [Fraction(0)] * (n + 1)
    for e, c in series.coefficients.items():
        if e[0] <= n:
            coeffs[e[0]] = c
    return [[coeffs[i - j] if i >= j else Fraction(0) for j in range(n + 1)] for i in range(n + 1)]


def _cokernel_dimension_oracle(matrix, n):
    """dim_k of the cokernel of a series matrix, by flattening to one big
    rational matrix and running plain Gaussian elimination; independent of
    the Smith-reduction route."""
    from nodaltheta.linalg import rank_dense

    size = len(matrix)
    big = [[Fraction(0)] * (size * (n + 1)) for _ in range(size * (n + 1))]
    for r in range(size):
        for c in range(size):
            block = _toeplitz_block(matrix[r][c], n)
            for i in range(n + 1):
                for j in range(n + 1):
                    big[r * (n + 1) + i][c * (n + 1) + j] = block[i][j]
    return size * (n + 1) - rank_dense(big)


class TestCokernelOracle:
    def _cases(self):
        rng = random.Random(55)
        for g in (1, 2, 3):
            points = rng.sample(range(-20, 21), 2 * g)
            curve = curve_of(*[(points[2 * i], points[2 * i + 1]) for i in range(g)])
            glue = {j: Fraction(1) for j in range(g)}
            yield curve, sheaf_of([], g - 1, glue)
        # symmetric nodes: two independent sections, contact order 2
        curve = curve_of((0, 4), (1, 3), (-1, 5))
        yield curve, sheaf_of([], 2, {0: 1, 1: 1, 2: 1})

    def test_smith_orders_match_flattened_cokernel(self):
        n = 8
        orders_seen = set()
        for index, (curve, sheaf) in enumerate(self._cases()):
            g = curve.genus
            family = make_minimal_family(curve, sheaf, n, seed=index + 1)
            result = family_cohomology(curve, family, seed=index + 11)
            orders_seen.add(result.theta_order)

            # rebuild the evaluation matrix by hand at the same auxiliary
            # points, then measure its cokernel as a plain Q-vector space
            from nodaltheta.smith import kernel_basis

            d = sheaf.line_degree
            ncols = d + g + 1
            rows = []
            for j, lam in sheaf.gluing:
                p, q = curve.nodes[j]
                scalar = Fraction(1)
                for m in family.moving:
                    scalar *= (q - m[0]) / (p - m[0])
                for e in result.aux_points:
                    scalar *= (p - e) / (q - e)
                numerator = PowerSeries.constant(("t",), 1, n)
                denominator = PowerSeries.constant(("t",), 1, n)
                for m in family.moving:
                    pc = PowerSeries.univariate({0: p}, n)
                    qc = PowerSeries.univariate({0: q}, n)
                    numerator = numerator * (pc - series_of(m, n))
                    denominator = denominator * (qc - series_of(m, n))
                twisted = (
                    PowerSeries.univariate({0: lam}, n)
                    * numerator
                    * denominator.invert_unit()
                ).scale(scalar)
                rows.append(
                    [
                        PowerSeries.univariate({0: p**i}, n) - twisted.scale(q**i)
                        for i in range(ncols)
                    ]
                )
            sections = kernel_basis(rows, ncols, n)
            phi = []
            for e in result.aux_points:
                phi.append(
                    [
                        sum(
                            (s[i].scale(e**i) for i in range(ncols)),
                            PowerSeries.zero(("t",), n),
                        )
                        for s in sections
                    ]
                )
            assert _cokernel_dimension_oracle(phi, n) == result.theta_order
        assert 2 in orders_seen


class TestPrecisionLadder:
    """Reparametrizing t -> t^k multiplies every elementary divisor by k.

    Replacing each trajectory b + v*t of a minimal family by b + v*t^k gives
    contact orders k*h0 = 1..16, so every working truncation 1, 2, 4, 8, 16
    of the ladder is the one that resolves some family.
    """

    CASES = [
        (((0, 1), (2, 3)), ([0], 0, {1: 1})),  # h0 = 1
        (((0, 4), (1, 3), (-1, 5)), ([], 2, {0: 1, 1: 1, 2: 1})),  # h0 = 2
    ]

    @staticmethod
    def _reparametrized(family, k):
        moving = [
            PowerSeries.univariate({0: m[0], k: m[1]}, family.truncation).dense()
            for m in family.moving
        ]
        return SheafFamily.make(
            family.sheaf, family.truncation, dict(family.gluing_series), moving
        )

    ROUTES = {
        "auxiliary": lambda curve, family: family_cohomology(curve, family, seed=1),
        "direct": family_contact,
    }

    def _check_orders_scale(self, route, nodes, data):
        solve = self.ROUTES[route]
        curve = curve_of(*nodes)
        sheaf = sheaf_of(*data)
        h0_value = cohomology(curve, sheaf)[0]
        family = make_minimal_family(curve, sheaf, 16, seed=0)
        base = solve(curve, family)
        assert base.theta_order == h0_value
        for k in range(1, 9):
            result = solve(curve, self._reparametrized(family, k))
            assert result.theta_order == k * h0_value
            assert result.exponents == tuple(k * e for e in base.exponents)
            assert result.aux_points == base.aux_points
            # the first rung at or above the contact order resolves, so
            # contact orders up to 8 never reach the requested N = 16
            assert result.precision == min(w for w in (1, 2, 4, 8, 16) if w >= k * h0_value)

    def _check_indeterminate_at_n(self, route, nodes, data):
        curve = curve_of(*nodes)
        sheaf = sheaf_of(*data)
        h0_value = cohomology(curve, sheaf)[0]
        family = make_minimal_family(curve, sheaf, 16, seed=0)
        k = 16 // h0_value + 1
        with pytest.raises(IndeterminateAtTruncation) as info:
            self.ROUTES[route](curve, self._reparametrized(family, k))
        assert info.value.truncation == 16
        assert info.value.at_least == 17

    @pytest.mark.parametrize("nodes,data", CASES)
    def test_orders_scale_across_every_rung(self, nodes, data):
        self._check_orders_scale("auxiliary", nodes, data)

    @pytest.mark.parametrize("nodes,data", CASES)
    def test_indeterminate_only_at_requested_truncation(self, nodes, data):
        self._check_indeterminate_at_n("auxiliary", nodes, data)

    @pytest.mark.parametrize("nodes,data", CASES)
    def test_direct_route_orders_scale_across_every_rung(self, nodes, data):
        self._check_orders_scale("direct", nodes, data)

    @pytest.mark.parametrize("nodes,data", CASES)
    def test_direct_route_indeterminate_only_at_requested_truncation(self, nodes, data):
        # Smith's own exception on the reduced block would say less than 17
        self._check_indeterminate_at_n("direct", nodes, data)


class TestRoutesAgree:
    """`family_contact` (square gluing matrix) against `family_cohomology`
    (auxiliary divisor): equal exponents, h0_rank, contact and resolving
    rung, or the same bound when both vanish to truncation."""

    @staticmethod
    def _families(curve, sheaf, rng, seed):
        minimal = make_minimal_family(curve, sheaf, 16, seed=seed)
        gluing = random_gluing_family(sheaf, 16, rng)
        yield minimal
        yield gluing
        yield random_gluing_family(sheaf, 8, rng)
        # higher rungs, and past N when k * h0 > 16
        yield TestPrecisionLadder._reparametrized(minimal, rng.randint(2, 9))
        # gluing scalars and twist points moving together
        yield SheafFamily.make(sheaf, 16, dict(gluing.gluing_series), minimal.moving)

    def _check(self, curve, sheaf, rng, seed):
        for family in self._families(curve, sheaf, rng, seed):
            direct = solved(family_contact, curve, family)
            oracle = solved(
                lambda c, f: family_cohomology(c, f, seed=seed + 1), curve, family
            )
            assert direct == oracle
            if direct[0] != "indeterminate":
                n = sheaf.nonfree_count
                assert direct[0][:n] == (0,) * n and len(direct[0]) == curve.genus

    def test_random_theta_points_every_nonfree_count(self):
        rng = random.Random(59)
        for g in range(1, 7):
            for n in range(g + 1):
                curve, sheaf = random_theta_point(rng, g, n)
                self._check(curve, sheaf, rng, seed=10 * g + n)

    def test_nonfree_points_with_two_or_more_sections(self):
        rng = random.Random(60)
        for g in range(4, 7):
            for n in range(1, g - 2):
                curve, sheaf = symmetric_point(g, n)
                assert cohomology(curve, sheaf)[0] >= 2
                self._check(curve, sheaf, rng, seed=g + n)

    def test_no_conditions_left(self):
        # every node non-free: the gluing matrix is 0 x 0, contact 0
        curve, sheaf = random_theta_point(random.Random(61), 3, 3)
        result = family_contact(curve, constant_family(sheaf, 16))
        assert (result.exponents, result.theta_order, result.h0_rank) == ((0, 0, 0), 0, 0)
        assert solved(family_contact, curve, constant_family(sheaf, 16)) == solved(
            family_cohomology, curve, constant_family(sheaf, 16)
        )


class TestVerifyTheoremA:
    def test_boundary_case(self):
        curve = curve_of((0, 1), (2, 3))
        report = verify_theorem_A(curve, sheaf_of([0], 0, {1: 1}), 16, seed=0)
        assert report.theta.mult_theta == 2
        assert report.family_order == 1

    def test_w1_case(self):
        curve = curve_of((0, 4), (1, 3), (-1, 5))
        report = verify_theorem_A(curve, sheaf_of([], 2, {0: 1, 1: 1, 2: 1}), 16, seed=0)
        assert report.theta.h0 == 2
        assert report.family_order == 2
        assert report.theta.mult_theta == 2

    def test_minimal_family_corank_must_equal_h0(self, monkeypatch):
        # exponents (0, 0, 2) still sum to h0 = 2, but only one section of
        # the fiber at t = 0 survives: contact alone would pass
        import nodaltheta.curve as curve_module

        def one_double_exponent(curve, family):
            return replace(family_contact(curve, family), exponents=(0, 0, 2), h0_rank=1)

        monkeypatch.setattr(curve_module, "family_contact", one_double_exponent)
        curve = curve_of((0, 4), (1, 3), (-1, 5))
        with pytest.raises(VerificationError, match="corank 1"):
            verify_theorem_A(curve, sheaf_of([], 2, {0: 1, 1: 1, 2: 1}), 16, seed=0)

    def test_cohomology_of_the_point_computed_once(self, monkeypatch):
        import nodaltheta.curve as curve_module

        seen = []
        original = curve_module.cohomology

        def counting(curve, sheaf):
            seen.append(sheaf)
            return original(curve, sheaf)

        monkeypatch.setattr(curve_module, "cohomology", counting)
        curve, sheaf = symmetric_point(6, 1)
        report = verify_theorem_A(curve, sheaf, 16, seed=3)
        expected = replace(theta_invariants(curve, sheaf), exponents=report.theta.exponents)
        assert report.theta == expected
        # once in verify_theorem_A, once in theta_invariants above; the rest are twists
        assert seen.count(sheaf) == 2

    @pytest.mark.parametrize("g,n", [(4, 1), (5, 1), (5, 2), (6, 1), (6, 3), (7, 2), (7, 4)])
    def test_nonfree_points_with_two_or_more_sections(self, g, n):
        curve, sheaf = symmetric_point(g, n)
        h0_value = (g - 1 - n) // 2 + 1
        report = verify_theorem_A(curve, sheaf, 16, seed=g)
        assert report.theta.h0 == h0_value >= 2
        assert report.family_order == h0_value
        assert report.theta.mult_theta == 2**n * h0_value
        exponents = report.theta.exponents
        assert len(exponents) == g and exponents[:n] == (0,) * n
        assert sum(exponents) == h0_value
        assert all(o == "indeterminate" or o >= h0_value for o in report.random_family_orders)

    def test_off_theta_rejected(self):
        with pytest.raises(PreconditionError):
            verify_theorem_A(G1, sheaf_of([], 0, {0: 2}), 16, seed=0)

    def test_truncation_below_h0_rejected(self):
        # the minimal family has contact h0, which N < h0 cannot resolve
        curve, sheaf = symmetric_point(5, 0)
        with pytest.raises(PreconditionError) as info:
            verify_theorem_A(curve, sheaf, 2, seed=0)
        assert info.value.name == "truncation"
        assert verify_theorem_A(curve, sheaf, 3, seed=0).family_order == 3

    def test_negative_random_family_count_rejected(self):
        curve, sheaf = symmetric_point(4, 0)
        with pytest.raises(PreconditionError) as info:
            verify_theorem_A(curve, sheaf, 16, seed=0, random_families=-1)
        assert info.value.name == "families"
        report = verify_theorem_A(curve, sheaf, 16, seed=0, random_families=0)
        assert report.random_family_orders == ()


class TestFamilyValidation:
    def test_gluing_series_must_start_at_base(self):
        with pytest.raises(PreconditionError):
            SheafFamily.make(TRIVIAL, 16, {0: tlist("2 + t")}).validate_for(G1)

    def test_moving_point_cannot_sit_on_node(self):
        family = SheafFamily.make(TRIVIAL, 16, {0: tlist("1")}, (tlist("t"),))
        with pytest.raises(PreconditionError):
            family.validate_for(G1)

    def test_negative_truncation_refused(self):
        with pytest.raises(PreconditionError, match="truncation must be >= 0") as info:
            SheafFamily.make(TRIVIAL, -1, {0: [1]})
        assert info.value.name == "truncation"

    @pytest.mark.parametrize(
        "gluing, moving, message",
        [
            ({0: [1, 1]}, (), "gluing series at node 0 known below truncation"),
            ({0: tlist("1")}, ([7, 1],), "trajectory known below truncation"),
            ({0: tlist("1")}, (tlist("7 + t"), tlist("7 + t^2")), "must be distinct"),
        ],
    )
    def test_lists_shorter_than_the_truncation_or_repeated_bases_refused(
        self, gluing, moving, message
    ):
        family = SheafFamily.make(TRIVIAL, 16, gluing, moving)
        with pytest.raises(PreconditionError, match=message):
            family.validate_for(G1)
