import random
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from nodaltheta.errors import PreconditionError
from nodaltheta.linalg import pivot_columns, primitive, rank_sparse
from nodaltheta.localmodel import LocalModel, reduce
from nodaltheta.multiplicity import (
    MAX_COLUMNS,
    RingSpec,
    check_eqnmat,
    hilbert_samuel,
    model_ringspec,
    mult_divisor_branchsum,
    mult_model,
)
from nodaltheta.parsing import parse_series
from nodaltheta.series import PowerSeries

XYZ = ("x", "y", "z")


def spec(variables, relations=(), divisor=None, truncation=12):
    rels = tuple(parse_series(r, variables, truncation) for r in relations)
    div = parse_series(divisor, variables, truncation) if divisor else None
    return RingSpec(tuple(variables), rels, div)


class TestOrd:
    def test_parabola(self):
        model = LocalModel(1, 1)
        assert model.element("v1 - u1^2").order() == 1

    def test_relation_reduces_to_zero(self):
        model = LocalModel(1, 0)
        assert model.element("u1*v1").order() is None

    def test_smooth_cube(self):
        model = LocalModel(1, 1)
        assert model.element("w1^3").order() == 3


class TestBranchSum:
    def test_parabola_total_three(self):
        model = LocalModel(1, 1)
        result = mult_divisor_branchsum(model.element("v1 - u1^2"))
        assert result.total == 3
        assert [b.order for b in result.per_branch] == [2, 1]

    def test_transverse_node_section(self):
        model = LocalModel(1, 0)
        result = mult_divisor_branchsum(model.element("u1 + v1"))
        assert result.total == 2
        assert [b.order for b in result.per_branch] == [1, 1]

    def test_smooth_equation_doubles(self):
        model = LocalModel(1, 1)
        result = mult_divisor_branchsum(model.element("w1"))
        assert result.total == 2

    def test_divisor_containing_branch_rejected(self):
        model = LocalModel(1, 0)
        with pytest.raises(PreconditionError) as info:
            mult_divisor_branchsum(model.element("u1"))
        assert info.value.name == "divisor-contains-branch"

    def test_unit_rejected(self):
        model = LocalModel(1, 0)
        with pytest.raises(PreconditionError):
            mult_divisor_branchsum(model.element("1 + u1"))


class TestMultModel:
    @pytest.mark.parametrize("n,expected", [(0, 1), (1, 2), (3, 8)])
    def test_power_of_two(self, n, expected):
        assert mult_model(LocalModel(n, 1)) == expected


class TestHilbertSamuel:
    def test_node_surface(self):
        table = hilbert_samuel(spec(XYZ, ["x*y"]), 10)
        assert (table.dimension, table.multiplicity) == (2, 2)
        assert table.stabilized

    def test_cusp_divisor(self):
        table = hilbert_samuel(spec(XYZ, ["y^2 - x^3"], "x - z^3"), 10)
        assert (table.dimension, table.multiplicity) == (1, 2)

    def test_two_node_model(self):
        table = hilbert_samuel(
            spec(("u1", "v1", "u2", "v2"), ["u1*v1", "u2*v2"]), 10
        )
        assert table.multiplicity == 4
        assert table.dimension == 2

    def test_table_invariants(self):
        table = hilbert_samuel(spec(XYZ, ["x*y"], "y - x^2"), 10)
        assert table.values[0] == 1
        assert all(a <= b for a, b in zip(table.values, table.values[1:]))

    def test_empty_variable_ring(self):
        table = hilbert_samuel(RingSpec((), ()), 10)
        assert table.values == [1] * 11
        assert (table.dimension, table.multiplicity) == (0, 1)

    def test_insufficient_truncation_rejected(self):
        with pytest.raises(PreconditionError) as info:
            hilbert_samuel(spec(XYZ, ["x*y"], truncation=5), 10)
        assert info.value.name == "insufficient-truncation"

    def test_tmax_too_small_rejected(self):
        with pytest.raises(PreconditionError):
            hilbert_samuel(spec(XYZ, ["x*y"]), 2)


def monomials_up_to(nvars, degree):
    """Every exponent of degree <= `degree`, in degree order."""
    if nvars == 0:
        return [()]
    out = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(range(nvars), d):
            exponent = [0] * nvars
            for i in combo:
                exponent[i] += 1
            out.append(tuple(exponent))
    return out


def count_monomials(nvars, degree):
    """Number of exponents of degree <= `degree`."""
    total = 1
    count = 1
    for d in range(1, degree + 1):
        count = count * (d + nvars - 1) // d
        total += count
    return total


def full_elimination_hilbert_function(spec, t_max):
    """H(t) from one elimination of every product (monomial) * (generator)
    truncated at t_max, monomial generators included, over all monomials
    numbered in degree order.  Kept as an oracle for the elimination over
    standard monomials."""
    monomials = monomials_up_to(len(spec.variables), t_max)
    column = {mono: index for index, mono in enumerate(monomials)}
    rows = []
    for g in spec.generators():
        terms = primitive(g.coefficients)
        for mono in monomials:
            row = {}
            for exponent, coefficient in terms.items():
                product = tuple(map(sum, zip(mono, exponent)))
                if sum(product) <= t_max:
                    row[column[product]] = coefficient
            if not row:
                break
            rows.append(row)
    pivot_degrees = [sum(monomials[col]) for col in pivot_columns(rows)]
    return [
        count_monomials(len(spec.variables), t) - bisect_right(pivot_degrees, t)
        for t in range(t_max + 1)
    ]


def per_degree_hilbert_function(spec, t_max):
    """H(t) by a separate elimination for each t: the rows at t are the
    products (monomial) * (generator) of order <= t, truncated at degree t.
    Kept as an oracle for the single graded elimination."""
    nvars = len(spec.variables)
    column = {}
    values = []
    for t in range(t_max + 1):
        rows = []
        for g in spec.generators():
            for mono in monomials_up_to(nvars, t - g.order()):
                row = {}
                for exponent, coefficient in g.coefficients.items():
                    product = tuple(a + b for a, b in zip(mono, exponent))
                    if sum(product) <= t:
                        row[column.setdefault(product, len(column))] = coefficient
                rows.append(row)
        values.append(count_monomials(nvars, t) - rank_sparse(rows))
    return values


def random_polynomial(rng, variables, truncation):
    """1-4 terms of degree 1-3 with nonzero rational coefficients."""
    coefficients = {}
    for _ in range(rng.randint(1, 4)):
        exponent = [0] * len(variables)
        for _ in range(rng.randint(1, 3)):
            exponent[rng.randrange(len(variables))] += 1
        coefficients[tuple(exponent)] = Fraction(
            rng.choice([c for c in range(-6, 7) if c]), rng.randint(1, 5)
        )
    return PowerSeries(variables, coefficients, truncation)


def random_ideal(rng):
    """1-3 generators without constant term, rational coefficients, order 1-3."""
    variables = tuple(f"x{i}" for i in range(rng.randint(1, 4)))
    generators = [random_polynomial(rng, variables, 9) for _ in range(rng.randint(1, 3))]
    return RingSpec(variables, tuple(generators))


class TestGradedElimination:
    def test_matches_per_degree_oracle(self):
        rng = random.Random(31)
        for _ in range(40):
            ring = random_ideal(rng)
            t_max = rng.randint(3, 9)
            table = hilbert_samuel(ring, t_max)
            assert table.values == per_degree_hilbert_function(ring, t_max), ring

    def test_truncated_shifts_that_lose_primitivity(self):
        # shifts of 2x + 3y^5 of degree >= t_max - 4 drop the y^5 term, so
        # their rows have content 2 and reach the elimination as they are
        for relations in (["2*x + 3*y^5"], ["2*x + 3*y^5", "4*x*y^2 - 6*y^3"]):
            ring = spec(("x", "y"), relations)
            for t_max in (3, 6, 9):
                table = hilbert_samuel(ring, t_max)
                assert table.values == per_degree_hilbert_function(ring, t_max), (
                    relations, t_max
                )

    def test_no_stabilization_below_generator_order(self):
        ring = spec(("x", "y"), ["x^12"], truncation=16)
        assert not hilbert_samuel(ring, 10).stabilized
        table = hilbert_samuel(ring, 16)
        assert (table.dimension, table.multiplicity) == (1, 12)


class TestStandardMonomials:
    """The elimination over standard monomials against the full one."""

    @pytest.mark.parametrize(
        "relations, divisor",
        [
            (["3*x*y"], None),  # a monomial generator with coefficient 3
            (["x^2*y"], None),  # a monomial generator of degree 3
            (["x*y", "x*y^2"], None),  # one monomial generator dividing another
            (["y^2 - x^3"], "4*z^2"),  # a monomial divisor
            (["x*y"], "2*x - x^2*z"),  # y times the divisor has no standard term
            (["x*y", "y*z^2", "x^3"], "z^4"),  # every generator a monomial
        ],
    )
    def test_matches_full_elimination(self, relations, divisor):
        rng = random.Random(" ".join(relations))
        base = spec(XYZ, relations, divisor)
        for extra in range(6):
            generators = [random_polynomial(rng, XYZ, 12) for _ in range(min(extra, 2))]
            ring = RingSpec(XYZ, base.relations + tuple(generators), base.divisor)
            t_max = rng.randint(3, 9)
            assert hilbert_samuel(ring, t_max).values == (
                full_elimination_hilbert_function(ring, t_max)
            ), (ring, t_max)

    def test_models_match_full_elimination(self):
        rng = random.Random(13)
        for n, m in [(n, m) for n in range(3) for m in range(3) if n + m]:
            model = LocalModel(n, m)
            for t_max in (10, 11, 12):
                divisors = [None, random_clean_element(rng, model).series]
                for ring in (model_ringspec(model, f) for f in divisors):
                    assert hilbert_samuel(ring, t_max).values == (
                        full_elimination_hilbert_function(ring, t_max)
                    ), (n, m, t_max, ring.divisor)

    @pytest.mark.parametrize(
        "names, relations, divisor, t_max, truncation",
        [
            # t_max.bit_length() steps up at 4, 8 and 16, and with it the
            # width of a packed field; x^t_max fills its field to the guard
            *[("xyz", ["x*y^2", f"x^{t}"], "y^3 - z^2 + x*z", t, t)
              for t in (3, 4, 7, 8, 15, 16)],
            ("xyz", ["x^8"], "y^2 - x*z", 8, 12),  # a wall of exponent exactly t_max
            ("xyz", ["x^4*y^5"], "y^2 - x*z", 8, 12),  # a wall of degree t_max + 1
            # z^20 would overflow its 5-bit field; z is the last variable, so
            # the borrow out of its field would escape every guard
            ("xyz", ["z^20"], "x^2 - y*z", 8, 20),
            ("xyz", ["x^2*y^3*z"], "x*y - z^2 + y^3", 9, 12),  # a mixed wall
            ("abcde", ["a*b", "c^2*d", "b*e^3"], "a + e^2 - b*c", 7, 12),
            ("abcdef", ["a*b", "c*d", "e^2*f"], "a - c + f^2 - b*e", 6, 12),
        ],
    )
    def test_packed_field_boundaries(self, names, relations, divisor, t_max, truncation):
        ring = spec(tuple(names), relations, divisor, truncation)
        assert hilbert_samuel(ring, t_max).values == (
            full_elimination_hilbert_function(ring, t_max)
        )

    def test_too_many_columns_rejected(self):
        names = ("a", "b", "c", "d", "e", "f")
        with pytest.raises(PreconditionError) as info:
            hilbert_samuel(spec(names, ["a*b"], "c", truncation=60), 60)
        assert info.value.name == "t-max"
        assert str(MAX_COLUMNS) in str(info.value)


def random_clean_element(rng, model, truncation=12, max_degree=3, terms=4):
    """Random normal-form divisor with ord <= max_degree, nonzero on every branch."""
    nvars = len(model.variables)
    names = model.variables
    while True:
        coeffs = {}
        for _ in range(terms):
            exponent = [0] * nvars
            for _ in range(rng.randint(1, max_degree)):
                exponent[rng.randrange(nvars)] += 1
            pairs = model.node_pairs()
            bad = any(
                exponent[names.index(u)] and exponent[names.index(v)]
                for u, v in pairs
            )
            if bad:
                continue
            coeffs[tuple(exponent)] = rng.randint(-9, 9)
        f = reduce(model, PowerSeries(names, coeffs, truncation))
        if f.is_zero():
            continue
        try:
            mult_divisor_branchsum(f)
        except PreconditionError:
            continue
        return f


class TestOracleAgreement:
    def test_branch_sum_matches_hilbert_samuel(self):
        rng = random.Random(20)
        cases = 0
        for n, m in [(1, 0), (1, 1), (2, 0), (2, 1)]:
            model = LocalModel(n, m)
            for _ in range(6):
                f = random_clean_element(rng, model)
                total = mult_divisor_branchsum(f).total
                table = hilbert_samuel(model_ringspec(model, f.series), 10)
                assert table.stabilized, f"oracle did not stabilize for {f.series}"
                assert table.multiplicity == total, (
                    f"branch sum {total} vs oracle {table.multiplicity} "
                    f"for {f.series} on n={n}, m={m}"
                )
                cases += 1
        assert cases == 24

    def test_model_multiplicity_matches_oracle(self):
        for n, m in [(0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]:
            table = hilbert_samuel(model_ringspec(LocalModel(n, m)), 10)
            assert table.dimension == n + m
            assert table.multiplicity == 2**n == mult_model(LocalModel(n, m))


class TestInequality:
    def test_parabola_strict(self):
        model = LocalModel(1, 1)
        report = check_eqnmat(model.element("v1 - u1^2"))
        assert (report.mult_divisor, report.mult_model, report.ord_divisor) == (3, 2, 1)
        assert report.holds and not report.equality

    def test_transverse_equality(self):
        model = LocalModel(1, 0)
        report = check_eqnmat(model.element("u1 + v1"))
        assert (report.mult_divisor, report.mult_model, report.ord_divisor) == (2, 2, 1)
        assert report.holds and report.equality

    def test_smooth_square_equality(self):
        model = LocalModel(1, 1)
        report = check_eqnmat(model.element("w1^2"))
        assert (report.mult_divisor, report.mult_model, report.ord_divisor) == (4, 2, 2)
        assert report.holds and report.equality

    def test_holds_on_random_divisors(self):
        rng = random.Random(21)
        for n, m in [(1, 1), (2, 1), (3, 2)]:
            model = LocalModel(n, m)
            for _ in range(10):
                f = random_clean_element(rng, model)
                report = check_eqnmat(f)
                assert report.holds

    def test_report_carries_its_branch_sum(self):
        rng = random.Random(23)
        for n, m in [(1, 1), (2, 1), (2, 0)]:
            model = LocalModel(n, m)
            for _ in range(5):
                f = random_clean_element(rng, model)
                branch = mult_divisor_branchsum(f)
                report = check_eqnmat(f)
                assert report.per_branch == branch.per_branch
                assert report.mult_divisor == sum(b.order for b in report.per_branch)

    def test_smooth_model_always_equality(self):
        rng = random.Random(22)
        model = LocalModel(0, 2)
        for _ in range(20):
            f = random_clean_element(rng, model)
            report = check_eqnmat(f)
            assert report.equality
            assert report.mult_divisor == f.order()
