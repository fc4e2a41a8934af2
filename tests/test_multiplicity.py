import random
from fractions import Fraction

import pytest

from nodaltheta.errors import PreconditionError
from nodaltheta.linalg import rank_sparse
from nodaltheta.localmodel import LocalModel, reduce
from nodaltheta.multiplicity import (
    RingSpec,
    _count_monomials,
    _monomials_up_to,
    check_eqnmat,
    hilbert_samuel,
    model_ringspec,
    mult_divisor_branchsum,
    mult_model,
    ord_at_origin,
)
from nodaltheta.parsing import parse_series
from nodaltheta.series import INFINITE, PowerSeries

XYZ = ("x", "y", "z")


def spec(variables, relations=(), divisor=None, truncation=12):
    rels = tuple(parse_series(r, variables, truncation) for r in relations)
    div = parse_series(divisor, variables, truncation) if divisor else None
    return RingSpec(tuple(variables), rels, div)


class TestOrd:
    def test_parabola(self):
        model = LocalModel(1, 1)
        assert ord_at_origin(model.element("v1 - u1^2")) == 1

    def test_relation_reduces_to_zero(self):
        model = LocalModel(1, 0)
        assert ord_at_origin(model.element("u1*v1")) is INFINITE

    def test_smooth_cube(self):
        model = LocalModel(1, 1)
        assert ord_at_origin(model.element("w1^3")) == 3


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
            for mono in _monomials_up_to(nvars, t - g.order()):
                row = {}
                for exponent, coefficient in g.coefficients.items():
                    product = tuple(a + b for a, b in zip(mono, exponent))
                    if sum(product) <= t:
                        row[column.setdefault(product, len(column))] = coefficient
                rows.append(row)
        values.append(_count_monomials(nvars, t) - rank_sparse(rows))
    return values


def random_ideal(rng):
    """1-3 generators without constant term, rational coefficients, order 1-3."""
    nvars = rng.randint(1, 4)
    variables = tuple(f"x{i}" for i in range(nvars))
    generators = []
    for _ in range(rng.randint(1, 3)):
        coefficients = {}
        for _ in range(rng.randint(1, 4)):
            exponent = [0] * nvars
            for _ in range(rng.randint(1, 3)):
                exponent[rng.randrange(nvars)] += 1
            coefficients[tuple(exponent)] = Fraction(
                rng.choice([c for c in range(-6, 7) if c]), rng.randint(1, 5)
            )
        generators.append(PowerSeries(variables, coefficients, 9))
    return RingSpec(variables, tuple(generators))


class TestGradedElimination:
    def test_matches_per_degree_oracle(self):
        rng = random.Random(31)
        for _ in range(40):
            ring = random_ideal(rng)
            t_max = rng.randint(3, 9)
            table = hilbert_samuel(ring, t_max)
            assert table.values == per_degree_hilbert_function(ring, t_max), ring

    def test_no_stabilization_below_generator_order(self):
        ring = spec(("x", "y"), ["x^12"], truncation=16)
        assert not hilbert_samuel(ring, 10).stabilized
        table = hilbert_samuel(ring, 16)
        assert (table.dimension, table.multiplicity) == (1, 12)


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
            assert report.mult_divisor == ord_at_origin(f)
