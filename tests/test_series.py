import random
from fractions import Fraction

import pytest

from nodaltheta.errors import PreconditionError
from nodaltheta.parsing import parse_series
from nodaltheta.series import INFINITE, PowerSeries, invert_list, mul_lists, sub_mul


def ps(text, variables=("x", "y"), truncation=10):
    return parse_series(text, variables, truncation)


def tser(text, truncation=10):
    return parse_series(text, ("t",), truncation)


class TestArithmetic:
    def test_telescoping_product(self):
        assert ps("(1+x)*(1-x)") == ps("1 - x^2")

    def test_cancellation(self):
        assert ps("(y - x^2) + x^2") == ps("y")

    def test_truncation_floor(self):
        cube = parse_series("(x+y)*(x+y)*(x+y)", ("x", "y"), 2)
        assert cube.is_zero()

    def test_result_truncation_is_minimum(self):
        a = parse_series("1+x", ("x",), 5)
        b = parse_series("1+x", ("x",), 9)
        assert (a * b).truncation == 5
        assert (a + b).truncation == 5
        assert (a - b).truncation == 5

    def test_variable_mismatch_rejected(self):
        a = parse_series("x", ("x",), 5)
        b = parse_series("y", ("y",), 5)
        with pytest.raises(PreconditionError):
            a + b

    def test_scalar_multiple(self):
        assert ps("x") * Fraction(3, 2) == ps("3/2 * x")


    def test_power_equals_repeated_product(self):
        for base in (ps("1 + x - 2*y"), ps("x + y^2"), ps("3/2"), ps("0")):
            product = PowerSeries.constant(base.variables, 1, base.truncation)
            for e in range(12):
                assert base**e == product
                product = product * base

    def test_power_past_truncation_vanishes(self):
        assert ps("x + y") ** 11 == PowerSeries.zero(("x", "y"), 10)
        assert ps("x^2") ** 10**9 == PowerSeries.zero(("x", "y"), 10)
        assert ps("x") ** 10 == ps("x^10")

class TestOrder:
    def test_linear_term_present(self):
        assert ps("y - x^2").order() == 1

    def test_zero_series(self):
        assert PowerSeries.zero(("x", "y"), 10).order() is INFINITE

    def test_by_inspection(self):
        assert ps("x^2*y + x^5").order() == 3

    def test_infinite_compares_above_integers(self):
        assert INFINITE > 10**9
        assert not (INFINITE < 3)
        assert min([4, INFINITE, 7]) == 4


class TestLeadingForm:
    def test_parabola(self):
        lf = ps("y - x^2").leading_form()
        assert lf.degree == 1
        assert lf.form == ps("y")

    def test_cusp_transverse(self):
        lf = parse_series("x - z^3", ("x", "y", "z"), 10).leading_form()
        assert lf.degree == 1
        assert lf.form == parse_series("x", ("x", "y", "z"), 10)

    def test_already_homogeneous(self):
        lf = ps("x^2 + x*y").leading_form()
        assert lf.degree == 2
        assert lf.form == ps("x^2 + x*y")

    def test_zero_input_rejected(self):
        with pytest.raises(PreconditionError):
            PowerSeries.zero(("x",), 5).leading_form()


class TestSubstitute:
    def test_cusp_arc(self):
        f = parse_series("x - z^3", ("x", "y", "z"), 10)
        images = {"x": tser("t^2"), "y": tser("t^3"), "z": tser("0")}
        assert f.substitute(images, 10) == tser("t^2")

    def test_identity_on_one_variable(self):
        f = parse_series("t^2 + 3*t", ("t",), 10)
        assert f.substitute({"t": parse_series("t", ("t",), 10)}, 10) == f

    def test_arc_inside_parametrized_zero_locus(self):
        f = ps("y - x^2")
        images = {"x": tser("t"), "y": tser("t^2")}
        assert f.substitute(images, 10).is_zero()

    def test_nonzero_constant_term_rejected(self):
        f = ps("x")
        with pytest.raises(PreconditionError):
            f.substitute({"x": tser("1 + t"), "y": tser("0")}, 10)

    def test_result_truncation_never_exceeds_inputs(self):
        f = parse_series("x", ("x",), 4)
        image = {"x": tser("t", truncation=6)}
        assert f.substitute(image, 10).truncation == 4


def random_series(rng, variables, truncation, max_degree=4, terms=5):
    coeffs = {}
    nvars = len(variables)
    for _ in range(terms):
        exponent = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exponent[rng.randrange(nvars)] += 1
        coeffs[tuple(exponent)] = rng.randint(-9, 9)
    return PowerSeries(variables, coeffs, truncation)


class TestRingProperties:
    def test_order_of_product_adds(self):
        rng = random.Random(7)
        for _ in range(120):
            a = random_series(rng, ("x", "y", "z"), 12)
            b = random_series(rng, ("x", "y", "z"), 12)
            oa, ob = a.order(), b.order()
            if oa is INFINITE or ob is INFINITE:
                continue
            if oa + ob <= 12:
                assert (a * b).order() == oa + ob

    def test_order_of_sum_bounded_below(self):
        rng = random.Random(8)
        for _ in range(120):
            a = random_series(rng, ("x", "y"), 10)
            b = random_series(rng, ("x", "y"), 10)
            oa, ob = a.order(), b.order()
            total = (a + b).order()
            assert total >= min(oa, ob)
            if oa != ob:
                assert total == min(oa, ob)

    def test_leading_form_multiplicative(self):
        rng = random.Random(9)
        for _ in range(80):
            a = random_series(rng, ("x", "y"), 12, max_degree=3)
            b = random_series(rng, ("x", "y"), 12, max_degree=3)
            if a.is_zero() or b.is_zero():
                continue
            la, lb = a.leading_form(), b.leading_form()
            if la.degree + lb.degree > 12:
                continue
            product = (a * b).leading_form()
            assert product.degree == la.degree + lb.degree
            assert product.form == la.form * lb.form

    def test_substitute_is_a_ring_map(self):
        rng = random.Random(10)
        for _ in range(60):
            a = random_series(rng, ("x", "y"), 8, max_degree=3)
            b = random_series(rng, ("x", "y"), 8, max_degree=3)
            images = {
                "x": PowerSeries.univariate(
                    {1: rng.randint(-4, 4), 2: rng.randint(-4, 4)}, 8
                ),
                "y": PowerSeries.univariate(
                    {1: rng.randint(-4, 4), 3: rng.randint(-4, 4)}, 8
                ),
            }
            assert (a + b).substitute(images, 8) == a.substitute(images, 8) + b.substitute(images, 8)
            assert (a * b).substitute(images, 8) == a.substitute(images, 8) * b.substitute(images, 8)


class TestUnivariateHelpers:
    def test_invert_unit_round_trip(self):
        s = tser("1 + 2*t + 3*t^2")
        product = s * s.invert_unit()
        assert product == tser("1")

    def test_invert_rejects_non_unit(self):
        with pytest.raises(PreconditionError):
            tser("t").invert_unit()

    def test_zero_out(self):
        f = parse_series("x + y^2 + x*y", ("x", "y"), 6)
        assert f.zero_out(["y"]) == parse_series("x", ("x",), 6)


def random_univariate(rng, truncation, unit=False):
    coefficients = {
        d: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        for d in range(truncation + 1)
        if rng.random() < 0.6
    }
    if unit:
        coefficients[0] = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
    return PowerSeries.univariate(coefficients, truncation)


class TestDenseCore:
    def test_dense_round_trip(self):
        s = tser("3 - 1/2*t^2 + t^4", truncation=5)
        assert s.dense() == [3, 0, Fraction(-1, 2), 0, 1, 0]
        assert all(type(c) is int for c in tser("2 + t").dense())
        assert PowerSeries.univariate(dict(enumerate(s.dense())), 5) == s
        with pytest.raises(PreconditionError):
            ps("x + y").dense()

    def test_invert_list_agrees_with_invert_unit(self):
        rng = random.Random(5)
        for trial in range(200):
            truncation = trial % 9  # truncation 0 included
            s = random_univariate(rng, truncation, unit=True)
            inverse = s.invert_unit()
            assert invert_list(s.dense()) == inverse.dense()
            assert inverse.truncation == truncation
            assert s * inverse == PowerSeries.constant(("t",), 1, truncation)

    def test_products_agree_with_the_series_product(self):
        rng = random.Random(6)
        for trial in range(200):
            ta, tb = rng.randint(0, 8), rng.randint(0, 8)
            a, b = random_univariate(rng, ta), random_univariate(rng, tb)
            n = min(ta, tb)
            assert mul_lists(a.dense(), b.dense(), n) == (a * b).dense()
            c = random_univariate(rng, rng.randint(0, 8))
            difference = sub_mul(c.dense(), a.dense(), b.dense())
            assert difference == (c - a * b).dense()
