from fractions import Fraction

import pytest

from nodaltheta.errors import PreconditionError
from nodaltheta.parsing import MAX_NESTING, parse_series
from nodaltheta.series import PowerSeries


VARS = ("x", "y")


def test_literals_and_rationals():
    assert parse_series("3", VARS, 5) == PowerSeries.constant(VARS, 3, 5)
    assert parse_series("-2/5", VARS, 5) == PowerSeries.constant(VARS, Fraction(-2, 5), 5)


def test_precedence_and_parentheses():
    assert parse_series("1 + 2*x^2", VARS, 5) == parse_series("2*x*x + 1", VARS, 5)
    assert parse_series("(1+x)*(1+y)", VARS, 5) == parse_series("1 + x + y + x*y", VARS, 5)


def test_unary_minus():
    assert parse_series("-x + y", VARS, 5) == parse_series("y - x", VARS, 5)
    assert parse_series("-(x - y)", VARS, 5) == parse_series("y - x", VARS, 5)


def test_double_star_power():
    assert parse_series("x**3", VARS, 5) == parse_series("x^3", VARS, 5)


def test_whitespace_insensitive():
    assert parse_series(" y -  x ^ 2 ", VARS, 5) == parse_series("y-x^2", VARS, 5)


def test_unicode_minus_accepted():
    assert parse_series("y − x", VARS, 5) == parse_series("y - x", VARS, 5)


def test_unknown_variable_rejected():
    with pytest.raises(PreconditionError):
        parse_series("q + 1", VARS, 5)


def test_trailing_garbage_rejected():
    with pytest.raises(PreconditionError):
        parse_series("x + ", VARS, 5)
    with pytest.raises(PreconditionError):
        parse_series("x y", VARS, 5)


def test_bad_characters_rejected():
    with pytest.raises(PreconditionError):
        parse_series("x @ y", VARS, 5)


def test_division_only_in_literals():
    with pytest.raises(PreconditionError):
        parse_series("x/2", VARS, 5)


def test_nesting_depth_bounded():
    deep_parens = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_series(deep_parens, VARS, 5) == parse_series("x", VARS, 5)
    assert parse_series("-" * MAX_NESTING + "x", VARS, 5) == parse_series("x", VARS, 5)
    for text in ["(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x"]:
        with pytest.raises(PreconditionError) as info:
            parse_series(text, VARS, 5)
        assert info.value.name == "parse"
