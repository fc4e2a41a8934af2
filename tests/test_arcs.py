import json
import random
import time
from fractions import Fraction

import pytest

from nodaltheta import arcs
from nodaltheta.arcs import (
    COEFF_BOX,
    Arc,
    ArcSampleReport,
    ZArcNotFound,
    arc_contact,
    make_arc,
    make_general_arc,
    minimal_arc,
    minimal_arc_through_Z,
    sample_arcs_check,
    sample_parametrized_arcs_check,
    _compile,
    _first_nonzero,
    _random_list,
)
from nodaltheta.cli import main
from nodaltheta.errors import PreconditionError
from nodaltheta.localmodel import LocalModel, branch_orders, reduce
from nodaltheta.multiplicity import RingSpec
from nodaltheta.parsing import parse_series
from nodaltheta.series import PowerSeries, ladder, pull_back

from test_multiplicity import random_clean_element

XYZ = ("x", "y", "z")


def tser(text, truncation=16):
    return parse_series(text, ("t",), truncation)


def cusp_spec(truncation=16):
    return RingSpec(
        XYZ,
        (parse_series("y^2 - x^3", XYZ, truncation),),
        parse_series("x - z^3", XYZ, truncation),
    )


class TestMakeArc:
    def test_valid_arc(self):
        model = LocalModel(1, 1)
        arc = make_arc(
            model, {"u1": tser("0"), "v1": tser("t"), "w1": tser("0")}, 16
        )
        assert arc.truncation == 16

    def test_node_constraint(self):
        model = LocalModel(1, 0)
        with pytest.raises(PreconditionError) as info:
            make_arc(model, {"u1": tser("t"), "v1": tser("t")}, 16)
        assert info.value.name == "node-constraint"

    def test_nonzero_constant_rejected(self):
        model = LocalModel(1, 0)
        with pytest.raises(PreconditionError):
            make_arc(model, {"u1": tser("1+t"), "v1": tser("0")}, 16)

    def test_unknown_image_variable_rejected(self):
        model = LocalModel(1, 0)
        with pytest.raises(PreconditionError):
            make_arc(
                model, {"u1": tser("0"), "v1": tser("t"), "w1": tser("0")}, 16
            )

    def test_cusp_arc_satisfies_relation(self):
        arc = make_general_arc(
            cusp_spec(), {"x": tser("t^2"), "y": tser("t^3"), "z": tser("0")}, 16
        )
        assert arc.truncation == 16

    def test_relation_violation_rejected(self):
        with pytest.raises(PreconditionError) as info:
            make_general_arc(
                cusp_spec(), {"x": tser("t"), "y": tser("t"), "z": tser("0")}, 16
            )
        assert info.value.name == "relation-violated"

    def test_truncation_reduction_preserves_validity(self):
        model = LocalModel(1, 1)
        arc = make_arc(
            model, {"u1": tser("0"), "v1": tser("t + t^5"), "w1": tser("t^2")}, 16
        )
        shorter = {v: s.truncate(4) for v, s in arc.images.items()}
        assert make_arc(model, shorter, 4).truncation == 4


class TestContact:
    def test_cusp_witness(self):
        spec = cusp_spec()
        arc = make_general_arc(
            spec, {"x": tser("t^2"), "y": tser("t^3"), "z": tser("0")}, 16
        )
        assert arc_contact(arc, spec.divisor) == 2

    def test_parabola_along_v_axis(self):
        model = LocalModel(1, 1)
        f = model.element("v1 - u1^2")
        arc = make_arc(model, {"u1": tser("0"), "v1": tser("t"), "w1": tser("0")}, 16)
        assert arc_contact(arc, f.series) == 1

    def test_arc_inside_divisor(self):
        model = LocalModel(1, 1)
        f = model.element("v1")
        arc = make_arc(model, {"u1": tser("t"), "v1": tser("0"), "w1": tser("0")}, 16)
        assert arc_contact(arc, f.series) is None


def rational_image(rng, truncation):
    """A random image with Fraction coefficients and zero constant term."""
    return PowerSeries.univariate(
        {d: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for d in range(1, truncation + 1)},
        truncation,
    )


class TestContactMatchesSubstitute:
    """`arc_contact` reads the order of `PowerSeries.substitute` to N, None
    included, on seeded arcs and divisors."""

    @staticmethod
    def agree(arc, divisor):
        contact = arc_contact(arc, divisor)
        assert contact == divisor.substitute(arc.images, arc.truncation).order()
        return contact

    def test_model_arcs(self):
        rng = random.Random(61)
        contacts = []
        for n, m in [(1, 0), (1, 1), (2, 1), (0, 2)]:
            model = LocalModel(n, m)
            for truncation in range(9):
                draw = oracle_model_draw(model, truncation)
                for _ in range(12):
                    # divisor truncations 2 and 3 sit below most arcs' truncation
                    f = random_divisor(rng, model, rng.choice([2, 3, truncation + 1, 12]))
                    images = draw(rng)
                    if rng.random() < 0.5:  # Fraction coefficients on every free side
                        images = {
                            v: image if image.is_zero() else rational_image(rng, truncation)
                            for v, image in images.items()
                        }
                    arc = make_arc(model, images, truncation)
                    cap = min(truncation, f.series.truncation)
                    contacts.append((self.agree(arc, f.series), cap))
        assert any(contact is None for contact, _ in contacts)
        assert any(contact == cap for contact, cap in contacts)  # contact exactly N

    @pytest.mark.parametrize("param", ["x:s^2,y:s^3", "x:1/4*s^2,y:1/8*s^3"])
    def test_general_ring_arcs(self, param):
        rng = random.Random(62)
        contacts = set()
        for truncation in range(2, 11):
            spec = cusp_spec(truncation)
            draw = oracle_parametrized_draw(spec, cusp_powers(param, truncation), truncation)
            for text in ("x - z^3", "y - 2*z^3", "3/2*x - z^2", "y^2 - x^3"):
                divisor = parse_series(text, XYZ, rng.choice([2, truncation]))
                arc = make_general_arc(spec, draw(rng), truncation)
                contacts.add(self.agree(arc, divisor))
        assert None in contacts and 2 in contacts and 3 in contacts

    @pytest.mark.parametrize("n", [7, 9, 16])
    def test_contact_exactly_n_and_inside(self, n):
        model = LocalModel(0, 2)
        f = model.element("w1^2 - w2^3", n)
        w2 = tser("t^2", n)
        # w1 = t^3 + 5 t^(n-3): w1^2 - w2^3 = 10 t^n + O(t^(n+1))
        near = make_arc(model, {"w1": tser(f"t^3 + 5/7*t^{n - 3}", n), "w2": w2}, n)
        assert self.agree(near, f.series) == n
        inside = make_arc(model, {"w1": tser("t^3", n), "w2": w2}, n)
        assert self.agree(inside, f.series) is None
        # known only to degree 2, w1^2 is zero along an arc with no t term
        low = model.element("w1^2", 2)
        assert self.agree(inside, low.series) is None


class TestContactPreconditions:
    def test_zero_divisor(self):
        model = LocalModel(1, 1)
        arc = make_arc(model, {"u1": tser("0"), "v1": tser("t"), "w1": tser("t")}, 16)
        with pytest.raises(PreconditionError) as info:
            arc_contact(arc, PowerSeries.zero(model.variables, 16))
        assert info.value.name == "zero-series"

    def test_divisor_off_the_arc(self):
        arc = make_arc(LocalModel(1, 0), {"u1": tser("0"), "v1": tser("t")}, 16)
        with pytest.raises(PreconditionError) as info:
            arc_contact(arc, LocalModel(1, 1).element("v1 + w1").series)
        assert info.value.name == "substitute"

    def test_unvalidated_image_with_a_constant_term(self):
        # `pull_back` would drop the constant silently
        arc = Arc({"w1": tser("1 + t")}, 16)
        with pytest.raises(PreconditionError) as info:
            arc_contact(arc, LocalModel(0, 1).element("w1").series)
        assert info.value.name == "substitute"

    def test_images_over_two_variables(self):
        s = parse_series("s", ("s",), 16)
        calls = [
            lambda: make_arc(LocalModel(0, 2), {"w1": tser("t"), "w2": s}, 16),
            lambda: make_general_arc(RingSpec(XYZ), {"x": tser("t"), "y": s, "z": tser("0")}, 16),
            lambda: sample_parametrized_arcs_check(
                cusp_spec(), cusp_spec().divisor,
                {"x": parse_series("s^2", ("s",), 16), "y": parse_series("r^3", ("r",), 16)},
                10, 16, 0,
            ),
        ]
        for call in calls:
            with pytest.raises(PreconditionError, match="more than one variable") as info:
                call()
            assert info.value.name == "arc"


class TestMinimalArc:
    def test_parabola_lands_on_v_branch(self):
        model = LocalModel(1, 1)
        found = minimal_arc(model.element("v1 - u1^2"), 16, seed=0)
        assert found.contact == 1
        assert found.branch == ("v",)
        assert found.arc.images["u1"].is_zero()

    def test_smooth_coordinate(self):
        model = LocalModel(1, 1)
        found = minimal_arc(model.element("w1"), 16, seed=0)
        assert found.contact == 1

    def test_branch_orders_two_and_three(self):
        model = LocalModel(1, 0)
        found = minimal_arc(model.element("u1^2 + v1^3"), 16, seed=0)
        assert found.contact == 2
        assert found.branch == ("u",)

    def test_contact_equals_order_on_random_divisors(self):
        rng = random.Random(31)
        for n, m in [(1, 0), (1, 1), (2, 1), (3, 0)]:
            model = LocalModel(n, m)
            for k in range(8):
                f = random_clean_element(rng, model, truncation=8)
                found = minimal_arc(f, 8, seed=k)
                assert found.contact == f.order()

    def test_branch_is_the_least_of_minimal_order(self):
        rng = random.Random(43)
        for n in range(7):
            for m in range(3 if n else 1, 3):
                model = LocalModel(n, m)
                for _ in range(6):
                    f = random_divisor(rng, model, 8)
                    walked = min(branch_orders(f), key=lambda b: (b.order, b.branch))
                    assert walked.order == f.order()
                    assert minimal_arc(f, 8, seed=0).branch == walked.branch


class TestZArcs:
    def test_attained_when_restriction_keeps_order(self):
        model = LocalModel(1, 1)
        found = minimal_arc_through_Z(model.element("w1 + u1"), 16, seed=0)
        assert found.contact == 1
        assert found.arc.images["u1"].is_zero()
        assert found.arc.images["v1"].is_zero()

    def test_not_found_when_restriction_jumps(self):
        model = LocalModel(1, 1)
        result = minimal_arc_through_Z(model.element("u1 + w1^2"), 16, seed=0)
        assert isinstance(result, ZArcNotFound)
        assert result.best_contact == 2

    def test_smooth_equation(self):
        model = LocalModel(1, 1)
        found = minimal_arc_through_Z(model.element("w1"), 16, seed=0)
        assert found.contact == 1

    def test_no_smooth_directions_at_all(self):
        model = LocalModel(1, 0)
        result = minimal_arc_through_Z(model.element("u1 + v1"), 16, seed=0)
        assert isinstance(result, ZArcNotFound)
        assert result.best_contact is None

    @pytest.mark.parametrize("text", ["w1^3", "u1^3 + w1^4", "0", "1 + w1"])
    def test_checks_match_minimal_arc(self, text):
        # zero, unit and truncation below the order are rejected by both
        # searches with the same check and message: an arc known to t^2
        # cannot show contact 3
        element = LocalModel(1, 1).element(text)
        with pytest.raises(PreconditionError) as minimal:
            minimal_arc(element, 2, seed=0)
        with pytest.raises(PreconditionError) as through_z:
            minimal_arc_through_Z(element, 2, seed=0)
        assert through_z.value.name == minimal.value.name
        assert str(through_z.value) == str(minimal.value)


class TestSampling:
    def test_parabola_bound_and_attainment(self):
        model = LocalModel(1, 1)
        report = sample_arcs_check(model.element("v1 - u1^2", 8), 100, 8, seed=0)
        assert report.min_contact == 1
        assert report.used + report.skipped_inside == 100

    def test_smooth_cube_equality(self):
        model = LocalModel(1, 1)
        report = sample_arcs_check(model.element("w1^3", 8), 100, 8, seed=0)
        assert report.min_contact == 3

    def test_lower_bound_on_random_divisors(self):
        rng = random.Random(32)
        for n, m in [(1, 1), (2, 0)]:
            model = LocalModel(n, m)
            for k in range(5):
                f = random_clean_element(rng, model, truncation=6)
                report = sample_arcs_check(f, 30, 6, seed=k)
                assert report.min_contact is None or report.min_contact >= f.order()

    def test_cusp_obstruction(self):
        # The transverse divisor on the cusp: order 1, yet no arc reaches
        # contact 1, and contact 2 is achieved.
        spec = cusp_spec(8)
        powers = {"x": parse_series("s^2", ("s",), 8), "y": parse_series("s^3", ("s",), 8)}
        report = sample_parametrized_arcs_check(
            spec, spec.divisor, powers, 1000, 8, seed=0
        )
        assert report.order == 1
        assert report.min_contact == 2
        assert report.used >= 900


# -- the PowerSeries-based sampler, kept as an oracle for the dense one --------


def oracle_substitute(series, images, truncation):
    """Pull-back through per-variable power caches on PowerSeries images."""
    used = {v: images[v] for v in series.variables}
    n = min([truncation, series.truncation] + [im.truncation for im in used.values()])

    def as_list(s):
        out = [0] * (n + 1)
        for e, c in s.coefficients.items():
            if e[0] <= n:
                out[e[0]] = int(c) if c.denominator == 1 else c
        return out

    def mul_lists(a, b):
        out = [0] * (n + 1)
        for i, ai in enumerate(a):
            if ai:
                for j in range(n + 1 - i):
                    out[i + j] += ai * b[j]
        return out

    one = [1] + [0] * n
    powers = {}

    def power(v, e):
        if e == 0:
            return one
        if (v, e) not in powers:
            powers[v, e] = mul_lists(power(v, e - 1), as_list(used[v]))
        return powers[v, e]

    acc = [Fraction(0)] * (n + 1)
    for exponent, coeff in series.coefficients.items():
        term = one
        for v, e in zip(series.variables, exponent):
            if e:
                term = mul_lists(term, power(v, e))
        for d, x in enumerate(term):
            acc[d] += coeff * x
    return PowerSeries.univariate(dict(enumerate(acc)), n)


def oracle_polynomial(rng, truncation):
    coefficients = {d: rng.choice(COEFF_BOX) for d in range(1, truncation + 1)}
    return PowerSeries.univariate(coefficients, truncation)


def oracle_model_draw(model, truncation):
    def draw(rng):
        images = {}
        for u, v in model.node_pairs():
            zero_side, free_side = (u, v) if rng.random() < 0.5 else (v, u)
            images[zero_side] = PowerSeries.univariate({}, truncation)
            images[free_side] = oracle_polynomial(rng, truncation)
        for name in model.smooth_variables():
            images[name] = oracle_polynomial(rng, truncation)
        return images

    return draw


def oracle_parametrized_draw(spec, powers, truncation):
    """Draw as the PowerSeries hook did, then validate as make_general_arc did."""

    def draw(rng):
        s = oracle_polynomial(rng, truncation)
        images = {}
        for name in spec.variables:
            expr = powers.get(name)
            if expr is None:
                images[name] = oracle_polynomial(rng, truncation)
            else:
                images[name] = oracle_substitute(expr, {"s": s}, truncation)
        for name in spec.variables:
            image = images[name]
            if image.constant_term() != 0:
                raise PreconditionError("arc", f"image of {name!r} has a nonzero constant term")
            if image.truncation < truncation:
                raise PreconditionError(
                    "arc",
                    f"image of {name!r} known only to degree {image.truncation} < {truncation}",
                )
            images[name] = image.truncate(truncation)
        for relation in spec.relations:
            if not oracle_substitute(relation, images, truncation).is_zero():
                raise PreconditionError(
                    "relation-violated", f"relation {relation} does not vanish along the arc"
                )
        return images

    return draw


def oracle_report(draw, divisor, count, truncation, seed):
    order = divisor.order()
    rng = random.Random(seed)
    used = skipped = 0
    minimum = None
    for _ in range(count):
        pulled = oracle_substitute(divisor, draw(rng), truncation)
        contact = pulled.order()
        if contact is None:
            skipped += 1
            continue
        used += 1
        assert contact >= order
        minimum = contact if minimum is None else min(minimum, contact)
    return ArcSampleReport(count, used, skipped, minimum, order, seed)


def random_divisor(rng, model, truncation):
    """Normal-form divisor of order 1..3 with rational coefficients."""
    names = model.variables
    while True:
        coefficients = {}
        for _ in range(rng.randint(1, 5)):
            exponent = [0] * len(names)
            for _ in range(rng.randint(1, 3)):
                exponent[rng.randrange(len(names))] += 1
            coefficients[tuple(exponent)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        f = reduce(model, PowerSeries(names, coefficients, truncation))
        if not f.is_zero():
            return f


def cusp_powers(text, truncation):
    powers = {}
    for piece in text.split(","):
        name, _, expr = piece.partition(":")
        powers[name] = parse_series(expr, ("s",), truncation)
    return powers


class TestDenseSamplerMatchesOracle:
    MODELS = [(n, m) for n in range(4) for m in range(3) if 2 * n + m >= 1]

    def test_models(self):
        rng = random.Random(41)
        for n, m in self.MODELS:
            model = LocalModel(n, m)
            for truncation in range(13):
                f = random_divisor(rng, model, rng.choice([max(truncation, 3), 6, 12]))
                seed = rng.randrange(10**6)
                report = sample_arcs_check(f, 20, truncation, seed)
                draw = oracle_model_draw(model, truncation)
                assert report == oracle_report(draw, f.series, 20, truncation, seed)

    def test_skipped_arcs_and_rational_divisor(self):
        model = LocalModel(2, 1)
        f = model.element("u1*u2 - 3/2*u1*w1^2 + 1/3*v1^3*v2", 16)
        for seed in range(3):
            report = sample_arcs_check(f, 150, 16, seed)
            assert report.skipped_inside > 0
            draw = oracle_model_draw(model, 16)
            assert report == oracle_report(draw, f.series, 150, 16, seed)

    def test_divisor_known_to_lower_degree(self):
        # Known only to degree 2, w1^2 reaches contact >= 4 along arcs with no
        # t term: such arcs lie inside the divisor to its truncation.
        model = LocalModel(0, 1)
        f = model.element("w1^2", 2)
        report = sample_arcs_check(f, 200, 12, seed=3)
        assert report.skipped_inside > 0
        assert report == oracle_report(oracle_model_draw(model, 12), f.series, 200, 12, 3)

    def test_rings_without_relations(self):
        rng = random.Random(42)
        spec = RingSpec(XYZ)
        for truncation in range(13):
            divisor = random_divisor(rng, LocalModel(0, 3), 12).series
            divisor = PowerSeries(XYZ, divisor.coefficients, divisor.truncation)
            seed = rng.randrange(10**6)
            report = sample_parametrized_arcs_check(spec, divisor, {}, 12, truncation, seed)
            draw = oracle_parametrized_draw(spec, {}, truncation)
            assert report == oracle_report(draw, divisor, 12, truncation, seed)

    def test_s_is_drawn_with_nothing_listed(self):
        # An arc lies inside x - y iff x and y draw the same t coefficient,
        # so the skipped count follows the stream draw by draw.
        spec = RingSpec(XYZ)
        divisor = parse_series("x - y", XYZ, 1)
        draw = oracle_parametrized_draw(spec, {}, 1)
        for seed in range(3):
            report = sample_parametrized_arcs_check(spec, divisor, {}, 300, 1, seed)
            assert report.skipped_inside > 0
            assert report == oracle_report(draw, divisor, 300, 1, seed)

    @pytest.mark.parametrize("param", ["x:s^2,y:s^3", "x:1/4*s^2,y:1/8*s^3"])
    @pytest.mark.parametrize("divisor", ["x - z^3", "y - 2*z^3", "3/2*x - z^2"])
    def test_cusp(self, param, divisor):
        for truncation in range(2, 13):  # y^2 - x^3 is zero below 2
            spec = RingSpec(
                XYZ,
                (parse_series("y^2 - x^3", XYZ, truncation),),
                parse_series(divisor, XYZ, truncation),
            )
            powers = cusp_powers(param, truncation)
            draw = oracle_parametrized_draw(spec, powers, truncation)
            for seed in (0, 7):
                report = sample_parametrized_arcs_check(
                    spec, spec.divisor, powers, 20, truncation, seed
                )
                assert report == oracle_report(draw, spec.divisor, 20, truncation, seed)

    @pytest.mark.parametrize(
        "param, known", [("x:1+s", 16), ("x:s^2,y:s^2", 16), ("x:s^2,y:s^3", 4)]
    )
    def test_bad_hooks_fail_as_before(self, param, known):
        spec = cusp_spec(16)
        powers = cusp_powers(param, known)
        with pytest.raises(PreconditionError) as new:
            sample_parametrized_arcs_check(spec, spec.divisor, powers, 100, 16, seed=0)
        draw = oracle_parametrized_draw(spec, powers, 16)
        with pytest.raises(PreconditionError) as old:
            oracle_report(draw, spec.divisor, 100, 16, seed=0)
        assert (new.value.name, str(new.value)) == (old.value.name, str(old.value))
        # The images and relations are checked before any draw.
        with pytest.raises(PreconditionError) as early:
            sample_parametrized_arcs_check(spec, spec.divisor, powers, 0, 16, seed=0)
        assert (early.value.name, str(early.value)) == (old.value.name, str(old.value))

    def test_powers_outside_s_name_no_image(self):
        # the hook maps the listed variables to series in s
        spec = cusp_spec(16)
        powers = {"x": parse_series("t^2", ("t",), 16), "y": parse_series("t^3", ("t",), 16)}
        with pytest.raises(PreconditionError) as raised:
            sample_parametrized_arcs_check(spec, spec.divisor, powers, 10, 16, seed=0)
        assert raised.value.name == "substitute"

    @pytest.mark.parametrize(
        "variables, relation, param, divisor",
        [
            (("x", "y", "s"), "y^2 - x^3", "x:s^2,y:s^3", "x - s^3"),
            (XYZ, "y^3 - x^5", "x:s^3,y:s^5", "y - 2*z^2"),
            (XYZ, "(y-x)^2 - x^3", "x:s^2,y:s^2+s^3", "3/2*y - z^3"),
        ],
    )
    def test_composed_parametrizations(self, variables, relation, param, divisor):
        # The first ring has a variable named s, unlisted and drawn freely.
        for truncation in range(3, 13):  # every relation is zero below 2 or 3
            spec = RingSpec(
                variables,
                (parse_series(relation, variables, truncation),),
                parse_series(divisor, variables, truncation),
            )
            powers = cusp_powers(param, truncation)
            draw = oracle_parametrized_draw(spec, powers, truncation)
            for seed in (1, 8):
                report = sample_parametrized_arcs_check(
                    spec, spec.divisor, powers, 20, truncation, seed
                )
                assert report == oracle_report(draw, spec.divisor, 20, truncation, seed)

    @pytest.mark.parametrize("param", ["x:s^2,y:s^3", "x:s^2,y:s^2"])
    def test_relation_known_to_a_lower_truncation(self, param):
        # Known to degree 3, y^2 - x^3 holds along x = y = s^2 too: s^4 - s^6
        # vanishes to that degree.
        spec = RingSpec(
            XYZ, (parse_series("y^2 - x^3", XYZ, 3),), parse_series("x - z^3", XYZ, 12)
        )
        powers = cusp_powers(param, 12)
        draw = oracle_parametrized_draw(spec, powers, 12)
        for seed in range(3):
            report = sample_parametrized_arcs_check(spec, spec.divisor, powers, 30, 12, seed)
            assert report == oracle_report(draw, spec.divisor, 30, 12, seed)

    def test_negative_count_rejected(self):
        f = LocalModel(1, 1).element("v1 - u1^2", 8)
        with pytest.raises(PreconditionError) as info:
            sample_arcs_check(f, -1, 8, seed=0)
        assert info.value.name == "count"
        assert sample_arcs_check(f, 0, 8, seed=0).requested == 0

    def test_model_set_up_is_linear_in_the_nodes(self):
        # Finding each node's variables by position was quadratic in n: about
        # 7 s at n = 3000.
        f = LocalModel(3000, 0).element("u1 + v1")
        start = time.perf_counter()
        report = sample_arcs_check(f, 10, 16, seed=0)
        assert time.perf_counter() - start < 3
        assert (report.used, report.min_contact) == (10, 1)


class TestRandomDraws:
    def test_random_list_draws_as_choice(self):
        for seed in range(50):
            for truncation in range(21):
                fast, slow = random.Random(seed), random.Random(seed)
                expected = [0] + [slow.choice(COEFF_BOX) for _ in range(truncation)]
                assert _random_list(fast, truncation) == expected
                assert fast.getstate() == slow.getstate()


class TestContactLadder:
    """The contact read from rungs k = order, 2*order, ..., n is the first
    nonzero coefficient of the pull-back at full truncation n."""

    @staticmethod
    def climb(monkeypatch, terms, arc, order, n):
        """The contact and the truncations at which the pull-back was taken."""
        rungs = []

        def spy(terms, images, k):
            rungs.append(k)
            return pull_back(terms, images, k)

        with monkeypatch.context() as patch:
            patch.setattr(arcs, "pull_back", spy)
            contact = _first_nonzero(terms, arc, ladder(order, n))
        full = pull_back(terms, arc, n)
        assert contact == next((d for d, c in enumerate(full) if c), None)
        return contact, rungs

    @staticmethod
    def series_list(exponents, n):
        out = [0] * (n + 1)
        for d, c in exponents.items():
            out[d] = c
        return out

    @staticmethod
    def sampled_rungs(monkeypatch, check, *args):
        """The report of `check(*args)` and the truncations it pulled back at."""
        rungs = []

        def spy(terms, images, k):
            rungs.append(k)
            return pull_back(terms, images, k)

        with monkeypatch.context() as patch:
            patch.setattr(arcs, "pull_back", spy)
            report = check(*args)
        return report, rungs

    def test_sampling_starts_at_the_least_degree_pulled_back(self, monkeypatch):
        # y -> s^3 and z is free, so y - 2 z^3 composes to s^3 - 2 z^3: every
        # arc has contact >= 3 > ord = 1, and the first rung is 3.
        spec = RingSpec(
            XYZ, (parse_series("y^2 - x^3", XYZ, 16),), parse_series("y - 2*z^3", XYZ, 16)
        )
        powers = cusp_powers("x:s^2,y:s^3", 16)
        report, rungs = self.sampled_rungs(
            monkeypatch, sample_parametrized_arcs_check, spec, spec.divisor, powers, 30, 16, 3
        )
        assert (rungs[0], min(rungs), report.order) == (3, 3, 1)
        draw = oracle_parametrized_draw(spec, powers, 16)
        assert report == oracle_report(draw, spec.divisor, 30, 16, 3)
        # on a model the series pulled back is f itself: the first rung is ord f
        model = LocalModel(1, 1)
        f = model.element("w1^2 - u1^3 + 1/2*v1^2*w1", 12)
        report, rungs = self.sampled_rungs(monkeypatch, sample_arcs_check, f, 30, 12, 4)
        assert (rungs[0], min(rungs), report.order) == (2, 2, 2)
        assert report == oracle_report(oracle_model_draw(model, 12), f.series, 30, 12, 4)

    def test_cusp_contact_three_needs_two_more_rungs(self, monkeypatch):
        spec = RingSpec(
            XYZ, (parse_series("y^2 - x^3", XYZ, 16),), parse_series("y - 2*z^3", XYZ, 16)
        )
        terms = _compile(spec.divisor)
        # s = t + t^2, x = s^2, y = s^3, z = t: y - 2 z^3 = -t^3 + ...
        arc = [
            self.series_list({2: 1, 3: 2, 4: 1}, 16),
            self.series_list({3: 1, 4: 3, 5: 3, 6: 1}, 16),
            self.series_list({1: 1}, 16),
        ]
        assert self.climb(monkeypatch, terms, arc, 1, 16) == (3, [1, 2, 4])
        draw = oracle_parametrized_draw(spec, cusp_powers("x:s^2,y:s^3", 16), 16)
        rng = random.Random(5)
        contacts = set()
        for _ in range(40):
            images = draw(rng)
            contact, _ = self.climb(monkeypatch, terms, [images[v].dense() for v in XYZ], 1, 16)
            contacts.add(contact)
        assert 3 in contacts and min(contacts) >= 3

    def test_unit_divisor_has_order_zero(self, monkeypatch):
        spec = RingSpec(XYZ)
        divisor = parse_series("1 + x", XYZ, 8)
        terms = _compile(divisor)
        arc = [self.series_list({1: 3}, 8)] * 3
        assert self.climb(monkeypatch, terms, arc, 0, 8) == (0, [1])
        report = sample_parametrized_arcs_check(spec, divisor, {}, 10, 8, seed=2)
        assert (report.order, report.min_contact, report.used) == (0, 0, 10)

    def test_truncation_zero(self, monkeypatch):
        model = LocalModel(1, 1)
        f = model.element("v1 - u1^2", 8)
        terms = _compile(f.series)
        assert self.climb(monkeypatch, terms, [[0]] * 3, 1, 0) == (None, [0])
        unit = _compile(model.element("2 + w1", 8).series)
        assert self.climb(monkeypatch, unit, [[0]] * 3, 0, 0) == (0, [0])
        report = sample_arcs_check(f, 10, 0, seed=4)
        assert (report.used, report.skipped_inside) == (0, 10)
        assert report == oracle_report(oracle_model_draw(model, 0), f.series, 10, 0, 4)

    @pytest.mark.parametrize(
        "shape, text", [("n=1,m=1", "v1 - u1^2"), ("n=1,m=0", "u1^2 + v1^3"),
                        ("n=2,m=1", "u1*u2 + w1^3"), ("n=1,m=1", "w1^3 + 1/2*u1^4")],
    )
    def test_minimal_arcs_resolve_at_the_first_rung(self, monkeypatch, capsys, shape, text):
        # a generic direction makes the coefficient of t^ord nonzero: one
        # pull-back, at k = ord f, on the library call and through the CLI
        n, m = (int(part[2:]) for part in shape.split(","))
        element = LocalModel(n, m).element(text)
        order = element.order()
        minimal, rungs = self.sampled_rungs(monkeypatch, minimal_arc, element, 16, 0)
        assert (minimal.contact, rungs) == (order, [order])
        argv = ["arc", "--model", shape, "--f", text, "--minimal"]
        code, rungs = self.sampled_rungs(monkeypatch, main, argv)
        assert (code, json.loads(capsys.readouterr().out)["contact"], rungs) == (0, order, [order])
        through_z, rungs = self.sampled_rungs(monkeypatch, minimal_arc_through_Z, element, 16, 0)
        assert rungs == ([] if isinstance(through_z, ZArcNotFound) else [order])

    @pytest.mark.parametrize("n, rungs", [(16, [2, 4, 8, 16]), (13, [2, 4, 8, 13])])
    def test_inside_the_divisor_only_up_to_the_last_rung(self, monkeypatch, n, rungs):
        model = LocalModel(0, 2)
        terms = _compile(model.element("w1^2 - w2^3", n).series)
        w2 = self.series_list({2: 1}, n)
        # w1 = t^3 + 5 t^(n-3): w1^2 - w2^3 = 10 t^n + O(t^(n+1))
        near = [self.series_list({3: 1, n - 3: 5}, n), w2]
        assert self.climb(monkeypatch, terms, near, 2, n) == (n, rungs)
        inside = [self.series_list({3: 1}, n), w2]
        assert self.climb(monkeypatch, terms, inside, 2, n) == (None, rungs)
