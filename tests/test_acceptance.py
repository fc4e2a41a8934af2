"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Every expected value is exact (integers computed over Q); the suites are
deterministic given the seeds fixed here.  Run with `pytest -s` to see the
per-criterion lines on success.
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from nodaltheta.arcs import (
    arc_contact,
    make_general_arc,
    minimal_arc,
    sample_arcs_check,
    sample_parametrized_arcs_check,
)
from nodaltheta.curve import (
    RationalNodalCurve,
    SheafFamily,
    TFSheaf,
    cohomology,
    constant_family,
    family_cohomology,
    h0,
    theta_invariants,
    twist_by_point,
    verify_theorem_A,
)
from nodaltheta.errors import IndeterminateAtTruncation
from nodaltheta.localmodel import LocalModel
from nodaltheta.multiplicity import (
    RingSpec,
    check_eqnmat,
    hilbert_samuel,
    model_ringspec,
    mult_divisor_branchsum,
)
from nodaltheta.parsing import parse_series

from test_multiplicity import random_clean_element

XYZ = ("x", "y", "z")


@contextmanager
def criterion(number, label):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL", file=sys.stderr)
        raise
    elapsed = time.time() - start
    print(f"criterion {number} ({label}): PASS [{elapsed:.2f}s]")


def curve_of(*pairs):
    return RationalNodalCurve(tuple((Fraction(p), Fraction(q)) for p, q in pairs))


def sheaf_of(nonfree, d, glue):
    return TFSheaf.make(nonfree, d, {j: Fraction(v) for j, v in glue.items()})


def test_criterion_1_node_line_parabola_divisor():
    with criterion(1, "parabola on the node-line model"):
        model = LocalModel(1, 1)
        element = model.element("v1 - u1^2", truncation=12)
        report = check_eqnmat(element)
        assert report.ord_divisor == 1
        assert report.mult_model == 2
        assert report.mult_divisor == 3
        branch = mult_divisor_branchsum(element)
        assert [b.order for b in branch.per_branch] == [2, 1]
        assert report.holds and not report.equality
        table = hilbert_samuel(model_ringspec(model, element.series), 10)
        assert table.stabilized
        assert table.multiplicity == 3


def test_criterion_2_cusp_arc_obstruction():
    with criterion(2, "cusp surface with a transverse divisor"):
        relations = (parse_series("y^2 - x^3", XYZ, 16),)
        divisor = parse_series("x - z^3", XYZ, 16)
        ambient = RingSpec(XYZ, relations)
        cut = RingSpec(XYZ, relations, divisor)
        assert hilbert_samuel(ambient, 10).multiplicity == 2
        table = hilbert_samuel(cut, 10)
        assert table.multiplicity == 2
        assert table.dimension == 1
        assert divisor.order() == 1

        powers = {"x": parse_series("s^2", ("s",), 16), "y": parse_series("s^3", ("s",), 16)}
        report = sample_parametrized_arcs_check(cut, divisor, powers, 100, 16, seed=0)
        assert report.min_contact == 2, "an arc achieved contact below 2"
        witness = make_general_arc(
            cut,
            {
                "x": parse_series("t^2", ("t",), 16),
                "y": parse_series("t^3", ("t",), 16),
                "z": parse_series("0", ("t",), 16),
            },
            16,
        )
        assert arc_contact(witness, divisor) == 2


def test_criterion_3_model_multiplicity_grid():
    with criterion(3, "standard-model multiplicity equals 2^n"):
        for n in range(0, 4):
            for m in range(0, 2):
                if 2 * n + m < 1:
                    spec = RingSpec((), ())
                else:
                    spec = model_ringspec(LocalModel(n, m))
                table = hilbert_samuel(spec, 10)
                assert table.stabilized
                assert table.multiplicity == 2**n, f"n={n}, m={m}"


def test_criterion_4_minimal_arc_attainment():
    with criterion(4, "minimal arcs attain the order; random arcs never beat it"):
        rng = random.Random(400)
        models = [
            LocalModel(n, m)
            for n in range(0, 4)
            for m in range(0, 3)
            if 2 * n + m >= 1
        ]
        checked = 0
        while checked < 200:
            model = models[rng.randrange(len(models))]
            f = random_clean_element(rng, model, truncation=6, max_degree=3)
            found = minimal_arc(f, 6, seed=checked)
            assert found.contact == f.order()
            report = sample_arcs_check(f, 50, 6, seed=checked)
            assert report.min_contact is None or report.min_contact >= f.order()
            checked += 1


def _effective_gluing(curve, nonfree, zeros):
    glue = {}
    for j in range(curve.genus):
        if j in nonfree:
            continue
        p, q = curve.nodes[j]
        lam = Fraction(1)
        for c in zeros:
            lam *= (p - c) / (q - c)
        glue[j] = lam
    return glue


def _random_curve(rng, g):
    points = rng.sample(range(-30, 31), 2 * g)
    return curve_of(*[(points[2 * i], points[2 * i + 1]) for i in range(g)])


def _hyperelliptic_case(g):
    # node pairs symmetric about z = 2: constants and z*(4-z) powers survive
    pairs = [(2 - k, 2 + k) for k in range(1, g + 1)]
    curve = curve_of(*pairs)
    glue = {j: Fraction(1) for j in range(g)}
    return curve, sheaf_of([], g - 1, glue)


def test_criterion_5_multiplicity_identity_suite():
    with criterion(5, "mult = 2^n * h0 across random curves and sheaves"):
        rng = random.Random(500)
        cases = []
        for g in range(1, 7):
            for size in range(0, g):
                curve = _random_curve(rng, g)
                nonfree = rng.sample(range(g), size)
                zeros = [Fraction(rng.randint(31, 90)) for _ in range(g - 1 - size)]
                sheaf = sheaf_of(nonfree, g - 1 - size, _effective_gluing(curve, nonfree, zeros))
                cases.append((curve, sheaf))
            # degree g-1 with every node nonfree forces a negative line
            # bundle, so h0 = 0 there: the on-theta span is 0..g-1
            if g >= 2:
                curve = _random_curve(rng, g)
                all_nonfree = sheaf_of(list(range(g)), -1, {})
                assert h0(curve, all_nonfree) == 0
        for g in range(3, 7):
            cases.append(_hyperelliptic_case(g))
        extra = 0
        while len(cases) < 52:
            g = rng.randint(2, 6)
            size = rng.randint(0, g - 1)
            curve = _random_curve(rng, g)
            nonfree = rng.sample(range(g), size)
            zeros = [Fraction(rng.randint(31, 90)) for _ in range(g - 1 - size)]
            cases.append(
                (curve, sheaf_of(nonfree, g - 1 - size, _effective_gluing(curve, nonfree, zeros)))
            )
            extra += 1

        sizes_seen = set()
        h0_seen = set()
        for index, (curve, sheaf) in enumerate(cases):
            h0_value, _ = cohomology(curve, sheaf)
            assert h0_value >= 1
            report = verify_theorem_A(curve, sheaf, 16, seed=index, random_families=3)
            n = sheaf.nonfree_count
            assert report.family_order == h0_value
            assert report.theta.mult_theta == 2**n * h0_value
            for order in report.random_family_orders:
                if isinstance(order, int):
                    assert order >= h0_value
            sizes_seen.add(n)
            h0_seen.add(h0_value)
        assert len(cases) >= 50
        assert sizes_seen >= set(range(0, 6))
        assert max(h0_seen) >= 2


def test_criterion_6_hand_derived_family_value():
    with criterion(6, "unit gluing family has contact order 1 at E = {2}"):
        curve = curve_of((0, 1))
        sheaf = sheaf_of([], 0, {0: 1})
        family = SheafFamily.make(
            sheaf, 16, {0: parse_series("1 + t", ("t",), 16).dense()}
        )
        result = family_cohomology(curve, family, aux_points=[Fraction(2)])
        assert result.theta_order == 1
        assert result.exponents == (1,)
        with pytest.raises(IndeterminateAtTruncation):
            family_cohomology(curve, constant_family(sheaf, 16), seed=0)


def test_criterion_7_euler_characteristic_suite():
    with criterion(7, "h0 - h1 = d - g + 1 over 200 random sheaves"):
        rng = random.Random(700)
        for _ in range(200):
            g = rng.randint(1, 6)
            curve = _random_curve(rng, g)
            size = rng.randint(0, g)
            nonfree = rng.sample(range(g), size)
            degree = rng.randint(-3, 2 * g)
            glue = {
                j: Fraction(rng.choice([c for c in range(-9, 10) if c]))
                for j in range(g)
                if j not in nonfree
            }
            sheaf = sheaf_of(nonfree, degree - size, glue)
            h0_value, h1_value = cohomology(curve, sheaf)
            assert h0_value - h1_value == degree - g + 1
            if degree == g - 1:
                assert h0_value == h1_value


def test_criterion_8_generic_twist_drops():
    with criterion(8, "generic point twists drop h0 one step at a time"):
        rng = random.Random(800)
        checked = 0
        while checked < 50:
            g = rng.randint(1, 5)
            curve = _random_curve(rng, g)
            size = rng.randint(0, g - 1)
            nonfree = rng.sample(range(g), size)
            zeros = [Fraction(rng.randint(31, 90)) for _ in range(g - 1 - size)]
            sheaf = sheaf_of(nonfree, g - 1 - size, _effective_gluing(curve, nonfree, zeros))
            h0_value = h0(curve, sheaf)
            if h0_value < 1:
                continue
            current = sheaf
            remaining = h0_value
            while remaining > 0:
                for _ in range(5):
                    point = Fraction(rng.randint(91, 300))
                    candidate = twist_by_point(current, point, -1, curve)
                    if h0(curve, candidate) == remaining - 1:
                        current = candidate
                        remaining -= 1
                        break
                else:
                    raise AssertionError(
                        f"no generic drop within budget at h0={remaining}"
                    )
            assert h0(curve, current) == 0
            checked += 1


def test_criterion_9_singular_locus_classification():
    with criterion(9, "theta singular locus is W1 union the boundary"):
        # genus 2 strata; the W1 cell is empty in genus 2 (two gluing
        # conditions on a 2-dimensional section space cannot both vanish),
        # so sheaves with h0 = 2 are exhibited in genus 3 and 4 instead.
        g2 = curve_of((0, 1), (2, 3))

        smooth_glue = {
            j: Fraction(5 - p, 5 - q) for j, (p, q) in enumerate(g2.nodes)
        }
        table = [
            # (curve, sheaf, h0, on_theta, in_w1, in_boundary, singular)
            (g2, sheaf_of([], 1, smooth_glue), 1, True, False, False, False),
            (g2, sheaf_of([], 1, {0: 7, 1: 11}), 0, False, False, False, False),
            (g2, sheaf_of([0], 0, {1: 1}), 1, True, False, True, True),
            (g2, sheaf_of([0], 0, {1: 3}), 0, False, False, False, False),
            (g2, sheaf_of([0, 1], -1, {}), 0, False, False, False, False),
        ]
        g3 = curve_of((0, 4), (1, 3), (-1, 5))
        table.append(
            (g3, sheaf_of([], 2, {0: 1, 1: 1, 2: 1}), 2, True, True, False, True)
        )
        g4 = curve_of((10, 11), (0, 4), (1, 3), (-1, 5))
        table.append(
            (g4, sheaf_of([0], 2, {1: 1, 2: 1, 3: 1}), 2, True, True, True, True)
        )
        for curve, sheaf, h0_expected, on_theta, in_w1, in_boundary, singular in table:
            assert h0(curve, sheaf) == h0_expected
            result = theta_invariants(curve, sheaf)
            assert result.on_theta == on_theta
            assert result.in_w1 == in_w1
            assert result.in_boundary == in_boundary
            assert result.singular == singular
            assert result.singular == (result.on_theta and (result.in_w1 or result.in_boundary))
