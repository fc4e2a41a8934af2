import random
from fractions import Fraction

import pytest

from nodaltheta.curve import (
    RationalNodalCurve,
    TFSheaf,
    _condition_rows,
    cohomology,
    h0,
    theta_invariants,
    twist_by_point,
)
from nodaltheta.errors import PreconditionError
from nodaltheta.linalg import rank_dense

from drop_check import general_drop_check


def curve_of(*pairs):
    return RationalNodalCurve(
        tuple((Fraction(p), Fraction(q)) for p, q in pairs)
    )


def sheaf_of(nonfree, d, glue):
    return TFSheaf.make(nonfree, d, {j: Fraction(v) for j, v in glue.items()})


G1 = curve_of((0, 1))
G2 = curve_of((0, 1), (2, 3))


def sections_vanishing_at(curve, sheaf, point):
    """Independent count of sections with s(point) = 0: rank with an extra row."""
    d = sheaf.line_degree
    if d < 0:
        return 0
    rows = []
    for j, lam in sheaf.gluing:
        p, q = curve.nodes[j]
        rows.append([p**i - lam * q**i for i in range(d + 1)])
    rows.append([Fraction(point) ** i for i in range(d + 1)])
    return (d + 1) - rank_dense(rows)


class TestCurveValidation:
    def test_distinct_points_required(self):
        with pytest.raises(PreconditionError):
            curve_of((0, 1), (1, 2))

    def test_genus_at_least_one(self):
        with pytest.raises(PreconditionError):
            RationalNodalCurve(())

    def test_gluing_must_cover_free_nodes(self):
        with pytest.raises(PreconditionError):
            cohomology(G2, sheaf_of([0], 0, {0: 1}))


class TestCohomology:
    def test_trivial_bundle_on_one_node(self):
        assert cohomology(G1, sheaf_of([], 0, {0: 1})) == (1, 1)

    def test_nontrivial_gluing_kills_sections(self):
        assert cohomology(G1, sheaf_of([], 0, {0: 2})) == (0, 0)

    def test_boundary_degree_zero_sheaf(self):
        assert cohomology(G1, sheaf_of([0], -1, {})) == (0, 0)

    def test_riemann_roch_over_random_sheaves(self):
        rng = random.Random(41)
        for _ in range(200):
            g = rng.randint(1, 5)
            points = rng.sample(range(-30, 31), 2 * g)
            curve = curve_of(*[(points[2 * i], points[2 * i + 1]) for i in range(g)])
            size = rng.randint(0, g)
            nonfree = rng.sample(range(g), size)
            degree = rng.randint(-3, 2 * g)
            d = degree - size
            glue = {
                j: Fraction(rng.choice([c for c in range(-9, 10) if c]))
                for j in range(g)
                if j not in nonfree
            }
            sheaf = sheaf_of(nonfree, d, glue)
            h0_value, h1_value = cohomology(curve, sheaf)
            assert h0_value - h1_value == degree - g + 1
            if degree == g - 1:
                assert h0_value == h1_value

    def test_degree_g_minus_1_self_duality(self):
        rng = random.Random(42)
        for _ in range(60):
            g = rng.randint(1, 6)
            points = rng.sample(range(-40, 41), 2 * g)
            curve = curve_of(*[(points[2 * i], points[2 * i + 1]) for i in range(g)])
            size = rng.randint(0, g)
            nonfree = rng.sample(range(g), size)
            glue = {
                j: Fraction(rng.choice([c for c in range(-9, 10) if c]))
                for j in range(g)
                if j not in nonfree
            }
            sheaf = sheaf_of(nonfree, g - 1 - size, glue)
            h0_value, h1_value = cohomology(curve, sheaf)
            assert h0_value == h1_value

    def test_integer_condition_rows_match_fraction_rows(self):
        # rational nodes and gluing; half the sheaves glue along a divisor,
        # so that a section exists and the rank drops
        rng = random.Random(43)
        drops = 0
        for trial in range(120):
            g = rng.randint(1, 6)
            points = set()
            while len(points) < 2 * g:
                points.add(Fraction(rng.randint(-30, 30), rng.randint(1, 7)))
            points = rng.sample(sorted(points), 2 * g)
            curve = curve_of(*[(points[2 * i], points[2 * i + 1]) for i in range(g)])
            nonfree = rng.sample(range(g), rng.randint(0, g - 1))
            d = rng.randint(0, g)
            # denominator 11: never a node point, so every scalar is nonzero
            roots = [Fraction(11 * rng.randint(-3, 3) + rng.randint(1, 10), 11) for _ in range(d)]
            glue = {}
            for j in range(g):
                if j in nonfree:
                    continue
                p, q = curve.nodes[j]
                glue[j] = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([-1, 1])
                if trial % 2:
                    glue[j] = Fraction(1)
                    for c in roots:
                        glue[j] *= (p - c) / (q - c)
            sheaf = sheaf_of(nonfree, d, glue)
            rows = _condition_rows(curve, sheaf)
            fraction_rows = [
                [p**i - lam * q**i for i in range(d + 1)]
                for (p, q), lam in ((curve.nodes[j], lam) for j, lam in sheaf.gluing)
            ]
            assert all(type(c) is int for row in rows for c in row)
            assert rank_dense(rows) == rank_dense(fraction_rows)
            drops += rank_dense(rows) < min(len(rows), d + 1)
        assert drops >= 20


class TestTwist:
    def test_down_twist_counts_vanishing_sections(self):
        rng = random.Random(43)
        for _ in range(60):
            g = rng.randint(1, 4)
            points = rng.sample(range(-20, 21), 2 * g)
            curve = curve_of(*[(points[2 * i], points[2 * i + 1]) for i in range(g)])
            glue = {j: Fraction(rng.choice([1, 1, 2, -3])) for j in range(g)}
            sheaf = sheaf_of([], rng.randint(0, g), glue)
            point = Fraction(rng.randint(31, 60))
            down = twist_by_point(sheaf, point, -1, curve)
            assert h0(curve, down) == sections_vanishing_at(curve, sheaf, point)

    def test_twist_then_untwist_is_identity(self):
        sheaf = sheaf_of([], 1, {0: 5, 1: Fraction(-2, 3)})
        point = Fraction(7)
        back = twist_by_point(
            twist_by_point(sheaf, point, -1, G2), point, 1, G2
        )
        assert back == sheaf

    def test_generic_down_twist_drops_trivial_bundle(self):
        sheaf = sheaf_of([], 0, {0: 1})
        down = twist_by_point(sheaf, Fraction(5), -1, G1)
        assert h0(G1, down) == 0

    def test_twist_at_node_rejected(self):
        with pytest.raises(PreconditionError):
            twist_by_point(sheaf_of([], 0, {0: 1}), Fraction(0), -1, G1)


class TestGeneralDrop:
    def test_drop_with_budget(self):
        curve = curve_of((0, 4), (1, 3))
        sheaf = sheaf_of([], 1, {0: 1, 1: 1})
        h0_value, _ = cohomology(curve, sheaf)
        assert h0_value >= 1
        report = general_drop_check(curve, sheaf, trials=10, seed=0)
        assert report.h0_drops == 10

    def test_iterated_twists_reach_zero(self):
        rng = random.Random(44)
        curve = curve_of((0, 4), (1, 3), (-1, 5))
        sheaf = sheaf_of([], 2, {0: 1, 1: 1, 2: 1})
        h0_value = h0(curve, sheaf)
        assert h0_value == 2
        current = sheaf
        remaining = h0_value
        for _ in range(h0_value):
            for _ in range(5):
                point = Fraction(rng.randint(7, 99))
                candidate = twist_by_point(current, point, -1, curve)
                if h0(curve, candidate) == remaining - 1:
                    current = candidate
                    remaining -= 1
                    break
            else:
                raise AssertionError("no generic point dropped h0")
        assert h0(curve, current) == 0

    def test_zero_sections_rejected(self):
        with pytest.raises(PreconditionError):
            general_drop_check(G1, sheaf_of([], 0, {0: 2}), trials=1, seed=0)


class TestThetaInvariants:
    def test_trivial_bundle(self):
        report = theta_invariants(G1, sheaf_of([], 0, {0: 1}))
        assert (report.n, report.h0, report.ord, report.mult_jacobian, report.mult_theta) == (
            0, 1, 1, 1, 1,
        )

    def test_boundary_sheaf_on_two_nodes(self):
        report = theta_invariants(G2, sheaf_of([0], 0, {1: 1}))
        assert (report.n, report.h0, report.mult_theta) == (1, 1, 2)
        assert report.singular

    def test_off_theta_boundary_point(self):
        report = theta_invariants(G1, sheaf_of([0], -1, {}))
        assert not report.on_theta
        assert report.mult_theta == 0

    def test_degree_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            theta_invariants(G1, sheaf_of([], 1, {0: 1}))


class TestClassification:
    def test_smooth_theta_point(self):
        # rank-1 gluing: the section is z - 5
        lam = {j: Fraction(5 - p, 5 - q) for j, (p, q) in enumerate(G2.nodes)}
        sheaf = sheaf_of([], 1, lam)
        assert h0(G2, sheaf) == 1
        result = theta_invariants(G2, sheaf)
        assert result.on_theta and not result.singular

    def test_boundary_singularity(self):
        result = theta_invariants(G2, sheaf_of([0], 0, {1: 1}))
        assert result.in_boundary and result.singular and not result.in_w1

    def test_w1_singularity(self):
        curve = curve_of((0, 4), (1, 3), (-1, 5))
        sheaf = sheaf_of([], 2, {0: 1, 1: 1, 2: 1})
        assert h0(curve, sheaf) == 2
        result = theta_invariants(curve, sheaf)
        assert result.in_w1 and result.singular and not result.in_boundary

    def test_off_theta_all_flags_false(self):
        result = theta_invariants(G2, sheaf_of([0, 1], -1, {}))
        assert result == theta_invariants(G2, sheaf_of([0, 1], -1, {}))
        assert not (result.on_theta or result.in_w1 or result.in_boundary or result.singular)
