"""Rational nodal curves, torsion-free sheaves, and theta-divisor invariants.

A curve of genus g is the projective line with g pairs of rational points
glued into nodes (a node at infinity is first moved by a change of
coordinates).  A rank-1 torsion-free sheaf is the pushforward of a line
bundle from the partial normalization at a subset S of nodes; it is
described by S, the degree of the line bundle, and one nonzero gluing
scalar per remaining node.  Sections are identified with polynomials of
degree <= dL satisfying s(p_j) = lambda_j * s(q_j) at each glued node, so
all cohomology is exact linear algebra over Q.  `theta_invariants` states
what is known at a point of theta, its classification included, in one
`ThetaReport`.

One-parameter locally trivial families deform only the gluing scalars and
the positions of twist points, each series a dense coefficient list over
Q[t]/(t^(N+1)) (`SheafFamily`).  Restricting the theta divisor to such a
family reduces to a square gluing matrix over Q[t]/(t^(N+1)) whose
elementary divisor exponents sum to the order of contact with theta
(`family_contact`).  `family_cohomology` reaches the same exponents through
an auxiliary divisor, drawn once, and an evaluation matrix, following the
paper's proof; it is kept as an independent oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import IndeterminateAtTruncation, PreconditionError, VerificationError
from .linalg import rank_dense
from .series import DEFAULT_TRUNCATION, clear_denominators, exact, ladder, mul_lists
from .smith import IntRows, dense_kernel, diagonalize

MINIMAL_FAMILY_BUDGET = 80  # divisor draws in `make_minimal_family`


@dataclass(frozen=True)
class RationalNodalCurve:
    """g pairs of distinct points on the line, glued pairwise into nodes."""

    nodes: Tuple[Tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if len(self.nodes) < 1:
            raise PreconditionError("curve", "genus must be at least 1")
        flat = [p for pair in self.nodes for p in pair]
        if len(set(flat)) != len(flat):
            raise PreconditionError("curve", "node points must be pairwise distinct")

    @property
    def genus(self) -> int:
        return len(self.nodes)

    def node_points(self) -> List[Fraction]:
        return [p for pair in self.nodes for p in pair]


@dataclass(frozen=True)
class TFSheaf:
    """Pushforward of a line bundle from the partial normalization at `nonfree`."""

    nonfree: frozenset
    line_degree: int
    gluing: Tuple[Tuple[int, Fraction], ...]

    @staticmethod
    def make(
        nonfree: Sequence[int], line_degree: int, gluing: Dict[int, Fraction]
    ) -> "TFSheaf":
        items = tuple(sorted((int(j), Fraction(v)) for j, v in gluing.items()))
        return TFSheaf(frozenset(int(j) for j in nonfree), line_degree, items)

    @property
    def gluing_map(self) -> Dict[int, Fraction]:
        return dict(self.gluing)

    @property
    def total_degree(self) -> int:
        return self.line_degree + len(self.nonfree)

    @property
    def nonfree_count(self) -> int:
        return len(self.nonfree)

    def validate_for(self, curve: RationalNodalCurve):
        g = curve.genus
        if not all(0 <= j < g for j in self.nonfree):
            raise PreconditionError("sheaf", "nonfree node index out of range")
        glued = set(self.gluing_map)
        expected = set(range(g)) - set(self.nonfree)
        if glued != expected:
            raise PreconditionError(
                "sheaf",
                f"gluing data must cover exactly the free nodes {sorted(expected)}",
            )
        if any(v == 0 for _, v in self.gluing):
            raise PreconditionError("sheaf", "gluing scalars must be nonzero")


def _node_row(p: Fraction, q: Fraction, left: list, right: list, k: int) -> List[list]:
    """The condition s(p) left = s(q) right on the coefficients of s, of
    degree <= k: entries p^i left - q^i right for i = 0..k, times
    den(p)^k den(q)^k, so that they are int lists when left and right are."""
    x, y = p.denominator**k, q.denominator**k  # p^i and q^i times those
    left, right = [y * a for a in left], [x * b for b in right]
    row = []
    for i in range(k + 1):
        if i:
            x, y = x // p.denominator * p.numerator, y // q.denominator * q.numerator
        row.append([x * a - y * b for a, b in zip(left, right)])
    return row


def _condition_rows(curve: RationalNodalCurve, sheaf: TFSheaf) -> List[List[int]]:
    """Row j is s(p_j) - lambda_j s(q_j), scaled to ints."""
    d = sheaf.line_degree
    return [
        [c for (c,) in _node_row(*curve.nodes[j], [lam.denominator], [lam.numerator], d)]
        for j, lam in sheaf.gluing
    ]


def cohomology(curve: RationalNodalCurve, sheaf: TFSheaf) -> Tuple[int, int]:
    """h0 and h1 by exact linear algebra on the gluing conditions.

    Sections live on the partial normalization, so nodes in S impose no
    condition.  h1 follows from the same rank computation: the cokernel of
    the conditions plus the first cohomology of the underlying line bundle
    on the normalization.
    """
    sheaf.validate_for(curve)
    d = sheaf.line_degree
    conditions = curve.genus - sheaf.nonfree_count
    if d < 0:
        h0 = 0
        rank = 0
    else:
        rank = rank_dense(_condition_rows(curve, sheaf))
        h0 = (d + 1) - rank
    h1 = (conditions - rank) + max(0, -d - 1)
    chi = sheaf.total_degree - curve.genus + 1
    if h0 - h1 != chi:
        raise VerificationError(
            f"Euler characteristic mismatch: h0={h0}, h1={h1}, chi={chi}"
        )
    return h0, h1


def h0(curve: RationalNodalCurve, sheaf: TFSheaf) -> int:
    return cohomology(curve, sheaf)[0]


def twist_by_point(sheaf: TFSheaf, point: Fraction, sign: int, curve: RationalNodalCurve) -> TFSheaf:
    """Twist by a smooth point: O(+p) or O(-p).

    The trivialization by polynomials shifts by the factor (z - p), which
    multiplies each gluing scalar by the corresponding cross-ratio; twisting
    down then up at the same point is the identity on the data.
    """
    if sign not in (1, -1):
        raise PreconditionError("twist", "sign must be +1 or -1")
    point = Fraction(point)
    if point in curve.node_points():
        raise PreconditionError("twist", "twist point collides with a node")
    new_gluing = {}
    for j, lam in sheaf.gluing:
        p, q = curve.nodes[j]
        factor = (p - point) / (q - point)
        new_gluing[j] = lam * factor if sign == 1 else lam / factor
    return TFSheaf.make(sorted(sheaf.nonfree), sheaf.line_degree + sign, new_gluing)


def _draw_point(rng: random.Random, avoid: set) -> Fraction:
    while True:
        value = Fraction(rng.randint(-60, 60), rng.randint(1, 6))
        if value not in avoid:
            return value


def _draw_points(rng: random.Random, avoid: set, count: int) -> List[Fraction]:
    """`count` distinct points from `_draw_point`, none of them in `avoid`."""
    seen, points = set(avoid), []
    for _ in range(count):
        points.append(_draw_point(rng, seen))
        seen.add(points[-1])
    return points


@dataclass(frozen=True)
class ThetaReport:
    n: int
    h0: int
    h1: int
    ord: int
    mult_jacobian: int
    mult_theta: int
    on_theta: bool
    singular: bool
    in_w1: bool
    in_boundary: bool
    exponents: Optional[Tuple[int, ...]] = None


def _require_theta_degree(curve: RationalNodalCurve, sheaf: TFSheaf):
    if sheaf.total_degree != curve.genus - 1:
        raise PreconditionError(
            "degree-mismatch",
            f"theta lives in degree {curve.genus - 1}, sheaf has degree "
            f"{sheaf.total_degree}",
        )


def theta_invariants(curve: RationalNodalCurve, sheaf: TFSheaf) -> ThetaReport:
    """Multiplicity and order of the theta divisor at the point of this sheaf.

    The order equals h0, the ambient multiplicity is 2^n for a sheaf failing
    to be locally free at n nodes, and the theta multiplicity is the product.
    The point is singular on theta when it lies in W1 (h0 >= 2) or in the
    boundary (on theta and not locally free).
    """
    _require_theta_degree(curve, sheaf)
    return _theta_report(sheaf, *cohomology(curve, sheaf))


def _theta_report(sheaf: TFSheaf, h0_value: int, h1_value: int) -> ThetaReport:
    n = sheaf.nonfree_count
    on_theta = h0_value >= 1
    in_w1 = h0_value >= 2
    in_boundary = n > 0 and on_theta
    return ThetaReport(
        n=n,
        h0=h0_value,
        h1=h1_value,
        ord=h0_value,
        mult_jacobian=2**n,
        mult_theta=2**n * h0_value,
        on_theta=on_theta,
        singular=in_w1 or in_boundary,
        in_w1=in_w1,
        in_boundary=in_boundary,
    )


@dataclass(frozen=True)
class SheafFamily:
    """Locally trivial one-parameter deformation of a sheaf.

    Only the gluing scalars move (as unit series) and twist points travel
    along trajectories; the sheaf stays pushed forward at the nonfree nodes.
    Each series is a dense list of N + 1 coefficients by degree, N the
    truncation; a trajectory's entry 0 is its base point.
    """

    sheaf: TFSheaf
    truncation: int
    gluing_series: Tuple[Tuple[int, list], ...]
    moving: Tuple[list, ...] = ()

    def __post_init__(self):
        if self.truncation < 0:
            raise PreconditionError("truncation", "truncation must be >= 0")

    @staticmethod
    def make(
        sheaf: TFSheaf,
        truncation: int,
        gluing_series: Dict[int, list],
        moving: Sequence[list] = (),
    ) -> "SheafFamily":
        items = tuple(sorted(gluing_series.items()))
        return SheafFamily(sheaf, truncation, items, tuple(moving))

    def validate_for(self, curve: RationalNodalCurve):
        self.sheaf.validate_for(curve)
        base_gluing = self.sheaf.gluing_map
        if {j for j, _ in self.gluing_series} != set(base_gluing):
            raise PreconditionError(
                "family", "gluing series must cover exactly the free nodes"
            )
        for j, series in self.gluing_series:
            if len(series) <= self.truncation:
                raise PreconditionError(
                    "family", f"gluing series at node {j} known below truncation"
                )
            if series[0] != base_gluing[j]:
                raise PreconditionError(
                    "family", f"gluing series at node {j} does not start at the base"
                )
        if any(len(trajectory) <= self.truncation for trajectory in self.moving):
            raise PreconditionError("family", "trajectory known below truncation")
        bases = [trajectory[0] for trajectory in self.moving]
        if len(set(bases)) != len(bases):
            raise PreconditionError("family", "moving twist points must be distinct")
        if set(bases) & set(curve.node_points()):
            raise PreconditionError("family", "moving point collides with a node")


def _dense(head: list, truncation: int) -> list:
    """The series whose lowest coefficients are `head`, as truncation + 1 entries."""
    return [exact(c) for c in head[: truncation + 1]] + [0] * (truncation + 1 - len(head))


def constant_family(sheaf: TFSheaf, truncation: int) -> SheafFamily:
    gluing_series = {j: _dense([lam], truncation) for j, lam in sheaf.gluing}
    return SheafFamily.make(sheaf, truncation, gluing_series)


def make_minimal_family(
    curve: RationalNodalCurve,
    sheaf: TFSheaf,
    truncation: int = DEFAULT_TRUNCATION,
    seed: int = 0,
) -> SheafFamily:
    """Family whose contact with theta is exactly h1 of the central fiber.

    Chooses h0 distinct generic smooth points D with h0(I(-D)) = 0 and
    h0(I(D)) = h0(I), then moves each point with nonzero velocity while
    subtracting the constant copy, so the family is locally trivial and the
    first-order direction vanishes nowhere on D.  For h0 = 0 the constant
    family is already minimal with contact zero.
    """
    _require_theta_degree(curve, sheaf)
    return _minimal_family(curve, sheaf, h0(curve, sheaf), truncation, seed)


def _minimal_family(
    curve: RationalNodalCurve, sheaf: TFSheaf, h0_value: int, truncation: int, seed: int
) -> SheafFamily:
    if h0_value == 0:
        return constant_family(sheaf, truncation)
    rng = random.Random(seed)
    avoid = set(curve.node_points())
    for _ in range(MINIMAL_FAMILY_BUDGET):
        points = _draw_points(rng, avoid, h0_value)
        down = sheaf
        up = sheaf
        for point in points:
            down = twist_by_point(down, point, -1, curve)
            up = twist_by_point(up, point, 1, curve)
        if h0(curve, down) != 0 or h0(curve, up) != h0_value:
            continue
        moving = tuple(
            _dense([point, rng.choice([c for c in range(-9, 10) if c])], truncation)
            for point in points
        )
        return replace(constant_family(sheaf, truncation), moving=moving)
    raise PreconditionError(
        "genericity-budget",
        f"no generic divisor of degree {h0_value} found in "
        f"{MINIMAL_FAMILY_BUDGET} draws",
    )


@dataclass(frozen=True)
class FamilyCohomology:
    h0_rank: int
    exponents: Tuple[int, ...]
    theta_order: int
    aux_points: Tuple[Fraction, ...]  # empty from `family_contact`
    precision: int  # working truncation that resolved the family, <= N


def _gluing_rows(
    curve: RationalNodalCurve,
    family: SheafFamily,
    aux: Sequence[Fraction],
    ncols: int,
    truncation: int,
) -> IntRows:
    """Gluing conditions on sections of the family twisted by E, mod
    t^(truncation+1), as dense int rows over the coefficients of a section.

    Row j is s(p_j) - c_j lambda_j(t) prod(p_j - m(t)) / prod(q_j - m(t)) s(q_j)
    over the moving points m, with c_j the constant cross-ratio factor.  It
    is multiplied through by the unit prod(q_j - m(t)) and by nonzero
    constants that make its coefficients ints: the denominator of
    lambda_j(t), for each m one common denominator of q_j - m(t) and
    p_j - m(t), and those of c_j and of the powers of p_j and q_j
    (`_node_row`).  No such scaling changes the cokernel or its exponents.
    """
    n = truncation
    moving = [(m[0], [-c for c in m[1: n + 1]]) for m in family.moving]
    rows = []
    for j, lam_series in family.gluing_series:
        p, q = curve.nodes[j]
        (right,), lam_scale = clear_denominators([lam_series[: n + 1]])
        scalar = Fraction(1, lam_scale)
        for e in aux:
            scalar = scalar * (p - e) / (q - e)
        left = [1] + [0] * n
        for base, tail in moving:  # tail: -m(t) above its constant term
            scalar = scalar * (q - base) / (p - base)
            (q_factor, p_factor), _ = clear_denominators([[q - base] + tail, [p - base] + tail])
            left = mul_lists(left, q_factor, n)
            right = mul_lists(right, p_factor, n)
        left = [scalar.denominator * a for a in left]
        right = [scalar.numerator * b for b in right]
        rows.append(_node_row(p, q, left, right, ncols - 1))
    return rows


def _evaluate_sections(
    aux: Sequence[Fraction],
    rows: IntRows,
    ncols: int,
    truncation: int,
) -> IntRows:
    """Sections of the family twisted by E, evaluated at the points of E;
    each row is scaled to ints, which moves no exponent."""
    g = len(aux)
    sections = dense_kernel(rows, ncols, truncation)
    if len(sections) != g:
        raise VerificationError(
            f"section module has rank {len(sections)}, expected {g}"
        )
    phi = []
    for e in aux:
        powers = [e**i for i in range(ncols)]
        values = [
            [sum(map(mul, powers, coefficients)) for coefficients in zip(*section)]
            for section in sections
        ]
        phi.append(clear_denominators(values)[0])
    return phi


def _solve_on_ladder(matrix_at: Callable[[int], IntRows], n_trunc: int) -> FamilyCohomology:
    """Diagonalize `matrix_at(w)` on the rungs w of `ladder(1, N)`; the first
    w that resolves.

    The matrix mod t^(w+1) is the reduction of the matrix mod t^(N+1), so a
    rung that resolves yields the exponents of the full computation.
    `IndeterminateAtTruncation` is raised only at N.
    """
    for precision in ladder(1, n_trunc):
        try:
            exponents, h0_rank = diagonalize(matrix_at(precision), precision)
        except IndeterminateAtTruncation:
            continue
        return FamilyCohomology(h0_rank, exponents, sum(exponents), (), precision)
    raise IndeterminateAtTruncation(n_trunc)


def _require_family(curve: RationalNodalCurve, family: SheafFamily):
    family.validate_for(curve)
    _require_theta_degree(curve, family.sheaf)


def family_contact(curve: RationalNodalCurve, family: SheafFamily) -> FamilyCohomology:
    """Restrict theta to the family and diagonalize its square gluing matrix.

    At a degree g-1 sheaf failing to be locally free at n nodes, sections
    are polynomials of degree <= dL = g-1-n, and H^1(P^1, O(dL)) = 0.  So the
    first cohomology of the family is the cokernel of the (g-n) x (g-n)
    matrix s -> s(p_j) - lambda_j(t) s(q_j) over Q[[t]], moving twist points
    included, and the contact order with theta is the sum of its elementary
    divisor exponents, equivalently the t-order of its determinant.

    The exponents are reported as n zeros followed by the gluing matrix's,
    which is the exponent list of the g x g evaluation matrix of
    `family_cohomology`, and the same working truncations 1, 2, 4, ..., N
    are tried in turn.
    """
    _require_family(curve, family)
    ncols = family.sheaf.line_degree + 1
    result = _solve_on_ladder(
        lambda w: _gluing_rows(curve, family, [], ncols, w), family.truncation
    )
    return replace(result, exponents=(0,) * family.sheaf.nonfree_count + result.exponents)


def family_cohomology(
    curve: RationalNodalCurve,
    family: SheafFamily,
    seed: int = 0,
    aux_points: Optional[Sequence[Fraction]] = None,
) -> FamilyCohomology:
    """Restrict theta to the family through an auxiliary divisor, as in the proof.

    An auxiliary divisor E of g generic smooth points makes the twisted
    family fiberwise without first cohomology; its sections over the
    truncated base form a free module of rank g, computed by eliminating the
    gluing conditions with unit pivots.  The g x g evaluation matrix at the
    points of E then has cokernel equal to the first cohomology of the
    family, so the contact order with theta is the sum of its elementary
    divisor exponents, equivalently the t-order of its determinant.  This is
    the independent oracle of `family_contact`.

    E is drawn once from the seed, or pinned by `aux_points`: no g distinct
    points away from the nodes and moving points fail.  At t = 0 the twisted
    sheaf has degree 2g-1-n > 2(g-n)-2 on the partial normalization at its n
    nonfree nodes, of arithmetic genus g-n, so h1 = 0 and its g-n gluing
    rows have full rank; `dense_kernel` still checks that rank.

    The family is solved at working truncations w = 1, 2, 4, ..., N (the
    family's truncation) and the first w that resolves is returned, with
    every cross-check applied at that w.  Unit-pivot elimination mod
    t^(w+1) is the reduction of the same elimination mod t^(N+1), so a
    determinant that is nonzero mod t^(w+1) yields the exponents of the
    full computation.  `IndeterminateAtTruncation` is raised only at N.
    """
    _require_family(curve, family)
    g = curve.genus
    ncols = family.sheaf.line_degree + g + 1
    avoid = set(curve.node_points()) | {m[0] for m in family.moving}
    if aux_points is None:
        aux = _draw_points(random.Random(seed), avoid, g)
    else:
        aux = [Fraction(p) for p in aux_points]
        if len(aux) != g or len(set(aux)) != g or avoid & set(aux):
            raise PreconditionError(
                "aux-divisor", f"need {g} distinct smooth points away from the data"
            )
    result = _solve_on_ladder(
        lambda w: _evaluate_sections(
            aux, _gluing_rows(curve, family, aux, ncols, w), ncols, w
        ),
        family.truncation,
    )
    return replace(result, aux_points=tuple(aux))


def random_gluing_family(sheaf: TFSheaf, truncation: int, rng: random.Random) -> SheafFamily:
    """Random locally trivial deformation of the gluing scalars: each lambda
    moves as lambda (1 + c1 t + c2 t^2 + c3 t^3), c drawn from -4..4, or the
    first as lambda (1 + t) if every c is 0, decided before the cut to N."""
    gluing_series = {
        j: [c * lam for c in [1] + [rng.randint(-4, 4) for _ in range(3)]]
        for j, lam in sheaf.gluing
    }
    if sheaf.gluing and not any(c for s in gluing_series.values() for c in s[1:]):
        j, lam = sheaf.gluing[0]
        gluing_series[j] = [lam, lam]
    return SheafFamily.make(
        sheaf, truncation, {j: _dense(s, truncation) for j, s in gluing_series.items()}
    )


@dataclass(frozen=True)
class TheoremAReport:
    theta: ThetaReport
    family_order: int
    random_family_orders: Tuple[Union[int, str], ...]
    seed: int


def verify_theorem_A(
    curve: RationalNodalCurve,
    sheaf: TFSheaf,
    truncation: int = DEFAULT_TRUNCATION,
    seed: int = 0,
    random_families: int = 3,
) -> TheoremAReport:
    """Derive ord(theta) = h0 at a theta point two ways, and bound it along families.

    h0 comes from linear algebra on the gluing conditions; the minimal
    family's contact and its corank at t = 0 must both equal it.  Random
    gluing families must all have contact at least h0 (families that vanish
    to truncation count as contact > N and pass).  Any disagreement raises:
    it is either a bug or a counterexample.  The reported multJ = 2^n and
    multTheta = 2^n * h0 are the paper's formula evaluated at (n, h0), not
    derived here.
    """
    if random_families < 0:
        raise PreconditionError(
            "families", f"random family count must be >= 0, got {random_families}"
        )
    _require_theta_degree(curve, sheaf)
    h0_value, h1_value = cohomology(curve, sheaf)
    if h0_value < 1:
        raise PreconditionError("off-theta", "sheaf has h0 = 0: not a theta point")
    if truncation < h0_value:
        raise PreconditionError("truncation", f"N = {truncation} is below h0 = {h0_value}")
    family = _minimal_family(curve, sheaf, h0_value, truncation, seed)
    try:
        result = family_contact(curve, family)
    except IndeterminateAtTruncation as exc:
        raise VerificationError(
            "minimal family vanishes to truncation; its sections should "
            "obstruct that by construction"
        ) from exc
    if result.theta_order != h0_value or result.h0_rank != h0_value:
        raise VerificationError(
            f"minimal family contact {result.theta_order} and t = 0 corank "
            f"{result.h0_rank} must both equal h0 {h0_value}"
        )
    rng = random.Random(seed + 2)
    random_orders: List[Union[int, str]] = []
    for _ in range(random_families):
        deformation = random_gluing_family(sheaf, truncation, rng)
        try:
            outcome = family_contact(curve, deformation)
        except IndeterminateAtTruncation:
            random_orders.append("indeterminate")
            continue
        if outcome.theta_order < h0_value:
            raise VerificationError(
                f"random family contact {outcome.theta_order} below h0 {h0_value}"
            )
        random_orders.append(outcome.theta_order)
    report = replace(_theta_report(sheaf, h0_value, h1_value), exponents=result.exponents)
    return TheoremAReport(
        theta=report,
        family_order=result.theta_order,
        random_family_orders=tuple(random_orders),
        seed=seed,
    )
