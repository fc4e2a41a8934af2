"""Rational nodal curves, torsion-free sheaves, and theta-divisor invariants.

A curve of genus g is the projective line with g pairs of points glued into
nodes.  A rank-1 torsion-free sheaf is the pushforward of a line bundle from
the partial normalization at a subset S of nodes; it is described by S, the
degree of the line bundle, and one nonzero gluing scalar per remaining node.
Sections are identified with polynomials of degree <= dL satisfying
s(p_j) = lambda_j * s(q_j) at each glued node, so all cohomology is exact
linear algebra over Q.

One-parameter locally trivial families deform only the gluing scalars and
the positions of twist points.  Restricting the theta divisor to such a
family reduces to a square gluing matrix over Q[t]/(t^(N+1)) whose
elementary divisor exponents sum to the order of contact with theta
(`family_contact`).  `family_cohomology` reaches the same exponents through
an auxiliary divisor and an evaluation matrix, following the paper's proof;
it is kept as an independent oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import IndeterminateAtTruncation, PreconditionError, VerificationError
from .linalg import rank_dense
from .series import DEFAULT_TRUNCATION, PowerSeries, mul_lists
from .smith import constant_matrix, diagonalize, kernel_basis

DROP_RESAMPLES = 5  # random points tried per twist in `general_drop_check`
MINIMAL_FAMILY_BUDGET = 80  # divisor draws in `make_minimal_family`
AUX_BUDGET = 40  # auxiliary-divisor draws in `family_cohomology`


class InfinitePoint:
    """The point at infinity on the projective line; excluded from sheaf ops."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinity"


INFINITY = InfinitePoint()

Point = Union[Fraction, InfinitePoint]


@dataclass(frozen=True)
class RationalNodalCurve:
    """g pairs of distinct points on the line, glued pairwise into nodes."""

    nodes: Tuple[Tuple[Point, Point], ...]

    def __post_init__(self):
        if len(self.nodes) < 1:
            raise PreconditionError("curve", "genus must be at least 1")
        flat = [p for pair in self.nodes for p in pair]
        if len(set(flat)) != len(flat):
            raise PreconditionError("curve", "node points must be pairwise distinct")

    @property
    def genus(self) -> int:
        return len(self.nodes)

    def node_points(self) -> List[Point]:
        return [p for pair in self.nodes for p in pair]

    def require_finite(self):
        if any(isinstance(p, InfinitePoint) for p in self.node_points()):
            raise PreconditionError(
                "normalize-infinity",
                "node at infinity: change coordinates before sheaf operations",
            )


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


def _condition_rows(curve: RationalNodalCurve, sheaf: TFSheaf) -> List[List[Fraction]]:
    d = sheaf.line_degree
    rows = []
    for j, lam in sheaf.gluing:
        p, q = curve.nodes[j]
        rows.append([p**i - lam * q**i for i in range(d + 1)])
    return rows


def cohomology(curve: RationalNodalCurve, sheaf: TFSheaf) -> Tuple[int, int]:
    """h0 and h1 by exact linear algebra on the gluing conditions.

    Sections live on the partial normalization, so nodes in S impose no
    condition.  h1 follows from the same rank computation: the cokernel of
    the conditions plus the first cohomology of the underlying line bundle
    on the normalization.
    """
    curve.require_finite()
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


def h1(curve: RationalNodalCurve, sheaf: TFSheaf) -> int:
    return cohomology(curve, sheaf)[1]


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


@dataclass(frozen=True)
class DropReport:
    trials: int
    h0_drops: int
    h1_drops: int
    resamples_used: int


def general_drop_check(
    curve: RationalNodalCurve,
    sheaf: TFSheaf,
    trials: int,
    seed: int,
) -> DropReport:
    """Generic single-point twists drop h0 (and dually h1) by exactly one.

    For each trial, up to `DROP_RESAMPLES` random smooth points are drawn;
    at least one must drop h0 from h to h-1 under a downward twist, and when
    h1 > 0 at least one must drop h1 under an upward twist.
    """
    h0_value, h1_value = cohomology(curve, sheaf)
    if h0_value < 1:
        raise PreconditionError("drop-check", "sheaf has no sections to drop")
    rng = random.Random(seed)
    avoid = set(curve.node_points())
    resamples = 0
    h0_drops = 0
    h1_drops = 0
    for _ in range(trials):
        found = False
        for _ in range(DROP_RESAMPLES):
            point = _draw_point(rng, avoid)
            twisted = twist_by_point(sheaf, point, -1, curve)
            resamples += 1
            if h0(curve, twisted) == h0_value - 1:
                found = True
                break
        if not found:
            raise VerificationError(
                "no generic point dropped h0 within the resample budget"
            )
        h0_drops += 1
        if h1_value >= 1:
            found = False
            for _ in range(DROP_RESAMPLES):
                point = _draw_point(rng, avoid)
                twisted = twist_by_point(sheaf, point, 1, curve)
                resamples += 1
                if h1(curve, twisted) == h1_value - 1:
                    found = True
                    break
            if not found:
                raise VerificationError(
                    "no generic point dropped h1 within the resample budget"
                )
            h1_drops += 1
    return DropReport(trials, h0_drops, h1_drops, resamples)


@dataclass(frozen=True)
class Classification:
    on_theta: bool
    in_w1: bool
    in_boundary: bool
    singular: bool


def classify_theta_point(curve: RationalNodalCurve, sheaf: TFSheaf) -> Classification:
    """Theta-point classification: the singular locus is W1 union the boundary."""
    _require_theta_degree(curve, sheaf)
    return _classification(sheaf, cohomology(curve, sheaf)[0])


def _classification(sheaf: TFSheaf, h0_value: int) -> Classification:
    on_theta = h0_value >= 1
    in_w1 = h0_value >= 2
    in_boundary = bool(sheaf.nonfree) and on_theta
    return Classification(
        on_theta=on_theta,
        in_w1=in_w1,
        in_boundary=in_boundary,
        singular=on_theta and (in_w1 or in_boundary),
    )


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
    """
    _require_theta_degree(curve, sheaf)
    return _theta_report(sheaf, *cohomology(curve, sheaf))


def _theta_report(sheaf: TFSheaf, h0_value: int, h1_value: int) -> ThetaReport:
    if h0_value != h1_value:
        raise VerificationError("degree g-1 sheaf must have h0 = h1")
    n = sheaf.nonfree_count
    classification = _classification(sheaf, h0_value)
    return ThetaReport(
        n=n,
        h0=h0_value,
        h1=h1_value,
        ord=h0_value,
        mult_jacobian=2**n,
        mult_theta=2**n * h0_value,
        on_theta=classification.on_theta,
        singular=classification.singular,
    )


@dataclass(frozen=True)
class MovingPoint:
    base: Fraction
    trajectory: PowerSeries  # univariate in t, constant term = base


@dataclass(frozen=True)
class SheafFamily:
    """Locally trivial one-parameter deformation of a sheaf.

    Only the gluing scalars move (as unit series) and twist points travel
    along trajectories; the sheaf stays pushed forward at the nonfree nodes.
    """

    sheaf: TFSheaf
    truncation: int
    gluing_series: Tuple[Tuple[int, PowerSeries], ...]
    moving: Tuple[MovingPoint, ...] = ()

    @staticmethod
    def make(
        sheaf: TFSheaf,
        truncation: int,
        gluing_series: Dict[int, PowerSeries],
        moving: Sequence[MovingPoint] = (),
    ) -> "SheafFamily":
        items = tuple(sorted(gluing_series.items()))
        return SheafFamily(sheaf, truncation, items, tuple(moving))

    def validate_for(self, curve: RationalNodalCurve):
        self.sheaf.validate_for(curve)
        base_gluing = self.sheaf.gluing_map
        series_map = dict(self.gluing_series)
        if set(series_map) != set(base_gluing):
            raise PreconditionError(
                "family", "gluing series must cover exactly the free nodes"
            )
        for j, series in series_map.items():
            if not series.is_univariate():
                raise PreconditionError("family", "gluing series must be univariate")
            if series.constant_term() != base_gluing[j]:
                raise PreconditionError(
                    "family", f"gluing series at node {j} does not start at the base"
                )
            if series.truncation < self.truncation:
                raise PreconditionError(
                    "family", f"gluing series at node {j} known below truncation"
                )
        bases = [m.base for m in self.moving]
        if len(set(bases)) != len(bases):
            raise PreconditionError("family", "moving twist points must be distinct")
        node_points = set(curve.node_points())
        for m in self.moving:
            if m.base in node_points:
                raise PreconditionError("family", "moving point collides with a node")
            if m.trajectory.constant_term() != m.base:
                raise PreconditionError(
                    "family", "trajectory does not start at its base point"
                )
            if m.trajectory.truncation < self.truncation:
                raise PreconditionError("family", "trajectory known below truncation")


def constant_family(sheaf: TFSheaf, truncation: int) -> SheafFamily:
    gluing_series = {
        j: PowerSeries.univariate({0: lam}, truncation) for j, lam in sheaf.gluing
    }
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
        points = []
        seen = set(avoid)
        for _ in range(h0_value):
            point = _draw_point(rng, seen)
            seen.add(point)
            points.append(point)
        down = sheaf
        up = sheaf
        for point in points:
            down = twist_by_point(down, point, -1, curve)
            up = twist_by_point(up, point, 1, curve)
        if h0(curve, down) != 0 or h0(curve, up) != h0_value:
            continue
        moving = []
        for point in points:
            velocity = Fraction(rng.choice([c for c in range(-9, 10) if c]))
            trajectory = PowerSeries.univariate({0: point, 1: velocity}, truncation)
            moving.append(MovingPoint(base=point, trajectory=trajectory))
        gluing_series = {
            j: PowerSeries.univariate({0: lam}, truncation)
            for j, lam in sheaf.gluing
        }
        return SheafFamily.make(sheaf, truncation, gluing_series, moving)
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
) -> List[List[PowerSeries]]:
    """Gluing conditions on sections of the family twisted by E, mod t^(truncation+1).

    Row j is s(p_j) - c_j lambda_j(t) prod(p_j - m(t)) / prod(q_j - m(t)) s(q_j)
    over the moving points m, with c_j the constant cross-ratio factor; it
    is multiplied through by the unit prod(q_j - m(t)), which changes
    neither the cokernel nor its exponents.
    """
    n = truncation
    moving = [(m.base, [-c for c in m.trajectory.dense()[1: n + 1]]) for m in family.moving]
    rows = []
    for j, lam_series in family.gluing_series:
        p, q = curve.nodes[j]
        scalar = Fraction(1)
        for e in aux:
            scalar *= (p - e) / (q - e)
        left = [1] + [0] * n
        right = lam_series.dense()[: n + 1]
        for base, tail in moving:  # tail: -m(t) above its constant term
            scalar *= (q - base) / (p - base)
            left = mul_lists(left, [q - base] + tail, n)
            right = mul_lists(right, [p - base] + tail, n)
        right = [scalar * c for c in right]
        rows.append([[p**i * a - q**i * b for a, b in zip(left, right)] for i in range(ncols)])
    return [[PowerSeries.univariate(dict(enumerate(e)), n) for e in row] for row in rows]


def _evaluate_sections(
    aux: Sequence[Fraction],
    rows: List[List[PowerSeries]],
    ncols: int,
    truncation: int,
) -> List[List[PowerSeries]]:
    """Sections of the family twisted by E, evaluated at the points of E."""
    g = len(aux)
    sections = kernel_basis(rows, ncols, truncation)
    if len(sections) != g:
        raise VerificationError(
            f"section module has rank {len(sections)}, expected {g}"
        )
    phi = []
    for e in aux:
        phi_row = []
        powers = [e**i for i in range(ncols)]
        for section in sections:
            value = PowerSeries.zero(("t",), truncation)
            for power, coeff_series in zip(powers, section):
                if not coeff_series.is_zero():
                    value = value + coeff_series.scale(power)
            phi_row.append(value)
        phi.append(phi_row)
    return phi


def _solve_on_ladder(
    matrix_at: Callable[[int], List[List[PowerSeries]]], n_trunc: int
) -> FamilyCohomology:
    """Diagonalize `matrix_at(w)` at w = 1, 2, 4, ..., N; the first w that resolves.

    The matrix mod t^(w+1) is the reduction of the matrix mod t^(N+1), so a
    rung that resolves yields the exponents of the full computation.
    `IndeterminateAtTruncation` is raised only at N.
    """
    precision = min(1, n_trunc)
    while True:
        try:
            exponents, h0_rank = diagonalize(matrix_at(precision), precision)
            return FamilyCohomology(h0_rank, exponents, sum(exponents), (), precision)
        except IndeterminateAtTruncation:
            if precision == n_trunc:
                raise IndeterminateAtTruncation(n_trunc) from None
        precision = min(2 * precision, n_trunc)


def _require_family(curve: RationalNodalCurve, family: SheafFamily):
    curve.require_finite()
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

    E is drawn from the seed and re-drawn on degeneracy; `aux_points` pins
    it instead (no redraws).  Whether E is degenerate depends only on t = 0.

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
    rng = random.Random(seed)
    avoid = set(curve.node_points()) | {m.base for m in family.moving}
    if aux_points is not None:
        fixed = [Fraction(p) for p in aux_points]
        if len(fixed) != g or len(set(fixed)) != g or avoid & set(fixed):
            raise PreconditionError(
                "aux-divisor", f"need {g} distinct smooth points away from the data"
            )

    last_failure = None
    for attempt in range(AUX_BUDGET):
        if aux_points is not None:
            if attempt > 0:
                raise PreconditionError(
                    "aux-divisor-degenerate",
                    "pinned auxiliary divisor leaves first cohomology nonvanishing",
                )
            aux = list(fixed)
        else:
            aux = []
            seen = set(avoid)
            for _ in range(g):
                point = _draw_point(rng, seen)
                seen.add(point)
                aux.append(point)

        rows = _gluing_rows(curve, family, aux, ncols, 0)
        if rows and rank_dense(constant_matrix(rows)) < len(rows):
            last_failure = "rank"
            continue

        result = _solve_on_ladder(
            lambda w: _evaluate_sections(
                aux, _gluing_rows(curve, family, aux, ncols, w), ncols, w
            ),
            family.truncation,
        )
        return replace(result, aux_points=tuple(aux))
    raise PreconditionError(
        "aux-divisor-degenerate",
        f"no auxiliary divisor with vanishing h1 found in {AUX_BUDGET} draws "
        f"(last failure: {last_failure})",
    )


def random_gluing_family(
    curve: RationalNodalCurve,
    sheaf: TFSheaf,
    truncation: int,
    rng: random.Random,
) -> SheafFamily:
    """Random locally trivial deformation of the gluing scalars."""
    gluing_series = {}
    any_motion = False
    for j, lam in sheaf.gluing:
        coefficients = {0: lam}
        for degree in (1, 2, 3):
            c = rng.randint(-4, 4)
            if c:
                coefficients[degree] = Fraction(c) * lam
                any_motion = True
        gluing_series[j] = PowerSeries.univariate(coefficients, truncation)
    if not any_motion and sheaf.gluing:
        j, lam = sheaf.gluing[0]
        gluing_series[j] = PowerSeries.univariate({0: lam, 1: lam}, truncation)
    return SheafFamily.make(sheaf, truncation, gluing_series)


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
    """Cross-check the multiplicity identity mult = 2^n * h0 along families.

    The order of theta at the point is computed two ways: h0 by linear
    algebra, and the contact order of a minimal family; these must agree.
    Additional random gluing families must all have contact at least h0
    (families that vanish to truncation count as contact > N and pass).
    Any disagreement raises: it is either a bug or a counterexample.
    """
    _require_theta_degree(curve, sheaf)
    h0_value, h1_value = cohomology(curve, sheaf)
    if h0_value < 1:
        raise PreconditionError("off-theta", "sheaf has h0 = 0: not a theta point")
    family = _minimal_family(curve, sheaf, h0_value, truncation, seed)
    try:
        result = family_contact(curve, family)
    except IndeterminateAtTruncation as exc:
        raise VerificationError(
            "minimal family vanishes to truncation; its sections should "
            "obstruct that by construction"
        ) from exc
    if result.theta_order != h0_value:
        raise VerificationError(
            f"minimal family contact {result.theta_order} != h0 {h0_value}"
        )
    rng = random.Random(seed + 2)
    random_orders: List[Union[int, str]] = []
    for _ in range(random_families):
        deformation = random_gluing_family(curve, sheaf, truncation, rng)
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
