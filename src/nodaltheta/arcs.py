"""Test arcs on standard models and on explicitly parametrized rings.

An arc is a ring map into k[[t]]/(t^(N+1)) centered at the origin.  On a
standard model the node relations force one of u_i, v_i to map to zero at
each node.  The contact order of a divisor along an arc is the t-order of
the pulled-back equation; an arc lying inside the divisor (zero pull-back to
truncation) is a distinguished outcome, not an exception, since sampling
must be able to skip it while direct queries report it.

Arbitrary rings get arcs only through user parametrizations: there is no
general arc-lifting solver here.

Sampling runs in one loop on dense coefficient lists (`series.pull_back`),
with the divisor and relations compiled once per call, denominators cleared.
Coefficient d of a pull-back depends only on the images' coefficients of
degree <= d, so the pull-back to k < n is the first k + 1 coefficients of the
one to n.  The contact is therefore read from a ladder of truncations
k = ord(f), 2 ord(f), ... (at least 1), capped at n; an arc is inside the
divisor only when the rung k = n is zero too.  Most arcs stop at the first
rung.  Relations are still checked at their full truncation.

Per seed the random stream is fixed: on a model one `random()` per node, then
one coefficient per degree for each free side and smooth variable (a random
valid arc); through a parametrization s first, then each unlisted variable.
A coefficient is drawn by `random.choice(COEFF_BOX)`'s own rejection loop,
getrandbits(5) until below 19, minus 9, without choice's call overhead: each
seed gives the same integers and leaves the generator in the same state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

from .errors import PreconditionError, VerificationError
from .localmodel import (
    BranchIndex,
    LocalModel,
    ModelElement,
    branch_orders,
    branch_project,
    branch_variables,
)
from .multiplicity import RingSpec
from .series import INFINITE, Order, PowerSeries, exact, pull_back

COEFF_BOX = range(-9, 10)
_BOX_SIZE, _BOX_LOW = len(COEFF_BOX), COEFF_BOX[0]
_BOX_BITS = _BOX_SIZE.bit_length()  # what `random.choice` draws per try
DIRECTION_BUDGET = 400  # random directions tried by `_generic_linear_arc`


@dataclass(frozen=True)
class ArcInsideDivisor:
    """The pull-back vanishes modulo t^(N+1): contact is at least N+1."""

    at_least: int


Contact = Union[int, ArcInsideDivisor]


@dataclass(frozen=True)
class Arc:
    model: LocalModel
    images: Mapping[str, PowerSeries]
    truncation: int

    def restricted(self, truncation: int) -> "Arc":
        if truncation > self.truncation:
            raise PreconditionError("truncation", "cannot extend an arc")
        images = {v: s.truncate(truncation) for v, s in self.images.items()}
        return Arc(self.model, images, truncation)


@dataclass(frozen=True)
class GeneralArc:
    spec: RingSpec
    images: Mapping[str, PowerSeries]
    truncation: int


def _validate_images(variables, images, truncation) -> Dict[str, PowerSeries]:
    unknown = set(images) - set(variables)
    if unknown:
        raise PreconditionError("arc", f"images for unknown variables {sorted(unknown)}")
    clean = {}
    for name in variables:
        if name not in images:
            raise PreconditionError("arc", f"missing image for variable {name!r}")
        image = images[name]
        series = isinstance(image, PowerSeries)
        if series and not image.is_univariate():
            raise PreconditionError("arc", f"image of {name!r} is not univariate")
        constant = image.constant_term() if series else (image[0] if image else 0)
        if constant != 0:
            raise PreconditionError(
                "arc", f"image of {name!r} has a nonzero constant term"
            )
        known = image.truncation if series else len(image) - 1
        if known < truncation:
            raise PreconditionError(
                "arc",
                f"image of {name!r} known only to degree {known} < {truncation}",
            )
        clean[name] = image.truncate(truncation) if series else image[: truncation + 1]
    return clean


def make_arc(
    model: LocalModel, images: Mapping[str, PowerSeries], truncation: int
) -> Arc:
    """Validate arc data on a standard model.

    k[[t]] is a domain, so u_i(t) * v_i(t) = 0 forces one factor to vanish
    at every node.
    """
    clean = _validate_images(model.variables, images, truncation)
    for u, v in model.node_pairs():
        if not clean[u].is_zero() and not clean[v].is_zero():
            raise PreconditionError(
                "node-constraint",
                f"both {u} and {v} have nonzero images; their product must be 0",
            )
    return Arc(model, clean, truncation)


def make_general_arc(
    spec: RingSpec, images: Mapping[str, PowerSeries], truncation: int
) -> GeneralArc:
    """Validate arc data on an arbitrary ring: every relation must pull back to 0."""
    clean = _validate_images(spec.variables, images, truncation)
    for relation in spec.relations:
        pulled = relation.substitute(clean, truncation)
        if not pulled.is_zero():
            raise PreconditionError(
                "relation-violated",
                f"relation {relation} does not vanish along the arc",
            )
    return GeneralArc(spec, clean, truncation)


def _contact(divisor: PowerSeries, images, truncation: int) -> Contact:
    if divisor.is_zero():
        raise PreconditionError("zero-series", "divisor equation is zero")
    pulled = divisor.substitute(images, truncation)
    order = pulled.order()
    if order is INFINITE:
        return ArcInsideDivisor(at_least=pulled.truncation + 1)
    return order


def arc_contact(arc: Arc, element: ModelElement) -> Contact:
    """t-order of the divisor equation pulled back along the arc."""
    if element.model != arc.model:
        raise PreconditionError("model-mismatch", "arc and element live on different models")
    return _contact(element.series, arc.images, arc.truncation)


def general_arc_contact(arc: GeneralArc, divisor: PowerSeries) -> Contact:
    return _contact(divisor, arc.images, arc.truncation)


@dataclass(frozen=True)
class MinimalArc:
    arc: Arc
    branch: BranchIndex
    contact: int


@dataclass(frozen=True)
class ZArcNotFound:
    """No arc through the locally trivial locus reaches the order of f."""

    best_contact: Order


def _evaluate(series: PowerSeries, point: Dict[str, Fraction]) -> Fraction:
    total = Fraction(0)
    for exponent, coefficient in series.coefficients.items():
        term = coefficient
        for name, e in zip(series.variables, exponent):
            if e:
                term *= point[name] ** e
        total += term
    return total


def _generic_linear_arc(
    form_series: PowerSeries,
    directions: Tuple[str, ...],
    rng: random.Random,
) -> Optional[Dict[str, Fraction]]:
    """Direction a with leading form nonvanishing at a; None after
    `DIRECTION_BUDGET` draws.

    Over an infinite field a generic direction works, so failures indicate a
    degenerate input rather than bad luck.
    """
    leading = form_series.leading_form().form
    for _ in range(DIRECTION_BUDGET):
        point = {name: Fraction(rng.randint(-9, 9)) for name in directions}
        if _evaluate(leading, point) != 0:
            return point
    return None


def _linear_arc(model: LocalModel, point: Dict[str, Fraction], truncation: int) -> Arc:
    """Each coordinate maps to its entry of `point` (0 if absent) times t."""
    images = {
        name: PowerSeries.univariate({1: point.get(name, 0)}, truncation)
        for name in model.variables
    }
    return make_arc(model, images, truncation)


def _require_arc_order(element: ModelElement, truncation: int) -> int:
    """The order of a vanishing element that an arc to `truncation` can attain."""
    order = element.order()
    if order is INFINITE:
        raise PreconditionError("zero-series", "element is zero to truncation")
    if order == 0:
        raise PreconditionError("unit", "element does not vanish at the origin")
    if truncation < order:
        raise PreconditionError(
            "truncation", f"arc truncation {truncation} below order {order}"
        )
    return order


def minimal_arc(element: ModelElement, truncation: int, seed: int) -> MinimalArc:
    """An arc whose contact equals the order of vanishing.

    Selects a branch of minimal order and takes a generic linear arc on it:
    coordinates map to a_j * t with the branch leading form nonvanishing at
    the direction vector, so the contact is exactly the order.
    """
    order = _require_arc_order(element, truncation)
    rng = random.Random(seed)
    best = min(branch_orders(element), key=lambda b: (b.order, b.branch))
    assert best.order == order
    branch = best.branch
    projected = branch_project(element, branch)
    direction = _generic_linear_arc(projected, branch_variables(element.model, branch), rng)
    if direction is None:
        raise PreconditionError(
            "arc-search",
            "no direction found with nonvanishing leading form; "
            "truncation too small or element vanishes on the branch",
        )
    arc = _linear_arc(element.model, direction, truncation)
    contact = arc_contact(arc, element)
    if contact != order:
        raise VerificationError(
            f"minimal arc contact {contact} differs from order {order}"
        )
    return MinimalArc(arc=arc, branch=branch, contact=contact)


def minimal_arc_through_Z(
    element: ModelElement, truncation: int, seed: int
) -> Union[MinimalArc, ZArcNotFound]:
    """Minimal-contact arc constrained to the locally trivial locus.

    Arcs through Z send every u_i and v_i to zero, so the best achievable
    contact is the order of the restriction of f to Z.  If that restriction
    has higher order than f itself, no such arc attains ord(f) and the best
    contact is reported instead.
    """
    order = _require_arc_order(element, truncation)
    model = element.model
    node_vars = [name for pair in model.node_pairs() for name in pair]
    restricted = element.series.zero_out(node_vars)
    z_order = restricted.order()
    if z_order is INFINITE or z_order > order:
        return ZArcNotFound(best_contact=z_order)
    rng = random.Random(seed)
    direction = _generic_linear_arc(restricted, model.smooth_variables(), rng)
    if direction is None:
        raise PreconditionError("arc-search", "no generic direction on Z found")
    arc = _linear_arc(model, direction, truncation)
    contact = arc_contact(arc, element)
    if contact != order:
        raise VerificationError(
            f"Z-arc contact {contact} differs from order {order}"
        )
    return MinimalArc(arc=arc, branch=(), contact=contact)


def _random_list(rng: random.Random, truncation: int) -> list:
    """[0], then `truncation` coefficients drawn as `rng.choice(COEFF_BOX)` draws."""
    out = [0]
    getrandbits = rng.getrandbits
    for _ in range(truncation):
        r = getrandbits(_BOX_BITS)
        while r >= _BOX_SIZE:
            r = getrandbits(_BOX_BITS)
        out.append(r + _BOX_LOW)
    return out


@dataclass(frozen=True)
class ArcSampleReport:
    requested: int
    used: int
    skipped_inside: int
    min_contact: Optional[int]
    order: int
    seed: int


def _compile(series: PowerSeries, names: Tuple[str, ...], integral: bool = True) -> list:
    """`series` as `pull_back` terms, exponents over `names`.  `integral` clears
    denominators: a nonzero scalar changes no t-order and no vanishing."""
    missing = [v for v in series.variables if v not in names]
    if missing:
        raise PreconditionError("substitute", f"no image for variables {missing}")
    scale = lcm(*(c.denominator for c in series.coefficients.values())) if integral else 1
    return [
        (tuple(dict(zip(series.variables, e)).get(v, 0) for v in names), exact(c * scale))
        for e, c in series.coefficients.items()
    ]


def _first_nonzero(terms: list, arc: list, order: int, n: int) -> Optional[int]:
    """Degree of the first nonzero coefficient of `pull_back(terms, arc, n)`,
    None if all are zero.  Rungs k = order, 2·order, ... (at least 1, at most
    n): the pull-back to k is the first k + 1 coefficients of the one to n."""
    k = min(max(order, 1), n)
    while True:
        contact = next((d for d, c in enumerate(pull_back(terms, arc, k)) if c), None)
        if contact is not None or k == n:
            return contact
        k = min(2 * k, n)


def _sample(
    draw: Callable[[random.Random], list], names: Tuple[str, ...], divisor: PowerSeries,
    order: int, relations: Tuple[PowerSeries, ...], count: int, truncation: int, seed: int,
) -> ArcSampleReport:
    """Check the relations and contact >= `order` on `count` arcs from `draw(rng)`,
    each dense lists in `names` order, truncation + 1 long, zero constant term.
    Arcs inside the divisor (to truncation) are skipped; a contact below the
    order would contradict the lower bound and raises loudly."""
    if count < 0:
        raise PreconditionError("count", f"arc count must be >= 0, got {count}")
    if truncation < 0:
        raise PreconditionError("truncation", "truncation must be >= 0")
    terms, n = _compile(divisor, names), min(truncation, divisor.truncation)
    checks = [(r, _compile(r, names), min(truncation, r.truncation)) for r in relations]
    rng = random.Random(seed)
    used = skipped = 0
    minimum: Optional[int] = None
    for _ in range(count):
        arc = draw(rng)
        for relation, relation_terms, relation_n in checks:
            if any(pull_back(relation_terms, arc, relation_n)):
                raise PreconditionError(
                    "relation-violated", f"relation {relation} does not vanish along the arc"
                )
        contact = _first_nonzero(terms, arc, order, n)
        if contact is None:
            skipped += 1
            continue
        used += 1
        if contact < order:
            raise VerificationError(f"sampled arc has contact {contact} < order {order}")
        if minimum is None or contact < minimum:
            minimum = contact
    return ArcSampleReport(count, used, skipped, minimum, order, seed)


def sample_arcs_check(
    element: ModelElement, count: int, truncation: int, seed: int
) -> ArcSampleReport:
    """Draw random arcs and check contact >= ord(f) on every one."""
    order = element.order()
    if order is INFINITE:
        raise PreconditionError("zero-series", "element is zero to truncation")
    if order == 0:
        raise PreconditionError("unit", "element does not vanish at the origin")
    names = element.model.variables
    pairs = [(names.index(u), names.index(v)) for u, v in element.model.node_pairs()]
    smooth = [names.index(w) for w in element.model.smooth_variables()]

    def draw(rng: random.Random) -> list:
        arc = [[0] * (truncation + 1)] * len(names)  # then overwrite the free sides
        for u, v in pairs:
            free_side = v if rng.random() < 0.5 else u
            arc[free_side] = _random_list(rng, truncation)
        for w in smooth:
            arc[w] = _random_list(rng, truncation)
        return arc

    return _sample(draw, names, element.series, order, (), count, truncation, seed)


Parametrization = Callable[[random.Random, int], Dict[str, list]]


def parametrization_from_powers(
    spec: RingSpec, powers: Mapping[str, PowerSeries]
) -> Parametrization:
    """Build a sampling hook from expressions in one auxiliary series s.

    Listed variables map to their expression evaluated at a random s with
    zero constant term; unlisted variables are drawn freely.  With the
    cuspidal pattern x = s^2, y = s^3 every draw satisfies y^2 = x^3.  The
    hook returns dense coefficient lists, never rescaled.
    """
    compiled = {}
    for name, expr in powers.items():
        if name not in spec.variables:
            raise PreconditionError("parametrize", f"unknown variable {name!r}")
        compiled[name] = (_compile(expr, ("s",), integral=False), expr.truncation)

    def draw(rng: random.Random, truncation: int) -> Dict[str, list]:
        s = [_random_list(rng, truncation)]
        images = {}
        for name in spec.variables:
            if name in compiled:
                terms, known = compiled[name]
                images[name] = pull_back(terms, s, min(truncation, known))
            else:
                images[name] = _random_list(rng, truncation)
        return images

    return draw


def sample_parametrized_arcs_check(
    spec: RingSpec,
    divisor: PowerSeries,
    parametrization: Parametrization,
    count: int,
    truncation: int,
    seed: int,
) -> ArcSampleReport:
    """Sampling check on an arbitrary ring through a parametrization hook;
    each draw is validated as `make_general_arc` validates its images."""
    order = divisor.order()
    if order is INFINITE:
        raise PreconditionError("zero-series", "divisor equation is zero")

    def draw(rng: random.Random) -> list:
        images = parametrization(rng, truncation)
        return list(_validate_images(spec.variables, images, truncation).values())

    return _sample(draw, spec.variables, divisor, order, spec.relations, count, truncation, seed)
