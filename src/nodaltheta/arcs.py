"""Test arcs on standard models and on explicitly parametrized rings.

An arc is a ring map into k[[t]]/(t^(N+1)) centered at the origin.  On a
standard model the node relations force one of u_i, v_i to map to zero at
each node.  The contact order of a divisor along an arc is the t-order of
the pulled-back equation.  `arc_contact` reports an arc lying inside the
divisor (zero pull-back to truncation) as `ArcInsideDivisor`, a truncation
bound rather than an error; sampling never calls it, and skips such an arc
when its own scan reads None.

One type, `Arc`, holds an arc on any ring: its images and truncation.
`make_arc` validates one on a standard model and `make_general_arc` on a
`RingSpec`; `arc_contact` reads the contact of a divisor series along either.
Arbitrary rings get arcs only through given images or user
parametrizations: there is no general arc-lifting solver here.

Sampling runs in one loop on dense coefficient lists (`series.pull_back`),
with the divisor compiled once per call, denominators cleared.  Coefficient
d of a pull-back depends only on the images' coefficients of degree <= d, so
the pull-back to k < n is the first k + 1 coefficients of the one to n.  The
contact is therefore read from the rungs k of `series.ladder(ord f, n)`;
an arc is inside the divisor only when the rung k = n is zero too.  Most
arcs stop at the first rung.

Through a parametrization (listed variables as series in one auxiliary s,
the others free) the relations and the divisor are composed once per call,
as series in s and the unlisted variables; a relation that does not compose
to zero is rejected before any draw.

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
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple, Union

from .errors import PreconditionError, VerificationError
from .localmodel import (
    BranchIndex,
    LocalModel,
    ModelElement,
    branch_project,
    branch_variables,
)
from .multiplicity import RingSpec
from .series import PowerSeries, exact, ladder, pull_back, vanishing_order

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
    """Images of the ring's variables in k[[t]]/(t^(truncation+1))."""

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
        if not image.is_univariate():
            raise PreconditionError("arc", f"image of {name!r} is not univariate")
        if image.constant_term() != 0:
            raise PreconditionError(
                "arc", f"image of {name!r} has a nonzero constant term"
            )
        if image.truncation < truncation:
            raise PreconditionError(
                "arc",
                f"image of {name!r} known only to degree {image.truncation} < {truncation}",
            )
        clean[name] = image.truncate(truncation)
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
    return Arc(clean, truncation)


def make_general_arc(
    spec: RingSpec, images: Mapping[str, PowerSeries], truncation: int
) -> Arc:
    """Validate arc data on an arbitrary ring: every relation must pull back to 0."""
    clean = _validate_images(spec.variables, images, truncation)
    for relation in spec.relations:
        pulled = relation.substitute(clean, truncation)
        if not pulled.is_zero():
            raise PreconditionError(
                "relation-violated",
                f"relation {relation} does not vanish along the arc",
            )
    return Arc(clean, truncation)


def arc_contact(arc: Arc, divisor: PowerSeries) -> Contact:
    """t-order of the divisor equation pulled back along the arc."""
    if divisor.is_zero():
        raise PreconditionError("zero-series", "divisor equation is zero")
    pulled = divisor.substitute(arc.images, arc.truncation)
    order = pulled.order()
    if order is None:
        return ArcInsideDivisor(at_least=pulled.truncation + 1)
    return order


@dataclass(frozen=True)
class MinimalArc:
    arc: Arc
    branch: BranchIndex
    contact: int


@dataclass(frozen=True)
class ZArcNotFound:
    """No arc through the locally trivial locus reaches the order of f."""

    best_contact: Optional[int]  # None: the restriction is zero to truncation


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
    leading = form_series.leading_form()
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
    order = vanishing_order(element.series, "element")
    if truncation < order:
        raise PreconditionError(
            "truncation", f"arc truncation {truncation} below order {order}"
        )
    return order


def minimal_arc(element: ModelElement, truncation: int, seed: int) -> MinimalArc:
    """An arc whose contact equals the order of vanishing.

    Takes the least branch of minimal order and a generic linear arc on it:
    coordinates map to a_j * t with the branch leading form nonvanishing at
    the direction vector, so the contact is exactly the order.  A monomial of
    degree ord(f) survives exactly on the branches that keep the side of each
    node it uses, and u is the least side at the others: no 2^n walk.
    """
    order = _require_arc_order(element, truncation)
    rng = random.Random(seed)
    n = element.model.n
    branch = min(
        tuple("v" if e[n + i] else "u" for i in range(n))
        for e in element.series.coefficients
        if sum(e) == order
    )
    projected = branch_project(element, branch)
    direction = _generic_linear_arc(projected, branch_variables(element.model, branch), rng)
    if direction is None:
        raise PreconditionError(
            "arc-search",
            "no direction found with nonvanishing leading form; "
            "truncation too small or element vanishes on the branch",
        )
    arc = _linear_arc(element.model, direction, truncation)
    contact = arc_contact(arc, element.series)
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
    if z_order is None or z_order > order:
        return ZArcNotFound(best_contact=z_order)
    rng = random.Random(seed)
    direction = _generic_linear_arc(restricted, model.smooth_variables(), rng)
    if direction is None:
        raise PreconditionError("arc-search", "no generic direction on Z found")
    arc = _linear_arc(model, direction, truncation)
    contact = arc_contact(arc, element.series)
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


def _compile(series: PowerSeries, names: Tuple[str, ...]) -> list:
    """`series` as `pull_back` terms, exponents over `names`, denominators
    cleared: a nonzero scalar changes no t-order and no vanishing."""
    scale = lcm(*(c.denominator for c in series.coefficients.values()))
    position = {v: i for i, v in enumerate(series.variables)}
    return [
        (tuple(e[position[v]] if v in position else 0 for v in names), exact(c * scale))
        for e, c in series.coefficients.items()
    ]


def _first_nonzero(terms: list, arc: list, rungs: Iterable[int]) -> Optional[int]:
    """Degree of the first nonzero coefficient of `pull_back(terms, arc, n)`,
    None if all are zero.  `rungs` is `ladder(order, n)`, built once per
    sampling call: the pull-back to k is the first k + 1 coefficients of the
    one to n."""
    for k in rungs:
        contact = next((d for d, c in enumerate(pull_back(terms, arc, k)) if c), None)
        if contact is not None:
            return contact
    return None


def _check_request(count: int, truncation: int) -> None:
    if count < 0:
        raise PreconditionError("count", f"arc count must be >= 0, got {count}")
    if truncation < 0:
        raise PreconditionError("truncation", "truncation must be >= 0")


def _sample(
    draw: Callable[[random.Random], list], names: Tuple[str, ...], divisor: PowerSeries,
    order: int, count: int, truncation: int, seed: int,
) -> ArcSampleReport:
    """Check contact >= `order` on `count` arcs from `draw(rng)`, each dense
    lists in `names` order, truncation + 1 long, zero constant term.  Arcs
    inside the divisor (to truncation) are skipped; a contact below the order
    would contradict the lower bound and raises loudly."""
    terms = _compile(divisor, names)
    rungs = tuple(ladder(order, min(truncation, divisor.truncation)))
    rng = random.Random(seed)
    used = skipped = 0
    minimum: Optional[int] = None
    for _ in range(count):
        contact = _first_nonzero(terms, draw(rng), rungs)
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
    order = vanishing_order(element.series, "element")
    _check_request(count, truncation)
    names = element.model.variables
    index = {name: i for i, name in enumerate(names)}
    pairs = [(index[u], index[v]) for u, v in element.model.node_pairs()]
    smooth = [index[w] for w in element.model.smooth_variables()]

    def draw(rng: random.Random) -> list:
        arc = [[0] * (truncation + 1)] * len(names)  # then overwrite the free sides
        for u, v in pairs:
            free_side = v if rng.random() < 0.5 else u
            arc[free_side] = _random_list(rng, truncation)
        for w in smooth:
            arc[w] = _random_list(rng, truncation)
        return arc

    return _sample(draw, names, element.series, order, count, truncation, seed)


def _compose(series: PowerSeries, images, formal, truncation: int) -> PowerSeries:
    """`series` with each variable replaced by its image over `formal`, to
    total degree min(truncation, series.truncation)."""
    missing = [v for v in series.variables if v not in images]
    if missing:  # a library caller's powers not in s, or divisor off the ring
        raise PreconditionError("substitute", f"no image for variables {missing}")
    n = min(truncation, series.truncation)
    total = PowerSeries.zero(formal, n)
    for e, c in series.coefficients.items():
        term = PowerSeries.constant(formal, c, n)
        for name, k in zip(series.variables, e):
            if k:
                term = term * images[name] ** k
        total = total + term
    return total


def sample_parametrized_arcs_check(
    spec: RingSpec,
    divisor: PowerSeries,
    powers: Mapping[str, PowerSeries],
    count: int,
    truncation: int,
    seed: int,
) -> ArcSampleReport:
    """Sampling check through a parametrization: variables in `powers` map
    to those series in s (x = s^2, y = s^3 puts every arc on y^2 = x^3), the
    others are drawn freely.  The images are validated once, as
    `make_general_arc` validates them.  Images of the formal variables
    (aux, *unlisted) have zero constant term, so a series composed to total
    degree n is its pull-back to t^n along every arc: one composition checks
    a relation, and an arc is the drawn lists [s, w_1, ...]."""
    for name in powers:
        if name not in spec.variables:
            raise PreconditionError("parametrize", f"unknown variable {name!r}")
    order = divisor.order()
    if order is None:
        raise PreconditionError("zero-series", "divisor equation is zero")
    _check_request(count, truncation)
    clean = _validate_images([v for v in spec.variables if v in powers], powers, truncation)
    aux = "s"
    while aux in spec.variables:
        aux += "'"
    formal = (aux,) + tuple(v for v in spec.variables if v not in powers)
    images = {v: PowerSeries.variable(v, formal, truncation) for v in formal}
    s = {"s": images.pop(aux)}
    images.update((v, _compose(expr, s, formal, truncation)) for v, expr in clean.items())
    for relation in spec.relations:
        if not _compose(relation, images, formal, truncation).is_zero():
            raise PreconditionError(
                "relation-violated", f"relation {relation} does not vanish along the arc"
            )

    def draw(rng: random.Random) -> list:
        return [_random_list(rng, truncation) for _ in formal]

    composed = _compose(divisor, images, formal, truncation)
    return _sample(draw, formal, composed, order, count, truncation, seed)
