"""Multiplicity and order-of-vanishing computations.

Two independent routes are provided and cross-checked in the tests:

* the branch-sum on standard nodal models, where the multiplicity of a
  divisor is the sum of the orders of its 2^n branch projections, and
* a Hilbert-Samuel oracle for arbitrary power-series quotients, which
  reads the dimension and the normalized leading coefficient off the finite
  differences of H(t) = dim_k O / (ideal + m^(t+1)).  The whole table up to
  t_max comes from one integer elimination whose columns are the standard
  monomials (those no single-term generator divides) in degree order, and
  a difference row counts as stabilized only on degrees at or above the
  largest generator order.  Monomials are packed into ints with a guard bit
  per variable, so a divisibility test is one subtraction.

The closed form for the standard model itself is 2^n.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import PreconditionError
from .linalg import pivot_columns, primitive
from .localmodel import BranchOrder, LocalModel, ModelElement, branch_orders
from .series import DEFAULT_TRUNCATION, PowerSeries, vanishing_order


@dataclass(frozen=True)
class RingSpec:
    """A quotient of a power series ring, with an optional divisor equation."""

    variables: Tuple[str, ...]
    relations: Tuple[PowerSeries, ...] = ()
    divisor: Optional[PowerSeries] = None

    def __post_init__(self):
        for g in self.generators():
            if g.variables != self.variables:
                raise PreconditionError(
                    "variable-mismatch",
                    f"generator over {g.variables}, spec has {self.variables}",
                )
            if g.is_zero():
                raise PreconditionError("zero-series", "zero ideal generator")
            if g.constant_term() != 0:
                raise PreconditionError(
                    "unit-ideal", "ideal generator has a nonzero constant term"
                )

    def generators(self) -> Tuple[PowerSeries, ...]:
        if self.divisor is not None:
            return self.relations + (self.divisor,)
        return self.relations


def model_ringspec(model: LocalModel, divisor: Optional[PowerSeries] = None) -> RingSpec:
    """Present a standard model (plus optional divisor) to the oracle."""
    variables = model.variables
    truncation = divisor.truncation if divisor is not None else DEFAULT_TRUNCATION
    relations = []
    for u, v in model.node_pairs():
        exponent = tuple(1 if name in (u, v) else 0 for name in variables)
        relations.append(PowerSeries(variables, {exponent: 1}, truncation))
    return RingSpec(variables, tuple(relations), divisor)


@dataclass(frozen=True)
class BranchSum:
    total: int
    per_branch: Tuple[BranchOrder, ...]


def mult_divisor_branchsum(element: ModelElement) -> BranchSum:
    """Multiplicity of the divisor as the sum of its branch orders.

    Each branch of the normalization is a power series ring, where the
    multiplicity of a divisor equals its order; the total is the sum over
    all 2^n branches.  Rejected when the divisor contains a branch or does
    not pass through the origin.
    """
    vanishing_order(element.series, "divisor equation")
    orders = branch_orders(element)
    if any(b.order is None for b in orders):
        raise PreconditionError(
            "divisor-contains-branch",
            "divisor vanishes identically on a branch (to truncation); "
            "multiplicity is undefined",
        )
    return BranchSum(sum(b.order for b in orders), orders)


def mult_model(model: LocalModel) -> int:
    """Multiplicity of the standard model at the origin: 2^n."""
    return 2 ** model.n


@dataclass
class HilbertSamuelTable:
    values: List[int]
    dimension: Optional[int]
    multiplicity: Optional[int]
    stabilized: bool
    t_max: int


# Most columns (standard monomials) `hilbert_samuel` enumerates before it
# rejects t_max: over 5x the largest table (5,551 columns) that a test, a
# golden case or a benchmark input builds.
MAX_COLUMNS = 30_000

# Depth of the table when the caller names none (`hs` and `mult --with-hs`).
DEFAULT_TMAX = 10


def _stable_tail(row: List[int]) -> Optional[int]:
    """Value of a row whose last >= 3 entries agree, else None."""
    if len(row) < 3:
        return None
    tail = row[-1]
    run = 0
    for value in reversed(row):
        if value == tail:
            run += 1
        else:
            break
    return tail if run >= 3 else None


def hilbert_samuel(spec: RingSpec, t_max: int = DEFAULT_TMAX) -> HilbertSamuelTable:
    """Hilbert-Samuel function of the quotient ring, from one elimination.

    H(t) = dim_Q O / (ideal + m^(t+1)) for every t <= t_max.  A generator
    with one term is a monomial generator.  The columns are the standard
    monomials of degree <= t_max, those no monomial generator divides, in
    degree order; the rows are the products (standard monomial) * (other
    generator) restricted to them.  That is the elimination of all products
    (monomial) * (generator) truncated at t_max, which holds each other
    monomial as a row of its own, with those columns projected away.  An
    echelon row whose pivot has degree > t vanishes in every degree <= t, so
    H(t) is the number of standard monomials of degree <= t minus the
    number of pivots of degree <= t.  A monomial is an int with one field
    per variable and a guard bit atop each field, so a product is a sum, a
    column is one dict lookup and a divisibility test is one subtraction.
    More than MAX_COLUMNS standard monomials fails the precondition `t-max`.
    The dimension is the smallest d whose d-th finite differences end in at
    least 3 equal nonzero entries, and the multiplicity is that value; only
    entries at t >= the largest generator order count, since a generator
    cannot act below its order (entry i of the d-th differences sits at
    t = i + d).  With no such run the table reports stabilized = False and
    no dimension or multiplicity.
    """
    if t_max < 3:
        raise PreconditionError("t-max", "t_max must be at least 3")
    generators = spec.generators()
    for g in generators:
        if g.truncation < t_max:
            raise PreconditionError(
                "insufficient-truncation",
                f"generator known only to degree {g.truncation} < t_max {t_max}",
            )
    nvars = len(spec.variables)
    # A monomial is an int with one field per variable, each
    # t_max.bit_length() + 1 bits wide: the top bit of a field is its guard
    # bit, and the rest holds any exponent up to t_max.  With every guard
    # set, subtracting a wall clears the guard of each field where the wall's
    # exponent is larger and borrows across no field, so the wall divides
    # the monomial exactly when every guard survives.
    width = t_max.bit_length() + 1
    guard = sum(1 << (width * (i + 1) - 1) for i in range(nvars))

    def pack(exponent):
        return sum(e << (width * i) for i, e in enumerate(exponent))

    # A wall of degree > t_max divides no monomial of degree <= t_max, and
    # its exponents could overflow a field, so it is left out.
    walls = [
        next(iter(g.coefficients)) for g in generators
        if len(g.coefficients) == 1 and g.order() <= t_max
    ]
    others = [g for g in generators if len(g.coefficients) > 1]
    # a monomial generator dividing x_i * (a standard monomial) contains x_i
    walls_through = [[pack(w) for w in walls if w[i]] for i in range(nvars)]
    units = [1 << (width * i) for i in range(nvars)]
    # (code, degree, last raised variable), breadth first and so in degree
    # order; raising from the last raised variable on makes each once.
    standard = [(0, 0, 0)]
    for code, degree, last in standard:
        if degree == t_max:
            break
        for i in range(last, nvars):
            raised = code + units[i]
            guarded = raised | guard
            for wall in walls_through[i]:
                if (guarded - wall) & guard == guard:
                    break
            else:
                standard.append((raised, degree + 1, i))
        if len(standard) > MAX_COLUMNS:
            raise PreconditionError(
                "t-max", f"more than {MAX_COLUMNS} standard monomials up to degree {t_max}"
            )
    column = {code: index for index, (code, _, _) in enumerate(standard)}
    degrees = [degree for _, degree, _ in standard]

    rows = []
    for g in others:
        terms = [(sum(e), pack(e), c) for e, c in primitive(g.coefficients).items()]
        # fitting[k]: the terms still of degree <= t_max after a shift of
        # degree k.  A term of degree > t_max packs to a meaningless code,
        # which is never looked up: it fits after no shift.
        fitting = [[(e, c) for d, e, c in terms if d <= t_max - k] for k in range(t_max + 1)]
        for code, degree in zip(column, degrees):
            fits = fitting[degree]
            if not fits:
                break  # degrees only grow, so no later shift fits either
            row = {
                col: c for e, c in fits if (col := column.get(code + e)) is not None
            }
            if row:
                rows.append(row)

    pivot_degrees = [degrees[col] for col in pivot_columns(rows)]
    values = [
        bisect_right(degrees, t) - bisect_right(pivot_degrees, t)
        for t in range(t_max + 1)
    ]

    differences = [values]
    while len(differences[-1]) > 1:
        prev = differences[-1]
        differences.append([b - a for a, b in zip(prev, prev[1:])])

    first_t = max((g.order() for g in generators), default=0)
    dimension = None
    multiplicity = None
    for d, row in enumerate(differences):
        tail = _stable_tail(row[max(0, first_t - d):])
        if tail is not None and tail != 0:
            dimension = d
            multiplicity = tail
            break
        if tail == 0:
            break
    return HilbertSamuelTable(
        values=values,
        dimension=dimension,
        multiplicity=multiplicity,
        stabilized=dimension is not None,
        t_max=t_max,
    )


@dataclass(frozen=True)
class InequalityReport:
    mult_divisor: int
    mult_model: int
    ord_divisor: int
    holds: bool
    equality: bool
    per_branch: Tuple[BranchOrder, ...]  # the branch sum behind mult_divisor


def check_eqnmat(element: ModelElement) -> InequalityReport:
    """Check mult(D) >= mult(V) * ord(D) on a standard model.

    The inequality always holds; the equality flag records whether the
    divisor achieves the smooth-case bound.
    """
    branch = mult_divisor_branchsum(element)
    ambient = mult_model(element.model)
    order = element.order()
    return InequalityReport(
        mult_divisor=branch.total,
        mult_model=ambient,
        ord_divisor=order,
        holds=branch.total >= ambient * order,
        equality=branch.total == ambient * order,
        per_branch=branch.per_branch,
    )
