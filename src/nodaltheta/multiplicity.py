"""Multiplicity and order-of-vanishing computations.

Two independent routes are provided and cross-checked in the tests:

* the branch-sum on standard nodal models, where the multiplicity of a
  divisor is the sum of the orders of its 2^n branch projections, and
* a brute-force Hilbert-Samuel oracle for arbitrary power-series quotients,
  which reads the dimension and the normalized leading coefficient off the
  finite differences of H(t) = dim_k O / (ideal + m^(t+1)).  The whole
  table up to t_max comes from one integer elimination over columns in
  degree order, and a difference row counts as stabilized only on degrees
  at or above the largest generator order.

The closed form for the standard model itself is 2^n.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from operator import mul
from typing import List, Optional, Tuple

from .errors import PreconditionError
from .linalg import pivot_columns, primitive
from .localmodel import BranchOrder, LocalModel, ModelElement, branch_orders
from .series import DEFAULT_TRUNCATION, INFINITE, Order, PowerSeries


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


def ord_at_origin(element: ModelElement) -> Order:
    """Order of vanishing at the closed point: the order of the normal form."""
    return element.series.order()


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
    if element.is_zero():
        raise PreconditionError("zero-series", "divisor equation is zero")
    if element.series.constant_term() != 0:
        raise PreconditionError("unit", "divisor equation does not vanish at the origin")
    orders = branch_orders(element)
    if any(b.vanishing for b in orders):
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
    differences: List[List[int]]
    dimension: Optional[int]
    multiplicity: Optional[int]
    stabilized: bool
    t_max: int = field(default=0)


def _monomials_up_to(nvars: int, degree: int) -> List[Tuple[int, ...]]:
    if nvars == 0:
        return [()]
    out = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(range(nvars), d):
            exponent = [0] * nvars
            for i in combo:
                exponent[i] += 1
            out.append(tuple(exponent))
    return out


def _count_monomials(nvars: int, degree: int) -> int:
    total = 1
    count = 1
    for d in range(1, degree + 1):
        count = count * (d + nvars - 1) // d
        total += count
    return total


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


def hilbert_samuel(spec: RingSpec, t_max: int = 10) -> HilbertSamuelTable:
    """Brute-force Hilbert-Samuel function of the quotient ring.

    H(t) = dim_Q O / (ideal + m^(t+1)) for every t <= t_max, from one
    elimination.  The rows are all products (monomial) * (ideal generator)
    truncated at degree t_max, over columns numbered in degree order.  An
    echelon row whose pivot has degree > t vanishes in every degree <= t, so
    H(t) is the number of monomials of degree <= t minus the number of pivots
    of degree <= t.  The dimension is the smallest d whose d-th finite
    differences end in at least 3 equal nonzero entries, and the
    multiplicity is that value; only entries at t >= the largest generator
    order count, since a generator cannot act below its order (entry i of
    the d-th differences sits at t = i + d).  With no such run the table
    reports stabilized = False and no dimension or multiplicity.
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
    monomials = _monomials_up_to(nvars, t_max)
    degrees = [sum(mono) for mono in monomials]
    # Exponents packed as base-(t_max + 1) digits, so a product is a sum; no
    # digit overflows, since only products of degree <= t_max are looked up.
    weights = [(t_max + 1) ** i for i in range(nvars)]
    codes = [sum(map(mul, mono, weights)) for mono in monomials]
    column = {code: index for index, code in enumerate(codes)}

    rows = []
    for g in generators:
        terms = [
            (sum(e), sum(map(mul, e, weights)), c)
            for e, c in primitive(g.coefficients).items()
        ]
        for code, mono_degree in zip(codes, degrees):
            room = t_max - mono_degree
            row = {column[code + e]: c for degree, e, c in terms if degree <= room}
            if not row:
                break  # degrees only grow, so no later shift fits either
            rows.append(row)

    pivot_degrees = [degrees[col] for col in pivot_columns(rows)]
    values = [
        _count_monomials(nvars, t) - bisect_right(pivot_degrees, t)
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
        differences=differences[1:],
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
    order = ord_at_origin(element)
    assert order is not INFINITE
    return InequalityReport(
        mult_divisor=branch.total,
        mult_model=ambient,
        ord_divisor=order,
        holds=branch.total >= ambient * order,
        equality=branch.total == ambient * order,
        per_branch=branch.per_branch,
    )
