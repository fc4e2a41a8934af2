"""The standard nodal local ring and its normalization branches.

A model with n nodes and m smooth factors is the complete local ring

    (tensor of k[[u_i, v_i]]/(u_i v_i) for i = 1..n) tensor k[[w_1..w_m]]

with canonical coordinates u1..un, v1..vn, w1..wm.  Elements are kept in
normal form: no monomial contains both u_i and v_i for the same node, since
those monomials are zero in the quotient.  The normalization has 2^n
branches, one for each choice of surviving coordinate at every node; the
locally trivial locus Z is the vanishing of all u_i and v_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Tuple

from .errors import PreconditionError
from .parsing import parse_series
from .series import DEFAULT_TRUNCATION, INFINITE, Order, PowerSeries

# Branch of the normalization: one surviving side per node, "u" or "v".
BranchIndex = Tuple[str, ...]


@dataclass(frozen=True)
class LocalModel:
    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise PreconditionError("model", "node and line counts must be >= 0")
        if 2 * self.n + self.m < 1:
            raise PreconditionError("model", "model needs at least one variable")

    @property
    def variables(self) -> Tuple[str, ...]:
        us = tuple(f"u{i}" for i in range(1, self.n + 1))
        vs = tuple(f"v{i}" for i in range(1, self.n + 1))
        ws = tuple(f"w{i}" for i in range(1, self.m + 1))
        return us + vs + ws

    @property
    def dimension(self) -> int:
        return self.n + self.m

    def node_pairs(self) -> Tuple[Tuple[str, str], ...]:
        return tuple((f"u{i}", f"v{i}") for i in range(1, self.n + 1))

    def smooth_variables(self) -> Tuple[str, ...]:
        return tuple(f"w{i}" for i in range(1, self.m + 1))

    def branches(self) -> Iterator[BranchIndex]:
        """All 2^n branches, u-side first at every node."""
        return product(("u", "v"), repeat=self.n)

    def element(self, text: str, truncation: int = DEFAULT_TRUNCATION) -> "ModelElement":
        return reduce(self, parse_series(text, self.variables, truncation))


@dataclass(frozen=True)
class ModelElement:
    model: LocalModel
    series: PowerSeries

    def order(self) -> Order:
        return self.series.order()

    def is_zero(self) -> bool:
        return self.series.is_zero()


def reduce(model: LocalModel, f: PowerSeries) -> ModelElement:
    """Normal form of f in the model: monomials containing u_i*v_i vanish.

    The surviving monomials are linearly independent in the quotient, so the
    result is the unique normal-form representative of f's residue class.
    """
    if f.variables != model.variables:
        raise PreconditionError(
            "variable-mismatch",
            f"series over {f.variables}, model has {model.variables}",
        )
    n = model.n
    keep = {}
    for exponent, coefficient in f.coefficients.items():
        if any(exponent[i] and exponent[n + i] for i in range(n)):
            continue
        keep[exponent] = coefficient
    return ModelElement(model, PowerSeries(f.variables, keep, f.truncation))


def branch_variables(model: LocalModel, branch: BranchIndex) -> Tuple[str, ...]:
    kept = tuple(
        f"{side}{i}" for i, side in enumerate(branch, start=1)
    )
    return kept + model.smooth_variables()


def branch_project(element: ModelElement, branch: BranchIndex) -> PowerSeries:
    """Project onto one branch of the normalization.

    At node i the discarded coordinate maps to 0 and the kept one survives,
    so the image lives in a power series ring in n + m variables.
    """
    model = element.model
    if len(branch) != model.n or any(side not in ("u", "v") for side in branch):
        raise PreconditionError("branch", f"invalid branch index {branch!r}")
    discard = [
        f"{'v' if side == 'u' else 'u'}{i}"
        for i, side in enumerate(branch, start=1)
    ]
    return element.series.zero_out(discard)


@dataclass(frozen=True)
class BranchOrder:
    branch: BranchIndex
    order: Order

    @property
    def vanishing(self) -> bool:
        return self.order is INFINITE


def branch_orders(element: ModelElement) -> Tuple[BranchOrder, ...]:
    """Orders of all 2^n branch projections, in canonical branch order.

    A branch whose projection is identically zero (to the working truncation)
    is reported with order INFINITE: the divisor contains that branch and
    downstream multiplicity is undefined there.  The minimum over branches
    equals the order of the normal form.
    """
    if element.is_zero():
        raise PreconditionError("zero-series", "element is zero to truncation")
    return tuple(
        BranchOrder(branch, branch_project(element, branch).order())
        for branch in element.model.branches()
    )


def branch_label(branch: BranchIndex) -> str:
    return "".join(branch) if branch else "-"
