"""Truncated multivariate formal power series with exact rational coefficients.

A series is stored as a finite map from exponent vectors (one nonnegative
integer per variable) to nonzero Fractions, together with an explicit
truncation degree T: terms of total degree > T are discarded and considered
unknown.  Example over (x, y) at T = 4:

    y - x^2   ->   {(0, 1): 1, (2, 0): -1}

Truncation is state, not a global mode.  Every binary operation returns the
minimum of the input truncations so a result never claims more precision
than its inputs support.  Coefficients are arbitrary-precision rationals;
there is no floating point anywhere.

Values are immutable after construction and all operations are pure, so
series are safe to share between threads.

An order of vanishing is an int, or None when the series is zero to its
truncation: None reads "at least truncation + 1", never exact vanishing,
and every layer up to the CLI, which writes it as "Infinite", keeps that one
reading.  `vanishing_order` refuses a zero series and a unit for the callers
that need a proper vanishing order, and `ladder` yields the doubling working
truncations that the family solver and arc sampling climb.

The univariate ring Q[t]/(t^(N+1)) also has a dense form, the one every
loop over it runs on: a list of N+1 coefficients indexed by degree, ints
where integral and Fractions otherwise.  A shorter list is a lower
truncation, dividing by t^nu is a slice, `mul_lists` multiplies, `sub_mul`
computes a - q*b in one product, `invert_list` inverts a unit,
`clear_denominators` scales a row of them to ints and `pull_back`
substitutes arcs, whose images must have a zero constant term.  Arc
contact and sampling, `substitute` (the relation check of a general arc),
a curve family's series, its integer gluing rows and the `smith` cores all
use it.  `PowerSeries.dense` converts at the boundaries: in `arc_contact`
and `substitute`, in the `smith` adapters, and once per parsed series in
`cli.load_family`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping, Optional, Union

from .errors import PreconditionError


Rational = Union[Fraction, int]
Exponent = tuple

DEFAULT_TRUNCATION = 16  # N when a caller gives none: CLI --N, elements, families


class PowerSeries:
    __slots__ = ("variables", "truncation", "coefficients")

    def __init__(
        self,
        variables: Iterable[str],
        coefficients: Mapping[Exponent, Rational],
        truncation: int,
    ):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise PreconditionError("variables", "duplicate variable name")
        if truncation < 0:
            raise PreconditionError("truncation", "truncation must be >= 0")
        nvars = len(variables)
        clean: dict = {}
        for exponent, value in coefficients.items():
            exponent = tuple(exponent)
            if len(exponent) != nvars:
                raise PreconditionError(
                    "exponent", f"exponent {exponent} does not match {nvars} variables"
                )
            if any(e < 0 for e in exponent):
                raise PreconditionError("exponent", f"negative exponent in {exponent}")
            if sum(exponent) > truncation:
                continue
            value = Fraction(value)
            if value:
                clean[exponent] = value
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "coefficients", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str], truncation: int) -> "PowerSeries":
        return cls(variables, {}, truncation)

    @classmethod
    def constant(
        cls, variables: Iterable[str], value: Rational, truncation: int
    ) -> "PowerSeries":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): Fraction(value)}, truncation)

    @classmethod
    def variable(
        cls, name: str, variables: Iterable[str], truncation: int
    ) -> "PowerSeries":
        variables = tuple(variables)
        if name not in variables:
            raise PreconditionError("variables", f"unknown variable {name!r}")
        exponent = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exponent: Fraction(1)}, truncation)

    @classmethod
    def univariate(
        cls, coefficients: Mapping[int, Rational], truncation: int, var: str = "t"
    ) -> "PowerSeries":
        return cls(
            (var,), {(d,): c for d, c in coefficients.items()}, truncation
        )

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coefficients

    def is_univariate(self) -> bool:
        return len(self.variables) == 1

    def constant_term(self) -> Fraction:
        return self.coefficients.get((0,) * len(self.variables), Fraction(0))

    def coefficient(self, exponent: Exponent) -> Fraction:
        return self.coefficients.get(tuple(exponent), Fraction(0))

    def order(self) -> Optional[int]:
        """Minimal total degree of a stored term; None if zero to truncation,
        which means at least truncation + 1, never exact vanishing."""
        if not self.coefficients:
            return None
        return min(sum(e) for e in self.coefficients)

    def leading_form(self) -> "PowerSeries":
        """The lowest-degree homogeneous part; its order is its degree."""
        nu = self.order()
        if nu is None:
            raise PreconditionError("zero-series", "zero series has no leading form")
        form = {e: c for e, c in self.coefficients.items() if sum(e) == nu}
        return PowerSeries(self.variables, form, self.truncation)

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "PowerSeries") -> int:
        if self.variables != other.variables:
            raise PreconditionError(
                "variable-mismatch",
                f"{self.variables} vs {other.variables}",
            )
        return min(self.truncation, other.truncation)

    def __add__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        truncation = self._check_compatible(other)
        merged = dict(self.coefficients)
        for e, c in other.coefficients.items():
            merged[e] = merged.get(e, Fraction(0)) + c
        return PowerSeries(self.variables, merged, truncation)

    def __sub__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        truncation = self._check_compatible(other)
        merged = dict(self.coefficients)
        for e, c in other.coefficients.items():
            merged[e] = merged.get(e, Fraction(0)) - c
        return PowerSeries(self.variables, merged, truncation)

    def __neg__(self):
        return PowerSeries(
            self.variables,
            {e: -c for e, c in self.coefficients.items()},
            self.truncation,
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        truncation = self._check_compatible(other)
        out: dict = {}
        for ea, ca in self.coefficients.items():
            da = sum(ea)
            for eb, cb in other.coefficients.items():
                if da + sum(eb) > truncation:
                    continue
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, Fraction(0)) + ca * cb
        return PowerSeries(self.variables, out, truncation)

    def scale(self, value: Rational) -> "PowerSeries":
        value = Fraction(value)
        return PowerSeries(
            self.variables,
            {e: c * value for e, c in self.coefficients.items()},
            self.truncation,
        )

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise PreconditionError("exponent", "powers must be nonnegative integers")
        result = PowerSeries.constant(self.variables, 1, self.truncation)
        order = self.order()
        if exponent and (order is None or order * exponent > self.truncation):
            return PowerSeries.zero(self.variables, self.truncation)
        # Square and multiply: O(log exponent) products, exact in the
        # truncated ring, so the result equals the exponent-fold product.
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.truncation == other.truncation
            and self.coefficients == other.coefficients
        )

    # -- structural operations ---------------------------------------------

    def zero_out(self, names: Iterable[str]) -> "PowerSeries":
        """Substitute 0 for the named variables; result lives over the rest."""
        names = set(names)
        unknown = names - set(self.variables)
        if unknown:
            raise PreconditionError("variables", f"unknown variables {sorted(unknown)}")
        keep = [i for i, v in enumerate(self.variables) if v not in names]
        kill = [i for i, v in enumerate(self.variables) if v in names]
        out: dict = {}
        for e, c in self.coefficients.items():
            if any(e[i] for i in kill):
                continue
            projected = tuple(e[i] for i in keep)
            out[projected] = out.get(projected, Fraction(0)) + c
        return PowerSeries(
            tuple(self.variables[i] for i in keep), out, self.truncation
        )

    def truncate(self, truncation: int) -> "PowerSeries":
        if truncation > self.truncation:
            raise PreconditionError(
                "truncation", "cannot raise the truncation of a series"
            )
        return PowerSeries(self.variables, self.coefficients, truncation)

    def dense(self) -> list:
        """Coefficients of a univariate series by degree, truncation + 1 of them.

        Integral coefficients come out as ints, so dense loops stay on
        plain ints.
        """
        if not self.is_univariate():
            raise PreconditionError("univariate", "dense needs one variable")
        out = [0] * (self.truncation + 1)
        for (d,), c in self.coefficients.items():
            out[d] = exact(c)
        return out

    def invert_unit(self) -> "PowerSeries":
        """Multiplicative inverse of a univariate series with nonzero constant term."""
        if not self.is_univariate():
            raise PreconditionError("univariate", "invert_unit needs one variable")
        if self.constant_term() == 0:
            raise PreconditionError("unit", "cannot invert: constant term is zero")
        return PowerSeries.univariate(
            dict(enumerate(invert_list(self.dense()))),
            self.truncation,
            self.variables[0],
        )

    def substitute(
        self, images: Mapping[str, "PowerSeries"], truncation: int
    ) -> "PowerSeries":
        """Replace each variable by a univariate series with zero constant term.

        The result is exact modulo t^(N+1) where N is the returned truncation:
        the minimum of the requested truncation, this series' truncation, and
        the truncations of the images actually used.  Images with nonzero
        constant term are rejected (substitution is centered at the origin).
        """
        missing = [v for v in self.variables if v not in images]
        if missing:
            raise PreconditionError("substitute", f"no image for variables {missing}")
        used = {v: images[v] for v in self.variables}
        tvars = {im.variables for im in used.values()}
        if len(tvars) > 1 or (tvars and len(next(iter(tvars))) != 1):
            raise PreconditionError(
                "substitute", "images must share a single univariate variable"
            )
        tvar = next(iter(tvars))[0] if tvars else "t"
        n = min(
            [truncation, self.truncation] + [im.truncation for im in used.values()]
        )
        for v, im in used.items():
            if im.constant_term() != 0:
                raise PreconditionError(
                    "substitute", f"image of {v!r} has a nonzero constant term"
                )
        terms = [(e, exact(c)) for e, c in self.coefficients.items()]
        pulled = pull_back(terms, [im.dense() for im in used.values()], n)
        return PowerSeries(
            (tvar,), {(d,): c for d, c in enumerate(pulled) if c}, n
        )

    # -- presentation ------------------------------------------------------

    def __repr__(self):
        return f"PowerSeries({self!s}, T={self.truncation})"

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for e in sorted(self.coefficients, key=lambda e: (sum(e), e)):
            c = self.coefficients[e]
            factors = [
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.variables, e)
                if k
            ]
            if not factors:
                body = str(abs(c))
            else:
                mono = "*".join(factors)
                body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def vanishing_order(series: PowerSeries, what: str) -> int:
    """Order of a series that vanishes at the origin: `what` zero to
    truncation fails `zero-series`, and one with a constant term `unit`."""
    order = series.order()
    if order is None:
        raise PreconditionError("zero-series", f"{what} is zero to truncation")
    if order == 0:
        raise PreconditionError("unit", f"{what} does not vanish at the origin")
    return order


def exact(value: Rational) -> Rational:
    """An integral rational as an int, so dense loops stay on plain ints."""
    return int(value) if value.denominator == 1 else value


def clear_denominators(row: list) -> tuple:
    """A row of dense entries times the lcm of their denominators, all ints,
    and that lcm.  The lcm is folded one entry at a time, so no argument
    tuple spans the whole row."""
    scale = 1
    for entry in row:
        scale = lcm(scale, *(c.denominator for c in entry))
    return [[c.numerator * (scale // c.denominator) for c in entry] for entry in row], scale


def mul_lists(a: list, b: list, n: int) -> list:
    """Product of two dense series modulo t^(n+1)."""
    out = [0] * (n + 1)
    nonzero_b = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in nonzero_b:
                if i + j > n:
                    break
                out[i + j] += ai * bj
    return out


def sub_mul(a: list, q: list, b: list) -> list:
    """a - q*b, known to the truncation of the shortest of the three."""
    n = min(len(a), len(q), len(b)) - 1
    return [x - y for x, y in zip(a, mul_lists(q, b, n))]


def invert_list(a: list) -> list:
    """Inverse of a dense unit (a[0] != 0), as long as a."""
    a0 = Fraction(a[0])
    tail = [(i, c) for i, c in enumerate(a) if i and c]
    out = [1 / a0]
    for k in range(1, len(a)):
        out.append(-sum(c * out[k - i] for i, c in tail if i <= k) / a0)
    return [exact(c) for c in out]


def pull_back(terms: Iterable, images: list, n: int) -> list:
    """Dense coefficients of sum c * prod_i images[i]^e_i modulo t^(n+1).

    `terms` holds (exponent, coefficient) pairs; `images` holds one dense
    list per exponent position, at least n + 1 long, and images[i][0] == 0
    is required: a nonzero constant term is silently dropped.  Each image
    is t times its shift image[1:], so a term of total degree d is
    c * t^d times a product of shifts, needed only to degree n - d: a term
    with d > n adds nothing, one with d = n adds c times a product of linear
    coefficients, and a shift's e-th power is kept to degree n - e.
    Unchecked: callers validate (`PowerSeries.substitute`,
    `arcs.arc_contact`) or build valid input (arc sampling).
    """
    shifts = [image[1 : n + 1] for image in images]
    powers: dict = {}  # powers[i][k] = shifts[i]^(k+1) to degree n - k - 1
    out = [0] * (n + 1)
    for exponent, coefficient in terms:
        d = sum(exponent)
        if d > n:
            continue
        term = None  # the product of shifts to degree n - d; None for [1]
        for i, e in enumerate(exponent):
            if not e:
                continue
            chain = powers.setdefault(i, [shifts[i]])
            while len(chain) < e:
                chain.append(mul_lists(chain[-1], shifts[i], n - len(chain) - 1))
            power = chain[e - 1]
            term = power[: n - d + 1] if term is None else mul_lists(term, power, n - d)
        for k, x in enumerate(term or [1], d):
            if x:
                out[k] += coefficient * x
    return out


def ladder(start: int, cap: int) -> Iterator[int]:
    """Working truncations max(start, 1), doubled each rung, capped at `cap`;
    the last rung is `cap` itself.  A truncated computation that resolves on
    a rung is the reduction of the one at `cap`."""
    k = min(max(start, 1), cap)
    yield k
    while k < cap:
        k = min(2 * k, cap)
        yield k
