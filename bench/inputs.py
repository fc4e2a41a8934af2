"""Seeded input generators and the benchmark's own expected values.

Everything here is plain data built from `random.Random(seed)`: node
coordinates, gluing scalars, divisor coefficients and CLI argument lists.
Nothing is imported from the library or from its tests, so the library only
ever sees generated inputs.  The expected values computed here (h0 by rank,
branch orders, orders of vanishing, cusp multiplicities) are independent
derivations used to check the library's outputs.

Each generator returns a list of `Input`.  `size` is the input's size class,
1 to 5, reported as `case_s.size1` .. `case_s.size5`:

* theta-verify: genus g = size + 1 (2 to 6);
* local-oracle: Hilbert-Samuel depth tmax = size + 9 (10 to 14);
* arc-sampling: arc truncation N = 2 * size + 6 (8 to 16).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Tuple

THETA_N = 16
THETA_FAMILIES = 3
# Cases per (genus, nonfree count) stratum.  Small genera get more cases so
# their per-genus means rest on several curves, and so that the median input
# sits in a dense band of similar costs; g = 7 and 8 are left out
# because one all-free case costs 17 s and 52 s at this commit (baseline.json).
THETA_REPEATS = {2: 8, 3: 6, 4: 3, 5: 1, 6: 1}
NODE_RANGE = 12  # node coordinates are distinct integers in [-12, 12]
ZERO_RANGE = (13, 40)  # section zeros lie right of every node

ORACLE_MODELS = ((0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2))
ARC_MODELS = ((1, 1), (1, 2), (2, 1))
ARC_COUNT = 400
DIVISOR_DEGREES = (1, 2, 2, 3)


@dataclass
class Input:
    """One benchmark input: a CLI argv plus what the benchmark knows about it.

    `expect` holds the independent derivations a check compares against;
    `lib_args` is set for inputs that run as a direct library call.
    """

    size: int
    argv: List[str]
    expect: Dict = field(default_factory=dict)
    lib_args: Optional[Dict] = None

    @property
    def key(self) -> str:
        return json.dumps(self.argv, separators=(",", ":"))


def rational_text(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# -- exact rank, for h0 ------------------------------------------------------


def rank_over_q(rows: List[List[Fraction]]) -> int:
    """Rank by plain Gaussian elimination over Fractions."""
    work = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        head = work[rank]
        for i in range(rank + 1, len(work)):
            factor = work[i][col] / head[col]
            if factor:
                work[i] = [a - factor * b for a, b in zip(work[i], head)]
        rank += 1
    return rank


def h0_by_rank(nodes, glue: Dict[int, Fraction], line_degree: int) -> int:
    """Sections of degree <= dL with s(p_j) = lambda_j s(q_j) at glued nodes."""
    if line_degree < 0:
        return 0
    rows = [
        [Fraction(p) ** i - lam * Fraction(q) ** i for i in range(line_degree + 1)]
        for j, lam in sorted(glue.items())
        for p, q in [nodes[j]]
    ]
    return line_degree + 1 - rank_over_q(rows)


# -- theta-verify ------------------------------------------------------------


def _theta_input(nodes, nonfree, line_degree, glue, verify_seed, hyperelliptic) -> Input:
    g = len(nodes)
    curve = {"nodes": [[p, q] for p, q in nodes]}
    sheaf = {
        "nonfree": sorted(nonfree),
        "dL": line_degree,
        "glue": {str(j): rational_text(v) for j, v in sorted(glue.items())},
    }
    argv = [
        "verify-A",
        "--curve", json.dumps(curve, separators=(",", ":")),
        "--sheaf", json.dumps(sheaf, separators=(",", ":"), sort_keys=True),
        "--N", str(THETA_N),
        "--seed", str(verify_seed),
        "--families", str(THETA_FAMILIES),
    ]
    expect = {
        "genus": g,
        "n": len(nonfree),
        "h0": h0_by_rank(nodes, glue, line_degree),
        "hyperelliptic": hyperelliptic,
    }
    lib_args = {
        "nodes": nodes,
        "nonfree": sorted(nonfree),
        "line_degree": line_degree,
        "glue": glue,
        "seed": verify_seed,
    }
    return Input(g - 1, argv, expect, lib_args)


def theta_inputs(seed: int) -> List[Input]:
    """Degree g-1 theta points on random rational nodal curves, g = 2..6.

    Every nonfree count 0..g-1 appears at every genus.  Gluing scalars make
    the g-1-s chosen zeros a section, so h0 >= 1 by construction.  Curves
    with node pairs symmetric about a random centre carry the hyperelliptic
    sections 1, (z-c)^2, ..., giving h0 = floor((g-1)/2) + 1 >= 2 for g >= 3.
    The library's own seed for an input is its position in the corpus, so the
    auxiliary divisors and random families it draws do not vary with `seed`.
    """
    rng = random.Random(seed)
    out = []
    for g in range(2, 7):
        for _ in range(THETA_REPEATS[g]):
            for size in range(g):
                points = rng.sample(range(-NODE_RANGE, NODE_RANGE + 1), 2 * g)
                nodes = [(points[2 * i], points[2 * i + 1]) for i in range(g)]
                nonfree = rng.sample(range(g), size)
                zeros = [rng.randint(*ZERO_RANGE) for _ in range(g - 1 - size)]
                glue = {}
                for j, (p, q) in enumerate(nodes):
                    if j in nonfree:
                        continue
                    lam = Fraction(1)
                    for c in zeros:
                        lam *= Fraction(p - c, q - c)
                    glue[j] = lam
                out.append(
                    _theta_input(nodes, nonfree, g - 1 - size, glue, len(out), False)
                )
        if g >= 3:
            centre = rng.randint(-6, 6)
            offsets = rng.sample(range(1, NODE_RANGE + 1 - 6), g)
            nodes = [(centre - k, centre + k) for k in offsets]
            glue = {j: Fraction(1) for j in range(g)}
            out.append(_theta_input(nodes, [], g - 1, glue, len(out), True))
    return out


# -- divisors on standard models ----------------------------------------------


def model_variables(n: int, m: int) -> Tuple[str, ...]:
    return (
        tuple(f"u{i}" for i in range(1, n + 1))
        + tuple(f"v{i}" for i in range(1, n + 1))
        + tuple(f"w{i}" for i in range(1, m + 1))
    )


def monomial_text(names, exponent) -> str:
    return "*".join(
        name if e == 1 else f"{name}^{e}" for name, e in zip(names, exponent) if e
    )


def polynomial_text(names, terms: Dict[Tuple[int, ...], int]) -> str:
    text = ""
    for exponent, c in sorted(terms.items()):
        body = monomial_text(names, exponent)
        if abs(c) != 1:
            body = f"{abs(c)}*{body}"
        if not text:
            text = body if c > 0 else f"-{body}"
        else:
            text += f" {'+' if c > 0 else '-'} {body}"
    return text


def branch_orders(n: int, m: int, terms) -> List[Optional[int]]:
    """Order of each branch projection, branches in u-first product order.

    On branch (s_1..s_n) the other coordinate at node i is set to zero, so a
    monomial survives when it avoids every discarded coordinate.
    """
    orders = []
    for branch in product(("u", "v"), repeat=n):
        degrees = [
            sum(exponent)
            for exponent in terms
            if all(
                exponent[n + i if side == "u" else i] == 0
                for i, side in enumerate(branch)
            )
        ]
        orders.append(min(degrees) if degrees else None)
    return orders


def random_clean_divisor(rng: random.Random, n: int, m: int, degrees=DIVISOR_DEGREES):
    """Normal-form polynomial with one term of each given degree, nonzero on
    every branch.  The fixed degree profile, with its linear term on a smooth
    coordinate when the model has one, keeps the cost of an input close to
    the same from seed to seed; variables and coefficients are random.
    """
    nvars = 2 * n + m
    if nvars == 1:
        degrees = tuple(range(1, len(degrees)))
    while True:
        chosen: Dict[Tuple[int, ...], int] = {}
        for degree in degrees:
            exponent = [0] * nvars
            if degree == 1 and m:
                exponent[2 * n + rng.randrange(m)] = 1
            for _ in range(degree - sum(exponent)):
                exponent[rng.randrange(nvars)] += 1
            if any(exponent[i] and exponent[n + i] for i in range(n)):
                break
            chosen[tuple(exponent)] = rng.choice([c for c in range(-9, 10) if c])
        if len(chosen) == len(degrees) and all(
            o is not None for o in branch_orders(n, m, chosen)
        ):
            return chosen


# -- local-oracle --------------------------------------------------------------


NONZERO = [c for c in range(-9, 10) if c]


def _shape_rng(*parts) -> random.Random:
    """Random stream fixed by an input's slot, independent of the seed."""
    return random.Random(":".join(map(str, parts)))


def _model_divisor(seed_rng: random.Random, slot, n: int, m: int):
    """Divisor whose monomials are fixed by its slot, with seeded coefficients.

    Which monomials appear drives the cost of an input; fixing them per slot
    keeps a pass's cost nearly the same from seed to seed, while the seed
    still changes every coefficient, and with it every output.
    """
    shape = random_clean_divisor(_shape_rng(*slot), n, m)
    return {e: seed_rng.choice(NONZERO) for e in shape}


def _cusp_divisor(rng: random.Random, kind: str, k: int) -> Tuple[str, int]:
    """Divisor on y^2 = x^3 in (x, y, z), with a seeded coefficient, and its
    known multiplicity:

    x - c z^k leaves k[[y,z]]/(y^2 - c^3 z^3k): multiplicity 2;
    y - c z^k leaves k[[x,z]]/(c^2 z^2k - x^3): multiplicity min(3, 2k).
    """
    c = rng.choice([c for c in range(-5, 6) if c])
    sign = "-" if c > 0 else "+"
    coeff = "" if abs(c) == 1 else f"{abs(c)}*"
    multiplicity = 2 if kind == "x" else min(3, 2 * k)
    return f"{kind} {sign} {coeff}z^{k}", multiplicity


def oracle_inputs(seed: int) -> List[Input]:
    """mult --with-hs on every model with n, m <= 2, and hs on the cusp.

    Every tmax from 10 to 14 sees every model once, plus four cusp divisors;
    n = m = 2 runs only at tmax 10 and 11, since at tmax 12 to 14 one such
    input takes 1.5 to 3 s, which would leave room for one pass per run.
    """
    rng = random.Random(seed)
    out = []
    for tmax in range(10, 15):
        for n, m in ORACLE_MODELS:
            if n + m == 4 and tmax > 11:
                continue
            terms = _model_divisor(rng, ("local-oracle", n, m, tmax), n, m)
            names = model_variables(n, m)
            orders = branch_orders(n, m, terms)
            argv = [
                "mult", "--model", f"n={n},m={m}",
                "--f=" + polynomial_text(names, terms),
                "--with-hs", "--tmax", str(tmax),
            ]
            expect = {
                "ord": min(sum(e) for e in terms),
                "per_branch": orders,
                "mult_V": 2**n,
                "dimension": n + m - 1,
            }
            out.append(Input(tmax - 9, argv, expect))
        for kind, k in (("x", 2), ("x", 3), ("y", 2), ("y", 3)):
            f, multiplicity = _cusp_divisor(rng, kind, k)
            argv = [
                "hs", "--vars", "x,y,z", "--rel", "y^2-x^3",
                "--f", f, "--tmax", str(tmax),
            ]
            expect = {"dimension": 1, "multiplicity": multiplicity}
            out.append(Input(tmax - 9, argv, expect))
    return out


# -- arc-sampling --------------------------------------------------------------


def arc_inputs(seed: int) -> List[Input]:
    """Random arcs on nodal models and on the parametrized cusp, plus
    minimal-arc searches, at truncations N = 8, 10, ..., 16.
    """
    rng = random.Random(seed)
    out = []
    for size in range(1, 6):
        truncation = 2 * size + 6
        common = ["--N", str(truncation)]
        for n, m in ARC_MODELS:
            terms = _model_divisor(rng, ("arc-sampling", n, m, size), n, m)
            names = model_variables(n, m)
            order = min(sum(e) for e in terms)
            f = polynomial_text(names, terms)
            model = f"n={n},m={m}"
            argv = ["arcs-sample", "--model", model, f"--f={f}", "--count",
                    str(ARC_COUNT), "--seed", str(rng.randrange(10**6))] + common
            out.append(Input(size, argv, {"ord": order, "count": ARC_COUNT}))
            argv = ["arc", "--model", model, f"--f={f}", "--minimal",
                    "--seed", str(rng.randrange(10**6))] + common
            out.append(Input(size, argv, {"ord": order}))
            z_degrees = [sum(e) for e in terms if not any(e[: 2 * n])]
            argv = ["arc", "--model", model, f"--f={f}", "--through-z",
                    "--seed", str(rng.randrange(10**6))] + common
            expect = {"ord": order, "z_ord": min(z_degrees) if z_degrees else None}
            out.append(Input(size, argv, expect))
        # x and y pull back to s^2 and s^3 and z to order >= 1, so x - c z^k
        # and y - c z^k with k >= 2 have contact >= 2 > ord = 1.
        for kind, k in (("x", 2), ("y", 3)):
            f, _ = _cusp_divisor(rng, kind, k)
            argv = ["arcs-sample", "--vars", "x,y,z", "--rel", "y^2-x^3",
                    "--f", f, "--param", "x:s^2,y:s^3", "--count", str(ARC_COUNT),
                    "--seed", str(rng.randrange(10**6))] + common
            out.append(Input(size, argv,
                             {"ord": 1, "min_contact": 2, "count": ARC_COUNT}))
    return out


GENERATORS = {
    "theta-verify": theta_inputs,
    "local-oracle": oracle_inputs,
    "arc-sampling": arc_inputs,
}
