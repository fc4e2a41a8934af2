"""Command-line front end.

Each subcommand parses models, elements, arcs, curves, sheaves, or families
from flags and JSON, dispatches to the library, and prints one canonical
JSON report to standard output: keys sorted, compact separators, rationals
rendered as decimal strings when integral and "p/q" otherwise.  Output for
identical inputs and seed is byte-identical across runs.

Exit statuses: 0 success, 2 precondition or validation failure (diagnostic
names the violated check), 3 internal assertion failure, which means a bug
or a counterexample and is deliberately loud.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, Optional

from .arcs import (
    ArcInsideDivisor,
    arc_contact,
    general_arc_contact,
    make_arc,
    make_general_arc,
    minimal_arc,
    minimal_arc_through_Z,
    parametrization_from_powers,
    sample_arcs_check,
    sample_parametrized_arcs_check,
    ZArcNotFound,
)
from .curve import (
    INFINITY,
    MovingPoint,
    RationalNodalCurve,
    SheafFamily,
    TFSheaf,
    classify_theta_point,
    cohomology,
    family_cohomology,
    make_minimal_family,
    theta_invariants,
    verify_theorem_A,
)
from .errors import IndeterminateAtTruncation, PreconditionError, VerificationError
from .localmodel import LocalModel, ModelElement, branch_label, reduce as model_reduce
from .multiplicity import (
    RingSpec,
    check_eqnmat,
    hilbert_samuel,
    ord_at_origin,
)
from .parsing import parse_series
from .series import DEFAULT_TRUNCATION, INFINITE, PowerSeries

# Default of --tmax (--N and --truncation default to DEFAULT_TRUNCATION);
# NODALTHETA_N and NODALTHETA_TMAX override them, read on every dispatch so
# that a bad value is an input error (exit 2), not an import-time traceback,
# and the parser is built only once.
DEFAULT_TMAX = 10


def _env_int(name: str, default: int) -> int:
    """Integer default from the environment, read when a command runs."""
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise PreconditionError(name, f"expected an integer, found {text!r}") from None


# -- JSON helpers ------------------------------------------------------------


def rational_to_json(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def rational_from_json(value) -> Fraction:
    if isinstance(value, bool):
        raise PreconditionError("json", "expected a rational, found a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        num, slash, den = value.strip().partition("/")
        try:
            num, den = int(num), int(den) if slash else 1
        except ValueError:
            raise PreconditionError("json", f"cannot read rational from {value!r}") from None
        if den == 0:
            raise PreconditionError("json", f"zero denominator in {value!r}")
        return Fraction(num, den)
    raise PreconditionError("json", f"cannot read rational from {value!r}")


def _int_from_json(value, check: str) -> int:
    """An integer written as a JSON integer or a decimal string."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise PreconditionError(check, f"expected an integer, found {value!r}")


def order_to_json(value):
    return "Infinite" if value is INFINITE else value


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _load_json(text_or_path: str) -> dict:
    text = text_or_path.strip()
    if text.startswith("{"):
        return json.loads(text)
    return json.loads(Path(text_or_path).read_text(encoding="utf-8"))


# -- input object builders ---------------------------------------------------


def parse_model_flag(text: str) -> LocalModel:
    """Model syntax: inline "n=1,m=1" or a JSON object {"n": 1, "m": 1}."""
    text = text.strip()
    if text.startswith("{"):
        payload = json.loads(text)
        return LocalModel(
            _int_from_json(payload["n"], "model"), _int_from_json(payload["m"], "model")
        )
    values = {}
    for part in text.split(","):
        if "=" not in part:
            raise PreconditionError("model", f"bad model component {part!r}")
        key, _, value = part.partition("=")
        values[key.strip()] = _int_from_json(value, "model")
    unknown = set(values) - {"n", "m"}
    if unknown:
        raise PreconditionError("model", f"unknown model keys {sorted(unknown)}")
    return LocalModel(values.get("n", 0), values.get("m", 0))


def load_curve(text_or_path: str) -> RationalNodalCurve:
    payload = _load_json(text_or_path)
    if not isinstance(payload["nodes"], list):
        raise PreconditionError("curve", "nodes must be a list of point pairs")
    nodes = []
    for pair in payload["nodes"]:
        if not isinstance(pair, list):
            raise PreconditionError("curve", f"node {pair!r} is not a list of two points")
        points = []
        for value in pair:
            if isinstance(value, str) and value.strip().lower() in ("inf", "infinity"):
                points.append(INFINITY)
            else:
                points.append(rational_from_json(value))
        if len(points) != 2:
            raise PreconditionError("curve", "each node needs exactly two points")
        nodes.append((points[0], points[1]))
    return RationalNodalCurve(tuple(nodes))


def _field(payload: dict, key: str, kind: type, check: str):
    """`payload[key]` (a fresh `kind` when absent), which must be a `kind`."""
    value = payload.get(key, kind())
    if not isinstance(value, kind):
        shape = "an object" if kind is dict else "an array"
        raise PreconditionError(check, f"{key} must be {shape}")
    return value


def load_sheaf(text_or_path: str) -> TFSheaf:
    payload = _load_json(text_or_path)
    gluing = {
        _int_from_json(j, "sheaf"): rational_from_json(v)
        for j, v in _field(payload, "glue", dict, "sheaf").items()
    }
    return TFSheaf.make(
        [_int_from_json(j, "sheaf") for j in _field(payload, "nonfree", list, "sheaf")],
        _int_from_json(payload["dL"], "sheaf"),
        gluing,
    )


def load_family(text_or_path: str, sheaf: TFSheaf, truncation: int) -> SheafFamily:
    payload = _load_json(text_or_path)
    n = _int_from_json(payload.get("N", truncation), "family")
    gluing_series = {}
    for j, expr in _field(payload, "glueSeries", dict, "family").items():
        gluing_series[_int_from_json(j, "family")] = parse_series(str(expr), ("t",), n)
    for j, lam in sheaf.gluing:
        gluing_series.setdefault(j, PowerSeries.univariate({0: lam}, n))
    moving = []
    for entry in _field(payload, "moving", list, "family"):
        if not isinstance(entry, dict):
            raise PreconditionError("family", f"moving point {entry!r} is not an object")
        base = rational_from_json(entry["base"])
        trajectory = parse_series(str(entry["trajectory"]), ("t",), n)
        moving.append(MovingPoint(base=base, trajectory=trajectory))
    return SheafFamily.make(sheaf, n, gluing_series, moving)


def load_images(text_or_path: str, truncation: int) -> Dict[str, PowerSeries]:
    payload = _load_json(text_or_path)
    images = payload.get("images", payload)
    return {
        name: parse_series(str(expr), ("t",), truncation)
        for name, expr in images.items()
    }


def build_ringspec(args, truncation: int) -> RingSpec:
    variables = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    relations = tuple(
        parse_series(text, variables, truncation) for text in (args.rel or [])
    )
    divisor = parse_series(args.f, variables, truncation) if args.f else None
    return RingSpec(variables, relations, divisor)


def _parse_binding(model: LocalModel, text: Optional[str]) -> Dict[str, str]:
    """Alias binding "x=u1,y=v1,z=w1": names the canonical coordinates."""
    if not text:
        return {}
    binding = {}
    for piece in text.split(","):
        alias, _, target = piece.partition("=")
        alias, target = alias.strip(), target.strip()
        if not alias or not target:
            raise PreconditionError("bind", f"bad binding component {piece!r}")
        if target not in model.variables:
            raise PreconditionError("bind", f"unknown coordinate {target!r}")
        if alias in binding:
            raise PreconditionError("bind", f"alias {alias!r} bound twice")
        binding[alias] = target
    targets = list(binding.values())
    if len(set(targets)) != len(targets):
        raise PreconditionError("bind", "two aliases bound to one coordinate")
    return binding


def _element(args, truncation: int) -> ModelElement:
    model = parse_model_flag(args.model)
    binding = _parse_binding(model, getattr(args, "bind", None))
    reverse = {target: alias for alias, target in binding.items()}
    display_names = tuple(reverse.get(v, v) for v in model.variables)
    parsed = parse_series(args.f, display_names, truncation)
    series = PowerSeries(model.variables, parsed.coefficients, truncation)
    return model_reduce(model, series)


# -- subcommand handlers -----------------------------------------------------


def _branchsum_payload(element: ModelElement) -> dict:
    report = check_eqnmat(element)
    return {
        "ord": report.ord_divisor,
        "mult_V": report.mult_model,
        "mult_D": report.mult_divisor,
        "per_branch": [b.order for b in report.per_branch],
        "branches": [branch_label(b.branch) for b in report.per_branch],
        "eqnmat": {"holds": report.holds, "equality": report.equality},
    }


def cmd_mult(args) -> dict:
    element = _element(args, args.truncation)
    payload = _branchsum_payload(element)
    if args.with_hs:
        from .multiplicity import model_ringspec

        table = hilbert_samuel(model_ringspec(element.model, element.series), args.tmax)
        payload["hs_table"] = {
            "values": table.values,
            "dimension": table.dimension,
            "multiplicity": table.multiplicity,
            "stabilized": table.stabilized,
        }
        payload["hs_agrees"] = table.multiplicity == payload["mult_D"]
    return payload


def cmd_ord(args) -> dict:
    element = _element(args, args.truncation)
    return {"ord": order_to_json(ord_at_origin(element))}


def cmd_hs(args) -> dict:
    truncation = max(args.truncation, args.tmax)
    spec = build_ringspec(args, truncation)
    table = hilbert_samuel(spec, args.tmax)
    return {
        "dimension": table.dimension,
        "multiplicity": table.multiplicity,
        "stabilized": table.stabilized,
        "values": table.values,
        "t_max": table.t_max,
    }


def cmd_arc(args) -> dict:
    truncation = args.N
    if not args.vars and not args.model:
        raise PreconditionError("arc", "either --model or --vars is required")
    if args.vars:
        if args.minimal or args.through_z:
            raise PreconditionError(
                "arc",
                "minimal-arc search needs a standard model; arbitrary rings "
                "take arcs only through explicit images",
            )
        spec = build_ringspec(args, max(truncation, args.truncation))
        if spec.divisor is None:
            raise PreconditionError("arc", "--f is required to compute a contact")
        if not args.images:
            raise PreconditionError("arc", "--images is required")
        images = load_images(args.images, truncation)
        arc = make_general_arc(spec, images, truncation)
        contact = general_arc_contact(arc, spec.divisor)
        payload = {"N": truncation}
    else:
        element = _element(args, max(truncation, args.truncation))
        if args.minimal or args.through_z:
            finder = minimal_arc_through_Z if args.through_z else minimal_arc
            found = finder(element, truncation, args.seed)
            if isinstance(found, ZArcNotFound):
                return {
                    "found": False,
                    "bestContact": order_to_json(found.best_contact),
                    "seed": args.seed,
                    "N": truncation,
                }
            return {
                "found": True,
                "contact": found.contact,
                "branch": branch_label(found.branch),
                "images": {
                    name: str(series) for name, series in sorted(found.arc.images.items())
                },
                "seed": args.seed,
                "N": truncation,
            }
        if not args.images:
            raise PreconditionError("arc", "--images is required")
        images = load_images(args.images, truncation)
        arc = make_arc(element.model, images, truncation)
        contact = arc_contact(arc, element)
        payload = {"N": truncation}
    if isinstance(contact, ArcInsideDivisor):
        payload.update({"contact": "ArcInsideDivisor", "atLeast": contact.at_least})
    else:
        payload["contact"] = contact
    return payload


def cmd_arcs_sample(args) -> dict:
    truncation = args.N
    if not args.vars and not args.model:
        raise PreconditionError("arcs-sample", "either --model or --vars is required")
    if args.vars:
        spec = build_ringspec(args, max(truncation, args.truncation))
        if spec.divisor is None:
            raise PreconditionError("arcs-sample", "--f is required")
        powers = {}
        if args.param:
            for piece in args.param.split(","):
                name, _, expr = piece.partition(":")
                if not expr:
                    raise PreconditionError(
                        "parametrize", f"bad parametrization component {piece!r}"
                    )
                powers[name.strip()] = parse_series(expr, ("s",), truncation)
        hook = parametrization_from_powers(spec, powers)
        report = sample_parametrized_arcs_check(
            spec, spec.divisor, hook, args.count, truncation, args.seed
        )
    else:
        element = _element(args, max(truncation, args.truncation))
        report = sample_arcs_check(element, args.count, truncation, args.seed)
    return {
        "ord": report.order,
        "requested": report.requested,
        "used": report.used,
        "skippedInside": report.skipped_inside,
        "minContact": report.min_contact,
        "seed": report.seed,
        "N": truncation,
    }


def cmd_curve_h0(args) -> dict:
    curve = load_curve(args.curve)
    sheaf = load_sheaf(args.sheaf)
    h0_value, h1_value = cohomology(curve, sheaf)
    return {
        "h0": h0_value,
        "h1": h1_value,
        "degree": sheaf.total_degree,
        "genus": curve.genus,
        "chi": sheaf.total_degree - curve.genus + 1,
    }


def _theta_payload(report) -> dict:
    payload = {
        "n": report.n,
        "h0": report.h0,
        "h1": report.h1,
        "ord": report.ord,
        "multJ": report.mult_jacobian,
        "multTheta": report.mult_theta,
        "onTheta": report.on_theta,
        "singular": report.singular,
    }
    if report.exponents is not None:
        payload["exponents"] = list(report.exponents)
    return payload


def cmd_theta(args) -> dict:
    curve = load_curve(args.curve)
    sheaf = load_sheaf(args.sheaf)
    return _theta_payload(theta_invariants(curve, sheaf))


def cmd_classify(args) -> dict:
    curve = load_curve(args.curve)
    sheaf = load_sheaf(args.sheaf)
    result = classify_theta_point(curve, sheaf)
    return {
        "onTheta": result.on_theta,
        "inW1": result.in_w1,
        "inBoundary": result.in_boundary,
        "singular": result.singular,
    }


def cmd_family(args) -> dict:
    curve = load_curve(args.curve)
    sheaf = load_sheaf(args.sheaf)
    if args.family:
        family = load_family(args.family, sheaf, args.N)
        built = "given"
    else:
        family = make_minimal_family(curve, sheaf, args.N, args.seed)
        built = "minimal"
    aux = None
    if args.aux:
        aux = [rational_from_json(v) for v in json.loads(args.aux)]
    try:
        result = family_cohomology(curve, family, seed=args.seed, aux_points=aux)
    except IndeterminateAtTruncation as exc:
        return {
            "family": built,
            "theta_order": "IndeterminateAtTruncation",
            "atLeast": exc.at_least,
            "seed": args.seed,
            "N": family.truncation,
        }
    return {
        "family": built,
        "h0_rank": result.h0_rank,
        "exponents": list(result.exponents),
        "theta_order": result.theta_order,
        "auxPoints": [rational_to_json(p) for p in result.aux_points],
        "seed": args.seed,
        "N": family.truncation,
    }


def cmd_verify_A(args) -> dict:
    curve = load_curve(args.curve)
    sheaf = load_sheaf(args.sheaf)
    report = verify_theorem_A(
        curve, sheaf, args.N, args.seed, random_families=args.families
    )
    payload = _theta_payload(report.theta)
    payload.update(
        {
            "familyOrder": report.family_order,
            "randomFamilyOrders": list(report.random_family_orders),
            "verified": True,
            "seed": report.seed,
            "N": args.N,
        }
    )
    return payload


def golden_suite(path: str) -> dict:
    """Run every (input, expected) pair under a directory; compare canonically."""
    root = Path(path)
    if not root.is_dir():
        raise PreconditionError("golden", f"{path!r} is not a directory")
    cases = sorted(p for p in root.iterdir() if (p / "input.json").is_file())
    results = []
    passed = 0
    for case in cases:
        argv = json.loads((case / "input.json").read_text(encoding="utf-8"))["argv"]
        expected_raw = json.loads((case / "expected.json").read_text(encoding="utf-8"))
        expected = canonical_json(expected_raw)
        actual = canonical_json(dispatch(argv))
        if actual == expected:
            passed += 1
            results.append({"case": case.name, "ok": True})
        else:
            results.append(
                {"case": case.name, "ok": False, "expected": expected, "actual": actual}
            )
    return {
        "cases": len(cases),
        "passed": passed,
        "failed": len(cases) - passed,
        "results": results,
    }


def cmd_golden(args) -> dict:
    summary = golden_suite(args.dir)
    if summary["failed"]:
        raise VerificationError(canonical_json(summary))
    return summary


# -- parser / dispatch ---------------------------------------------------------


def _add_model_element_flags(parser):
    parser.add_argument("--model", required=True, help='model, e.g. "n=1,m=1"')
    parser.add_argument("--f", required=True, help="divisor equation over u_i, v_i, w_i")
    parser.add_argument(
        "--bind", help='aliases for the canonical coordinates, e.g. "x=u1,y=v1,z=w1"'
    )
    parser.add_argument("--truncation", type=int, help="series truncation degree")


def _add_ringspec_flags(parser):
    parser.add_argument("--vars", help="comma-separated variable names")
    parser.add_argument("--rel", action="append", help="ideal relation (repeatable)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use; --N, --truncation and --tmax
    default to None and are filled in by `dispatch`."""
    parser = argparse.ArgumentParser(
        prog="nodaltheta",
        description="Exact local multiplicity invariants on nodal models and "
        "theta divisors of rational nodal curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mult", help="branch-sum multiplicity of a divisor")
    _add_model_element_flags(p)
    p.add_argument("--with-hs", action="store_true", help="cross-check with the oracle")
    p.add_argument("--tmax", type=int)
    p.set_defaults(handler=cmd_mult)

    p = sub.add_parser("ord", help="order of vanishing at the origin")
    _add_model_element_flags(p)
    p.set_defaults(handler=cmd_ord)

    p = sub.add_parser("hs", help="Hilbert-Samuel table of a quotient ring")
    _add_ringspec_flags(p)
    p.add_argument("--f", help="optional divisor equation")
    p.add_argument("--tmax", type=int)
    p.add_argument("--truncation", type=int)
    p.set_defaults(handler=cmd_hs)

    p = sub.add_parser("arc", help="contact order of a divisor along an arc")
    p.add_argument("--model", help='standard model, e.g. "n=1,m=1"')
    p.add_argument("--bind", help='aliases for the canonical coordinates')
    _add_ringspec_flags(p)
    p.add_argument("--f", help="divisor equation")
    p.add_argument("--images", help='arc JSON, e.g. {"u1":"0","v1":"t"}')
    p.add_argument("--minimal", action="store_true", help="construct a minimal-contact arc")
    p.add_argument(
        "--through-z", action="store_true", help="restrict to the locally trivial locus"
    )
    p.add_argument("--N", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truncation", type=int)
    p.set_defaults(handler=cmd_arc)

    p = sub.add_parser("arcs-sample", help="random-arc lower bound check")
    p.add_argument("--model", help='standard model, e.g. "n=1,m=1"')
    p.add_argument("--bind", help='aliases for the canonical coordinates')
    _add_ringspec_flags(p)
    p.add_argument("--f", help="divisor equation")
    p.add_argument("--param", help='parametrization hook, e.g. "x:s^2,y:s^3"')
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--N", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truncation", type=int)
    p.set_defaults(handler=cmd_arcs_sample)

    p = sub.add_parser("curve-h0", help="cohomology of a sheaf on a nodal curve")
    p.add_argument("--curve", required=True)
    p.add_argument("--sheaf", required=True)
    p.set_defaults(handler=cmd_curve_h0)

    p = sub.add_parser("theta", help="theta multiplicity report at a sheaf")
    p.add_argument("--curve", required=True)
    p.add_argument("--sheaf", required=True)
    p.set_defaults(handler=cmd_theta)

    p = sub.add_parser("classify", help="theta singular-locus classification")
    p.add_argument("--curve", required=True)
    p.add_argument("--sheaf", required=True)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("family", help="contact of a one-parameter family with theta")
    p.add_argument("--curve", required=True)
    p.add_argument("--sheaf", required=True)
    p.add_argument("--family", help="family JSON (default: build a minimal family)")
    p.add_argument("--aux", help="pin the auxiliary divisor, e.g. [2]")
    p.add_argument("--N", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_family)

    p = sub.add_parser("verify-A", help="cross-checked multiplicity identity")
    p.add_argument("--curve", required=True)
    p.add_argument("--sheaf", required=True)
    p.add_argument("--N", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--families", type=int, default=3)
    p.set_defaults(handler=cmd_verify_A)

    p = sub.add_parser("golden", help="run the golden (input, expected) pairs")
    p.add_argument("--dir", required=True)
    p.set_defaults(handler=cmd_golden)

    return parser


def dispatch(argv) -> dict:
    n = _env_int("NODALTHETA_N", DEFAULT_TRUNCATION)
    defaults = {"N": n, "truncation": n, "tmax": _env_int("NODALTHETA_TMAX", DEFAULT_TMAX)}
    args = build_parser().parse_args(argv)
    for name, value in defaults.items():
        if getattr(args, name, value) is None:
            setattr(args, name, value)
    return args.handler(args)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        payload = dispatch(argv)
    except PreconditionError as exc:
        print(
            canonical_json({"error": exc.name, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2
    except (json.JSONDecodeError, FileNotFoundError, KeyError) as exc:
        print(
            canonical_json({"error": "input", "message": str(exc)}),
            file=sys.stderr,
        )
        return 2
    except IndeterminateAtTruncation as exc:
        print(
            canonical_json({"error": "indeterminate", "message": str(exc)}),
            file=sys.stderr,
        )
        return 2
    except VerificationError as exc:
        print(
            canonical_json({"error": "verification", "message": str(exc)}),
            file=sys.stderr,
        )
        return 3
    except Exception as exc:  # never let a traceback reach the user
        print(
            canonical_json({"error": "internal", "message": f"{type(exc).__name__}: {exc}"}),
            file=sys.stderr,
        )
        return 3
    print(canonical_json(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
