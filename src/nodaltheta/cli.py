"""Command-line front end.

Each subcommand parses models, elements, arcs, curves, sheaves, or families
from flags and JSON, dispatches to the library, and prints one canonical
JSON report to standard output: keys sorted, compact separators, rationals
rendered as decimal strings when integral and "p/q" otherwise.  Output for
identical inputs and seed is byte-identical across runs.

Input is checked in two places.  The argument parser checks that each flag
is present and well formed, and `_refuse_idle_flags` that no mode is given
a flag it cannot use; these errors fail the check `argv`.  Every JSON
argument is read by `_parse_json` (through `_load_json` where it may name a
file) and its keys by `_field`, which name the argument's check (`curve`,
`sheaf`, `family`, `arc`, `aux-divisor`, `golden`) when a shape is wrong, a
key is repeated, a required key is missing or a key is not read at all;
text that cannot be read or parsed is an `input` error.

Exit statuses, one row of `_EXITS` per exception type: 0 success, 2
precondition or validation failure (one JSON line on standard error naming
the violated check), 3 internal assertion failure, which means a bug or a
counterexample and is deliberately loud.  A report whose standard output is
closed before it is written exits 1 (`EXIT_STDOUT_CLOSED`) and prints
nothing more.  No traceback reaches the user.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, Optional

from .arcs import (
    arc_contact,
    make_arc,
    make_general_arc,
    minimal_arc,
    minimal_arc_through_Z,
    sample_arcs_check,
    sample_parametrized_arcs_check,
    ZArcNotFound,
)
from .curve import (
    RationalNodalCurve,
    SheafFamily,
    TFSheaf,
    cohomology,
    constant_family,
    family_cohomology,
    make_minimal_family,
    theta_invariants,
    verify_theorem_A,
)
from .errors import IndeterminateAtTruncation, PreconditionError, VerificationError
from .localmodel import LocalModel, ModelElement, branch_label, reduce as model_reduce
from .multiplicity import (
    DEFAULT_TMAX,
    RingSpec,
    check_eqnmat,
    hilbert_samuel,
    model_ringspec,
)
from .parsing import parse_series
from .series import DEFAULT_TRUNCATION, PowerSeries

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


def order_to_json(value: Optional[int]):
    """An order of vanishing; None, zero to truncation, is written "Infinite"."""
    return "Infinite" if value is None else value


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


_SHAPES = {dict: "an object", list: "an array", str: "a string"}


def _shaped(value, kind: type, check: str, what: str, keys=None):
    """`value`, a `kind` with no key outside `keys` when given, or `check` fails."""
    if not isinstance(value, kind):
        raise PreconditionError(check, f"{what} must be {_SHAPES[kind]}")
    if keys is not None and set(value) - set(keys):
        raise PreconditionError(check, f"{what} has unknown keys {sorted(set(value) - set(keys))}")
    return value


def _field(payload: dict, key: str, check: str, kind: type = object, default=None):
    """`payload[key]`, which must be a `kind`; `default` when the key is
    absent, and a key without a default is required."""
    if key not in payload:
        if default is None:
            raise PreconditionError(check, f"missing key {key!r}")
        return default
    return _shaped(payload[key], kind, check, key)


def _parse_json(text: str, kind: type, check: str, what: str, keys=None):
    """JSON text holding a `kind`, read by `_shaped`.  An object that repeats
    a key fails `check`; unparsable text and JSON nested too deep are
    `input` errors."""

    def unique(pairs):
        if len({key for key, _ in pairs}) < len(pairs):
            raise PreconditionError(check, "an object repeats a key")
        return dict(pairs)

    try:
        payload = json.loads(text, object_pairs_hook=unique)
    except RecursionError:
        raise PreconditionError("input", "JSON nested too deeply") from None
    return _shaped(payload, kind, check, what, keys)


def _load_json(text_or_path: str, check: str, keys=None) -> dict:
    """A JSON object, inline or in a file, read by `_parse_json`.  A blank
    argument, a path holding a NUL byte and an unreadable file are `input`
    errors."""
    text = text_or_path.strip()
    if not text:
        raise PreconditionError("input", "empty argument")
    if not text.startswith("{"):
        if "\0" in text_or_path:
            raise PreconditionError("input", "a path cannot hold a NUL byte")
        text = Path(text_or_path).read_text(encoding="utf-8")
    return _parse_json(text, dict, check, "the argument", keys)


def _node_indices(values, check: str, what: str) -> list:
    """Node indices written as integers; two that name one node ("1" and
    "01") fail `check`."""
    nodes = [_int_from_json(v, check) for v in values]
    if len(set(nodes)) < len(nodes):
        raise PreconditionError(check, f"{what} names a node twice")
    return nodes


# -- input object builders ---------------------------------------------------


def parse_model_flag(text: str) -> LocalModel:
    """Model syntax "n=1,m=1"; a count left out is 0."""
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


def _point(value) -> Fraction:
    if isinstance(value, str) and value.strip().lower() in ("inf", "infinity"):
        raise PreconditionError(
            "normalize-infinity",
            "node at infinity: change coordinates before sheaf operations",
        )
    return rational_from_json(value)


def load_curve(text_or_path: str) -> RationalNodalCurve:
    nodes = []
    for pair in _field(_load_json(text_or_path, "curve", ("nodes",)), "nodes", "curve", list):
        if len(_shaped(pair, list, "curve", "each node")) != 2:
            raise PreconditionError("curve", "each node needs exactly two points")
        nodes.append((_point(pair[0]), _point(pair[1])))
    return RationalNodalCurve(tuple(nodes))


def load_sheaf(text_or_path: str) -> TFSheaf:
    payload = _load_json(text_or_path, "sheaf", ("nonfree", "dL", "glue"))
    glue = _field(payload, "glue", "sheaf", dict, {})
    nodes = _node_indices(glue, "sheaf", "glue")
    gluing = dict(zip(nodes, map(rational_from_json, glue.values())))
    return TFSheaf.make(
        _node_indices(_field(payload, "nonfree", "sheaf", list, []), "sheaf", "nonfree"),
        _int_from_json(_field(payload, "dL", "sheaf"), "sheaf"),
        gluing,
    )


def load_family(text_or_path: str, sheaf: TFSheaf, n: int) -> SheafFamily:
    payload = _load_json(text_or_path, "family", ("glueSeries", "moving"))
    glue = _field(payload, "glueSeries", "family", dict, {})
    given = {
        j: parse_series(_field(glue, key, "family", str), ("t",), n).dense()
        for j, key in zip(_node_indices(glue, "family", "glueSeries"), glue)
    }
    gluing_series = {**dict(constant_family(sheaf, n).gluing_series), **given}
    moving = []
    for entry in _field(payload, "moving", "family", list, []):
        point = _shaped(entry, dict, "family", "each moving point", ("base", "trajectory"))
        base = rational_from_json(_field(point, "base", "family"))
        trajectory = parse_series(_field(point, "trajectory", "family", str), ("t",), n).dense()
        if trajectory[0] != base:
            raise PreconditionError("family", "trajectory does not start at its base point")
        moving.append(trajectory)
    return SheafFamily.make(sheaf, n, gluing_series, moving)


def load_images(text_or_path: str, truncation: int) -> Dict[str, PowerSeries]:
    images = _load_json(text_or_path, "arc")
    return {
        name: parse_series(_field(images, name, "arc", str), ("t",), truncation)
        for name in images
    }


def build_ringspec(args, truncation: int) -> RingSpec:
    # "" names no variable; any other list names one per comma-separated piece
    variables = tuple(v.strip() for v in args.vars.split(",")) if args.vars.strip() else ()
    if not all(variables):
        raise PreconditionError("variables", f"empty variable name in {args.vars!r}")
    relations = tuple(
        parse_series(text, variables, truncation) for text in (args.rel or [])
    )
    divisor = None if args.f is None else parse_series(args.f, variables, truncation)
    return RingSpec(variables, relations, divisor)


def _parse_binding(model: LocalModel, text: Optional[str]) -> Dict[str, str]:
    """Alias binding "x=u1,y=v1,z=w1": names the canonical coordinates."""
    if text is None:
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
    binding = _parse_binding(model, args.bind)
    reverse = {target: alias for alias, target in binding.items()}
    display_names = tuple(reverse.get(v, v) for v in model.variables)
    parsed = parse_series(args.f, display_names, truncation)
    series = PowerSeries(model.variables, parsed.coefficients, truncation)
    return model_reduce(model, series)


# -- subcommand handlers -----------------------------------------------------


def cmd_mult(args) -> dict:
    element = _element(args, args.truncation)
    report = check_eqnmat(element)
    payload = {
        "ord": report.ord_divisor,
        "mult_V": report.mult_model,
        "mult_D": report.mult_divisor,
        "per_branch": [b.order for b in report.per_branch],
        "branches": [branch_label(b.branch) for b in report.per_branch],
        "eqnmat": {"holds": report.holds, "equality": report.equality},
    }
    if args.with_hs:
        tmax = DEFAULT_TMAX if args.tmax is None else args.tmax
        table = hilbert_samuel(model_ringspec(element.model, element.series), tmax)
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
    return {"ord": order_to_json(element.order())}


def cmd_hs(args) -> dict:
    spec = build_ringspec(args, max(args.tmax, DEFAULT_TRUNCATION))
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
    working = max(truncation, DEFAULT_TRUNCATION)
    if args.images is None:
        element = _element(args, working)
        seed = 0 if args.seed is None else args.seed
        finder = minimal_arc_through_Z if args.through_z else minimal_arc
        found = finder(element, truncation, seed)
        if isinstance(found, ZArcNotFound):
            return {
                "found": False,
                "bestContact": order_to_json(found.best_contact),
                "seed": seed,
                "N": truncation,
            }
        return {
            "found": True,
            "contact": found.contact,
            "branch": branch_label(found.branch),
            "images": {
                name: str(series) for name, series in sorted(found.arc.images.items())
            },
            "seed": seed,
            "N": truncation,
        }
    images = load_images(args.images, truncation)
    if args.vars is not None:
        spec = build_ringspec(args, working)
        arc, divisor = make_general_arc(spec, images, truncation), spec.divisor
    else:
        element = _element(args, working)
        arc, divisor = make_arc(element.model, images, truncation), element.series
    contact = arc_contact(arc, divisor)
    if contact is None:  # zero to N: the images are read to N, the divisor to working >= N
        return {"contact": "ArcInsideDivisor", "atLeast": truncation + 1, "N": truncation}
    return {"contact": contact, "N": truncation}


def cmd_arcs_sample(args) -> dict:
    truncation = args.N
    working = max(truncation, DEFAULT_TRUNCATION)
    if args.vars is not None:
        spec = build_ringspec(args, working)
        powers = {}
        if args.param is not None:
            for piece in args.param.split(","):
                name, _, expr = piece.partition(":")
                if not expr:
                    raise PreconditionError(
                        "parametrize", f"bad parametrization component {piece!r}"
                    )
                powers[name.strip()] = parse_series(expr, ("s",), truncation)
        report = sample_parametrized_arcs_check(
            spec, spec.divisor, powers, args.count, truncation, args.seed
        )
    else:
        element = _element(args, working)
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


def cmd_family(args) -> dict:
    curve = load_curve(args.curve)
    sheaf = load_sheaf(args.sheaf)
    if args.family is not None:
        family = load_family(args.family, sheaf, args.N)
        built = "given"
    else:
        family = make_minimal_family(curve, sheaf, args.N, args.seed)
        built = "minimal"
    aux = None
    if args.aux is not None:  # always inline, never a path
        aux = _parse_json(args.aux, list, "aux-divisor", "--aux")
        aux = [rational_from_json(v) for v in aux]
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
    if not cases:
        raise PreconditionError("golden", f"{path!r} holds no case directory with input.json")
    results = []
    passed = 0
    for case in cases:
        payload = _load_json(str(case / "input.json"), "golden", ("argv",))
        argv = _field(payload, "argv", "golden", list)
        for arg in argv:
            _shaped(arg, str, "golden", "each argv entry")
        expected = canonical_json(_load_json(str(case / "expected.json"), "golden"))
        try:  # a help action prints usage and exits, which would end the suite
            with contextlib.redirect_stdout(io.StringIO()):
                args = build_parser().parse_args(argv)
        except SystemExit:
            raise PreconditionError("golden", f"case {case.name!r} asks for help") from None
        if args.command == "golden":
            raise PreconditionError("golden", f"case {case.name!r} runs the golden suite")
        actual = canonical_json(args.handler(args))
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


def _refuse_idle_flags(args) -> None:
    """The one table of flags that a mode cannot use: per mode, whether the
    parsed argv is in it and the flags it refuses.  A refusable flag
    defaults to None, so any other value was given."""
    given = {name for name, value in vars(args).items() if value is not None}
    for mode, active, refused in (
        ("with --model", "model" in given, ("--rel", "--param")),
        ("with --vars", "vars" in given, ("--bind", "--minimal", "--through-z")),
        ("with --images", "images" in given, ("--seed",)),
        ("without --with-hs", vars(args).get("with_hs") is False, ("--tmax",)),
    ):
        for flag in refused:
            if active and flag[2:].replace("-", "_") in given:
                raise PreconditionError("argv", f"{flag} does not apply {mode}")


class _Parser(argparse.ArgumentParser):
    """Reports a malformed argv, or a flag that the chosen mode cannot use, as
    the failed check `argv` instead of printing usage and exiting."""

    def error(self, message):
        raise PreconditionError("argv", message)

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        _refuse_idle_flags(parsed)
        return parsed


def _add_model_element_flags(parser):
    parser.add_argument("--model", required=True, help='model, e.g. "n=1,m=1"')
    parser.add_argument("--f", required=True, help="divisor equation over u_i, v_i, w_i")
    parser.add_argument(
        "--bind", help='aliases for the canonical coordinates, e.g. "x=u1,y=v1,z=w1"'
    )
    parser.add_argument(
        "--truncation", type=int, default=DEFAULT_TRUNCATION, help="series truncation degree"
    )


def _add_arc_flags(parser):
    ring = parser.add_mutually_exclusive_group(required=True)
    ring.add_argument("--model", help='standard model, e.g. "n=1,m=1"')
    ring.add_argument("--vars", help="comma-separated variable names of a quotient ring")
    parser.add_argument("--rel", action="append", help="ideal relation (repeatable)")
    parser.add_argument("--bind", help="aliases for the canonical coordinates")
    parser.add_argument("--f", required=True, help="divisor equation")
    parser.add_argument("--N", type=int, default=DEFAULT_TRUNCATION)


def _add_curve_flags(parser):
    parser.add_argument("--curve", required=True)
    parser.add_argument("--sheaf", required=True)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = _Parser(
        prog="nodaltheta",
        description="Exact local multiplicity invariants on nodal models and "
        "theta divisors of rational nodal curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, text, add_flags=None):
        """The parser of one subcommand, with a flag group it shares."""
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        if add_flags:
            add_flags(p)
        return p

    p = command(
        "mult", cmd_mult, "branch-sum multiplicity of a divisor", _add_model_element_flags
    )
    p.add_argument("--with-hs", action="store_true", help="cross-check with the oracle")
    p.add_argument("--tmax", type=int, help=f"oracle depth, {DEFAULT_TMAX} if not given")

    command("ord", cmd_ord, "order of vanishing at the origin", _add_model_element_flags)

    p = command("hs", cmd_hs, "Hilbert-Samuel table of a quotient ring")
    p.add_argument("--vars", required=True, help="comma-separated variable names")
    p.add_argument("--rel", action="append", help="ideal relation (repeatable)")
    p.add_argument("--f", help="optional divisor equation")
    p.add_argument("--tmax", type=int, default=DEFAULT_TMAX)

    p = command("arc", cmd_arc, "contact order of a divisor along an arc", _add_arc_flags)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--images", help='arc JSON, e.g. {"u1":"0","v1":"t"}')
    mode.add_argument(
        "--minimal", action="store_true", default=None, help="construct a minimal-contact arc"
    )
    mode.add_argument(
        "--through-z", action="store_true", default=None, help="a minimal-contact arc through Z"
    )
    p.add_argument("--seed", type=int, help="seed of the arc search, 0 if not given")

    p = command("arcs-sample", cmd_arcs_sample, "random-arc lower bound check", _add_arc_flags)
    p.add_argument("--param", help='parametrization hook, e.g. "x:s^2,y:s^3"')
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    command("curve-h0", cmd_curve_h0, "cohomology of a sheaf on a nodal curve", _add_curve_flags)
    command("theta", cmd_theta, "theta multiplicity report at a sheaf", _add_curve_flags)

    p = command(
        "family", cmd_family, "contact of a one-parameter family with theta", _add_curve_flags
    )
    p.add_argument("--family", help="family JSON (default: build a minimal family)")
    p.add_argument("--aux", help="pin the auxiliary divisor, e.g. [2]")
    p.add_argument("--N", type=int, default=DEFAULT_TRUNCATION)
    p.add_argument("--seed", type=int, default=0)

    p = command("verify-A", cmd_verify_A, "cross-checked multiplicity identity", _add_curve_flags)
    p.add_argument("--N", type=int, default=DEFAULT_TRUNCATION)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--families", type=int, default=3)

    p = command("golden", cmd_golden, "run the golden (input, expected) pairs")
    p.add_argument("--dir", required=True)

    return parser


def dispatch(argv) -> dict:
    args = build_parser().parse_args(argv)
    return args.handler(args)


# Diagnostic name (None: the check a PreconditionError names) and exit status
# per exception type.  The first matching row wins; the last row catches the
# rest, which can only be a bug.
_EXITS = (
    (PreconditionError, None, 2),
    ((json.JSONDecodeError, UnicodeDecodeError, OSError), "input", 2),
    (IndeterminateAtTruncation, "indeterminate", 2),
    (VerificationError, "verification", 3),
    (Exception, "internal", 3),
)


# Exit status when standard output is closed before the report is written
# (`nodaltheta ... | head -c 1`): not a bug, so not 3.
EXIT_STDOUT_CLOSED = 1


def _write(line: str, stream) -> bool:
    """Print and flush `line`; False if the reader closed the pipe.  The stream
    is then pointed at os.devnull, so that the flush at interpreter exit
    writes nothing and prints no traceback."""
    try:
        print(line, file=stream, flush=True)
        return True
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return False


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        payload = dispatch(argv)
    except Exception as exc:  # never let a traceback reach the user
        name, status = next((n, s) for kind, n, s in _EXITS if isinstance(exc, kind))
        message = f"{type(exc).__name__}: {exc}" if name == "internal" else str(exc)
        _write(canonical_json({"error": name or exc.name, "message": message}), sys.stderr)
        return status
    return 0 if _write(canonical_json(payload), sys.stdout) else EXIT_STDOUT_CLOSED


if __name__ == "__main__":
    sys.exit(main())
