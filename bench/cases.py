"""Running one benchmark input against the library and checking its output.

`Case.run()` returns the canonical JSON text the input produced.  CLI inputs
go through `nodaltheta.cli.main` in process; theta-verify inputs call
`verify_theorem_A` directly and render the report exactly as `verify-A` does,
so the same argv run as a subprocess must print the same bytes.

`problems(case, output, pinned)` lists everything wrong with an output:
independent derivations from `inputs.py` first, then a byte-for-byte
comparison, through its SHA-256 digest, with the output pinned at the
baseline commit, when one is pinned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from typing import Dict, List, Optional

from inputs import THETA_FAMILIES, THETA_N, Input


class CaseFailed(Exception):
    """The library raised, or a CLI call exited non-zero."""


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    """Short SHA-256 of some text: pins are stored as digests of argv and output."""
    return hashlib.sha256(text.encode()).hexdigest()[:24]


class Case:
    def __init__(self, inp: Input, lib):
        self.input = inp
        self.lib = lib
        self.call = None
        if inp.lib_args is not None:
            args = inp.lib_args
            nt = lib.nodaltheta
            self.call = (
                nt.RationalNodalCurve(
                    tuple((Fraction(p), Fraction(q)) for p, q in args["nodes"])
                ),
                nt.TFSheaf.make(args["nonfree"], args["line_degree"], args["glue"]),
                args["seed"],
            )

    def run(self) -> str:
        if self.call is not None:
            return self._run_verify()
        return run_cli_main(self.lib.cli, self.input.argv)

    def _run_verify(self) -> str:
        curve, sheaf, seed = self.call
        report = self.lib.nodaltheta.verify_theorem_A(
            curve, sheaf, THETA_N, seed, random_families=THETA_FAMILIES
        )
        theta = report.theta
        payload = {
            "n": theta.n,
            "h0": theta.h0,
            "h1": theta.h1,
            "ord": theta.ord,
            "multJ": theta.mult_jacobian,
            "multTheta": theta.mult_theta,
            "onTheta": theta.on_theta,
            "singular": theta.singular,
            "exponents": list(theta.exponents),
            "familyOrder": report.family_order,
            "randomFamilyOrders": list(report.random_family_orders),
            "verified": True,
            "seed": report.seed,
            "N": THETA_N,
        }
        return canonical_json(payload)


def run_cli_main(cli, argv: List[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    if code != 0:
        raise CaseFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue().strip()


# -- checks --------------------------------------------------------------------


def _theta_problems(expect: Dict, out: Dict) -> List[str]:
    h0 = expect["h0"]
    found = []
    if h0 < 1:
        found.append(f"generated sheaf has h0 = {h0}, not a theta point")
    if expect["hyperelliptic"] and h0 != (expect["genus"] - 1) // 2 + 1:
        found.append(f"hyperelliptic h0 by rank is {h0}")
    if out["h0"] != h0 or out["h1"] != h0:
        found.append(f"h0/h1 {out['h0']}/{out['h1']} != {h0} by rank")
    if out["familyOrder"] != h0:
        found.append(f"family order {out['familyOrder']} != h0 {h0}")
    if out["n"] != expect["n"] or out["multTheta"] != 2 ** expect["n"] * h0:
        found.append(f"multTheta {out['multTheta']} != 2^{expect['n']} * {h0}")
    if sum(out["exponents"]) != out["familyOrder"]:
        found.append(f"exponents {out['exponents']} do not sum to the family order")
    orders = out["randomFamilyOrders"]
    if len(orders) != THETA_FAMILIES or not all(
        o == "indeterminate" or o >= h0 for o in orders
    ):
        found.append(f"random family orders {orders} not all >= h0 {h0}")
    return found


def _mult_problems(expect: Dict, out: Dict) -> List[str]:
    found = []
    per_branch = expect["per_branch"]
    if out["ord"] != expect["ord"]:
        found.append(f"ord {out['ord']} != {expect['ord']}")
    if out["per_branch"] != per_branch or out["mult_D"] != sum(per_branch):
        found.append(f"branch orders {out['per_branch']} != {per_branch}")
    if out["mult_V"] != expect["mult_V"]:
        found.append(f"mult_V {out['mult_V']} != {expect['mult_V']}")
    table = out["hs_table"]
    if not (out["hs_agrees"] and table["multiplicity"] == sum(per_branch)):
        found.append(f"Hilbert-Samuel multiplicity {table['multiplicity']} disagrees")
    if table["dimension"] != expect["dimension"]:
        found.append(f"dimension {table['dimension']} != {expect['dimension']}")
    eqnmat = out["eqnmat"]
    if not eqnmat["holds"] or eqnmat["equality"] != (
        sum(per_branch) == expect["mult_V"] * expect["ord"]
    ):
        found.append(f"eqnmat report {eqnmat} is wrong")
    return found


def _hs_problems(expect: Dict, out: Dict) -> List[str]:
    if (out["dimension"], out["multiplicity"]) != (
        expect["dimension"], expect["multiplicity"]
    ) or not out["stabilized"]:
        return [
            f"cusp table dimension/multiplicity {out['dimension']}/"
            f"{out['multiplicity']} != {expect['dimension']}/{expect['multiplicity']}"
        ]
    return []


def _sample_problems(expect: Dict, out: Dict) -> List[str]:
    found = []
    if out["ord"] != expect["ord"]:
        found.append(f"ord {out['ord']} != {expect['ord']}")
    if out["requested"] != expect["count"] or (
        out["used"] + out["skippedInside"] != expect["count"]
    ):
        found.append("used + skippedInside != requested")
    least = expect.get("min_contact", expect["ord"])
    if out["used"] == 0 or out["minContact"] < least:
        found.append(f"minContact {out['minContact']} < {least}")
    return found


def _arc_problems(argv: List[str], expect: Dict, out: Dict) -> List[str]:
    order = expect["ord"]
    if "--minimal" in argv or expect["z_ord"] == order:
        if not out["found"] or out["contact"] != order:
            return [f"minimal arc {out} does not reach ord {order}"]
        return []
    best = "Infinite" if expect["z_ord"] is None else expect["z_ord"]
    if out["found"] or out["bestContact"] != best:
        return [f"Z-arc report {out} != best contact {best}"]
    return []


def problems(case: Case, output: str, pinned: Optional[str]) -> List[str]:
    inp = case.input
    out = json.loads(output)
    command = inp.argv[0]
    if command == "verify-A":
        found = _theta_problems(inp.expect, out)
    elif command == "mult":
        found = _mult_problems(inp.expect, out)
    elif command == "hs":
        found = _hs_problems(inp.expect, out)
    elif command == "arcs-sample":
        found = _sample_problems(inp.expect, out)
    else:
        found = _arc_problems(inp.argv, inp.expect, out)
    if pinned is not None and digest(output) != pinned:
        found.append(f"output has digest {digest(output)}, pinned {pinned}")
    return found
