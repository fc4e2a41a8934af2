"""Generic-twist drop check: twisting by a generic smooth point drops h0
(and dually h1) by exactly one.  A test helper; the library itself only
provides `cohomology` and `twist_by_point`, which this check combines."""

import random
from dataclasses import dataclass

from nodaltheta.curve import RationalNodalCurve, TFSheaf, _draw_point, cohomology, twist_by_point
from nodaltheta.errors import PreconditionError, VerificationError

DROP_RESAMPLES = 5  # random points tried per twist


@dataclass(frozen=True)
class DropReport:
    trials: int
    h0_drops: int
    h1_drops: int
    resamples_used: int


def general_drop_check(
    curve: RationalNodalCurve,
    sheaf: TFSheaf,
    trials: int,
    seed: int,
) -> DropReport:
    """Generic single-point twists drop h0 (and dually h1) by exactly one.

    For each trial, up to `DROP_RESAMPLES` random smooth points are drawn;
    at least one must drop h0 from h to h-1 under a downward twist, and when
    h1 > 0 at least one must drop h1 under an upward twist.
    """
    h0_value, h1_value = cohomology(curve, sheaf)
    if h0_value < 1:
        raise PreconditionError("drop-check", "sheaf has no sections to drop")
    rng = random.Random(seed)
    avoid = set(curve.node_points())
    resamples = 0
    # (twist sign, index into (h0, h1), value): down drops h0, up drops h1
    checks = [(-1, 0, h0_value)] + ([(1, 1, h1_value)] if h1_value >= 1 else [])
    for _ in range(trials):
        for sign, index, value in checks:
            for _ in range(DROP_RESAMPLES):
                twisted = twist_by_point(sheaf, _draw_point(rng, avoid), sign, curve)
                resamples += 1
                if cohomology(curve, twisted)[index] == value - 1:
                    break
            else:
                raise VerificationError(
                    f"no generic point dropped h{index} within the resample budget"
                )
    return DropReport(trials, trials, trials if h1_value >= 1 else 0, resamples)
