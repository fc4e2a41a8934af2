"""Benchmark runner for nodaltheta.

    python3 bench/run.py --workload theta-verify --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  One process, one thread.  A run:

1. sets up `SETUP_REPEATS` times (drop the package from `sys.modules`,
   import `nodaltheta` and `nodaltheta.cli`, generate the seeded inputs) and
   keeps the last set-up;
2. runs passes over the fixed input set while another pass fits in
   `--seconds` (always at least one), checking every output;
3. prints a report, one metric per line, and as its last line one JSON
   object with `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1` half
the time runs untraced and half traced (at least one pass each), traced
outputs must equal untraced ones, and the metrics are the per-layer figures
per pass, the tracing overhead, and the cold-process overhead of the first
input's argv.

Workloads (closed loop, one caller, next input after the previous returns):
theta-verify, local-oracle, arc-sampling; see `inputs.py`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from cases import Case, digest, problems, run_cli_main  # noqa: E402
from inputs import GENERATORS  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

SETUP_REPEATS = 9
COLD_REPEATS = 3
TAIL_BEYOND = 10
MAX_REPORTED_FAILURES = 5


def load_pins(workload: str) -> dict:
    path = BENCH / "pinned" / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def import_library() -> SimpleNamespace:
    for name in [n for n in sys.modules if n == "nodaltheta" or n.startswith("nodaltheta.")]:
        del sys.modules[name]
    return SimpleNamespace(
        nodaltheta=importlib.import_module("nodaltheta"),
        cli=importlib.import_module("nodaltheta.cli"),
    )


def interleave(inputs):
    """Round-robin over size classes, so that a slow stretch of a shared
    machine lands on every class a little rather than on one class whole."""
    by_size = {}
    for inp in inputs:
        by_size.setdefault(inp.size, []).append(inp)
    queues = [by_size[size] for size in sorted(by_size)]
    return [q[i] for i in range(max(map(len, queues))) for q in queues if i < len(q)]


def set_up(workload: str, seed: int):
    lib = import_library()
    return lib, [Case(inp, lib) for inp in interleave(GENERATORS[workload](seed))]


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, label: str, found) -> None:
        self.attempted += 1
        if found:
            self.failed += 1
            if len(self.reasons) < MAX_REPORTED_FAILURES:
                self.reasons.append(f"{label}: {'; '.join(found)}")


def run_pass(cases, pins, tally: Tally):
    """One pass over the input set: per-input seconds and outputs."""
    times, outputs = [], []
    for case in cases:
        start = perf_counter()
        try:
            output = case.run()
        except Exception as exc:  # a failed input is counted, the run goes on
            output, found = None, [f"{type(exc).__name__}: {exc}"]
        elapsed = perf_counter() - start
        if output is not None:
            try:
                found = problems(case, output, pins.get(digest(case.input.key)))
            except (KeyError, TypeError, ValueError) as exc:
                found = [f"malformed output {output!r}: {exc!r}"]
        tally.record(case.input.key, found)
        times.append(elapsed)
        outputs.append(output)
    return times, outputs


def run_passes(cases, pins, tally, budget: float):
    """Passes while another one fits in `budget` seconds; at least one."""
    passes = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        times, outputs = run_pass(cases, pins, tally)
        passes.append((perf_counter() - pass_start, times, outputs))
        typical = statistics.median(p[0] for p in passes)
        if perf_counter() - start + typical > budget:
            return passes


def tail(values):
    """Highest nearest-rank percentile with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return ordered[-1], 100, len(ordered)
    return ordered[rank - 1], 100 * rank // len(ordered), len(ordered)


def end_to_end(workload, cases, passes, setups, tally):
    per_input = [statistics.median(p[1][i] for p in passes) for i in range(len(cases))]
    value, percentile, count = tail(per_input)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p[0] for p in passes), "s"),
        "case_s.p50": (statistics.median(per_input), "s"),
        "case_s.tail": (value, "s"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {len(passes)} passes over {len(cases)} inputs",
        "case_s.tail": f"p{percentile} of {count} per-input medians",
    }
    for size in range(1, 6):
        group = [t for t, case in zip(per_input, cases) if case.input.size == size]
        name = f"case_s.size{size}"
        metrics[name] = (statistics.mean(group), "s")
        notes[name] = f"mean of {len(group)} per-input medians"
        if workload == "theta-verify":
            notes[name] += f"; verify_s.g{size + 1}"
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    ratio = tally.failed / tally.attempted
    return metrics, notes, ("failed_ratio", ratio, f"{tally.failed}/{tally.attempted}")


def cold_process(lib, case, expected: str, tally: Tally):
    """Subprocess time minus in-process dispatch time for one argv."""
    argv = case.input.argv
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spawned, dispatched = [], []
    for _ in range(COLD_REPEATS):
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "nodaltheta.cli", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        spawned.append(perf_counter() - start)
        found = [] if done.returncode == 0 and done.stdout.strip() == expected else [
            f"subprocess exit {done.returncode}, stdout {done.stdout.strip()!r}"]
        tally.record(f"subprocess {case.input.key}", found)
        start = perf_counter()
        run_cli_main(lib.cli, argv)
        dispatched.append(perf_counter() - start)
    return statistics.median(spawned) - statistics.median(dispatched)


def traced_layers(lib, cases, pins, tally, seconds):
    plain = run_passes(cases, pins, tally, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(cases, pins, tally, seconds / 2)
    finally:
        tracer.uninstall()
    reference = plain[0][2]
    for _, _, outputs in traced:
        for case, got, want in zip(cases, outputs, reference):
            same = got == want
            tally.record(f"traced {case.input.key}",
                         [] if same else [f"traced output {got!r} != {want!r}"])
    metrics = {name: (value, unit_of(name)) for name, value in
               layer_metrics(tracer, len(traced)).items()}
    families = indeterminate = 0
    for _, _, outputs in traced:
        for output in outputs:
            orders = json.loads(output).get("randomFamilyOrders", []) if output else []
            families += len(orders)
            indeterminate += orders.count("indeterminate")
    metrics["curve.random_family.indeterminate_ratio"] = (
        indeterminate / families if families else 0.0, "ratio")
    metrics["cli.process_overhead_s"] = (
        cold_process(lib, cases[0], reference[0], tally), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(p[0] for p in traced) - statistics.median(p[0] for p in plain), "s")
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bits.max"):
        return "bits"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nodaltheta" / "__init__.py").is_file():
        print(f"no library sources under {SRC}; run from a nodaltheta checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        lib, cases = set_up(args.workload, args.seed)
        setups.append(perf_counter() - start)
    pins = load_pins(args.workload)
    tally = Tally()

    lines = [f"workload {args.workload}, seed {args.seed}, {len(cases)} inputs"]
    if args.trace:
        metrics = traced_layers(lib, cases, pins, tally, args.seconds)
        notes = {}
    else:
        passes = run_passes(cases, pins, tally, args.seconds)
        metrics, notes, (name, ratio, counts) = end_to_end(
            args.workload, cases, passes, setups, tally)
        lines.append(f"{name:<44} {ratio:.6g} ratio ({counts})")
    for name, (value, unit) in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        lines.append(f"{name:<44} {value:.6g} {unit}{note}")
    lines.extend(f"FAILED {reason}" for reason in tally.reasons)
    print("\n".join(lines))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
