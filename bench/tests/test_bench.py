"""Tests of the benchmark itself: failure counting, self time, tracing.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

sys.path.insert(0, str(run.SRC))


def first_cases(workload, count):
    _, cases = run.set_up(workload, seed=0)
    return cases[:count]


def test_corrupted_pin_counts_as_failure():
    cases = first_cases("arc-sampling", 3)
    tally = run.Tally()
    _, outputs = run.run_pass(cases, {}, tally)
    assert tally.failed == 0
    pins = {run.digest(c.input.key): run.digest(o) for c, o in zip(cases, outputs)}

    tally = run.Tally()
    run.run_pass(cases, pins, tally)
    assert (tally.attempted, tally.failed) == (3, 0)

    payload = json.loads(outputs[1])
    payload["N"] += 1
    corrupted = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    pins[run.digest(cases[1].input.key)] = run.digest(corrupted)
    tally = run.Tally()
    run.run_pass(cases, pins, tally)
    assert (tally.attempted, tally.failed) == (3, 1)
    assert "pinned" in tally.reasons[0]


def test_failed_check_counts_as_failure():
    cases = first_cases("local-oracle", 2)
    cases[0].input.expect["ord"] += 1
    tally = run.Tally()
    run.run_pass(cases, {}, tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_self_time_on_hand_built_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 6]
    spans = [
        ("a", -1, 0.0, 10.0),
        ("b", 0, 1.0, 4.0),
        ("c", 1, 2.0, 3.0),
        ("b", 0, 5.0, 6.0),
    ]
    assert self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_wrapper_returns_and_raises_unchanged():
    tracer = Tracer()
    error = ValueError("boom")

    def fails():
        raise error

    marker = object()
    assert tracer.span("ok", lambda: marker)() is marker
    with pytest.raises(ValueError) as caught:
        tracer.span("bad", fails)()
    assert caught.value is error
    assert [s[0] for s in tracer.spans] == ["ok", "bad"]


@pytest.mark.parametrize("workload", ["theta-verify", "local-oracle", "arc-sampling"])
def test_traced_outputs_equal_untraced(workload):
    cases = first_cases(workload, 4)
    tally = run.Tally()
    _, plain = run.run_pass(cases, {}, tally)
    tracer = Tracer()
    tracer.install()
    try:
        _, traced = run.run_pass(cases, {}, tally)
    finally:
        tracer.uninstall()
    assert tally.failed == 0
    assert traced == plain
    assert tracer.spans
    # uninstall restores every binding
    assert not hasattr(cases[0].lib.cli.dispatch, "__wrapped__")
    assert not hasattr(cases[0].lib.nodaltheta.series.PowerSeries.__mul__, "__wrapped__")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "arc-sampling", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
