"""Self-test of the benchmark at a tiny run length.

Run from the root of a checkout (about a minute on two cores)::

    python3 -m pytest perfbench/tests -q

It checks the result schema, that every metric named in ``BENCHMARK.json``
is reported with its unit, and that a corrupted reference value shows up as
failed operations.
"""

import dataclasses
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import run  # noqa: E402

workloads, layers = run.load_program()


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert SPEC["command"][1:] == ["perfbench/run.py"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"], metric["name"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_result_schema_and_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
    for m in SPEC["end_to_end"] if not trace else ():
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def _failed_frac(name: str) -> float:
    workload = workloads.WORKLOADS[name]
    state = workload.setup(5)
    checked = workloads.Checked()
    loop = run.timed_loop(workload, state, 0, layers.no_span, layers.cpu_seconds, checked)
    return (loop.failed + checked.failed) / loop.attempted


@pytest.mark.parametrize("name", ["mc-small", "exact-rational"])
def test_corrupted_brute_force_reference_fails_ops(name, monkeypatch):
    real = workloads.brute_force_outcome

    def corrupted(space, slate, vector):
        outcome = real(space, slate, vector)
        return dataclasses.replace(outcome, distortion=outcome.distortion * Fraction(101, 100))

    monkeypatch.setattr(workloads, "brute_force_outcome", corrupted)
    assert _failed_frac(name) > 0


def test_corrupted_event_reference_fails_ops(monkeypatch):
    real = workloads.check_event

    def corrupted(params, slate):
        event = real(params, slate)
        return dataclasses.replace(event, far_gaps_ok=not event.far_gaps_ok)

    monkeypatch.setattr(workloads, "check_event", corrupted)
    assert _failed_frac("adversarial-full") > 0
