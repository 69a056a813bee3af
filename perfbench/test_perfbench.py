"""The benchmark's own tests: tiny workloads through the benchmark's code path.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import re

import pytest

from repro.core.scheduler import AuctionScheduler

from perfbench.bench import (
    SlotRecord,
    run_untraced,
    stationarity_violations,
    tail_percentile,
)
from perfbench.spans import SpanRecorder, accounting_violations, run_traced
from perfbench.workloads import PASSES, WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
#: A seed no benchmark run or other test uses.
HELD_OUT_SEED = 918_273


def tiny(name: str):
    """The named workload at test scale: same code path, ~100 peers."""
    w = WORKLOADS[name]
    overrides = dict(w.overrides, n_videos=3)
    if w.churn:
        overrides["arrival_rate_per_s"] = 1.5
    return dataclasses.replace(
        w, n_peers=40, overrides=overrides, nominal_slot_s=1.0
    )


class OverCapacityScheduler(AuctionScheduler):
    """The auction, then every request that lists the busiest uploader
    moved onto it, past its capacity."""

    def schedule(self, problem, initial_prices=None):
        result = super().schedule(problem, initial_prices)
        loads = result.uploader_loads()
        if loads:
            busiest = max(loads, key=loads.get)
            assignment = result.assignment
            for index in range(problem.n_requests):
                if busiest in problem.candidates_of(index):
                    assignment[index] = busiest
        return result


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_held_out_seed_runs_clean_with_declared_metrics(name):
    workload = tiny(name)
    window, metrics, diagnostics = run_untraced(workload, seed=HELD_OUT_SEED, seconds=0)
    assert window.violations == []
    assert window.failed == 0 and window.attempted == len(window.records)
    assert diagnostics["passes"] == len(diagnostics["setup_s"]) == PASSES
    assert {k: unit for k, (_, unit) in metrics.items()} == _declared("end_to_end")
    for key, (value, unit) in metrics.items():
        assert NAME.match(key) and unit
        assert math.isfinite(value) and value >= 0, key


def test_traced_metrics_are_declared_with_units(tmp_path):
    spans = tmp_path / "spans.jsonl"
    window, metrics, diagnostics = run_traced(
        tiny("churn-lossy"), seed=5, seconds=0, spans_path=str(spans)
    )
    assert window.violations == []
    assert window.failed == 0
    assert {k: unit for k, (_, unit) in metrics.items()} == _declared("per_layer")
    assert all(NAME.match(k) and unit for k, (_, unit) in metrics.items())
    lines = spans.read_text(encoding="utf-8").splitlines()
    assert len(lines) == diagnostics["spans"] > 0
    first = json.loads(lines[0])
    assert first["name"] == "slot" and first["parent"] == -1


def test_declared_names_are_well_formed():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in BENCHMARK[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("n", list(range(11, 120)) + [200, 1000])
def test_tail_percentile_keeps_ten_slots_beyond(n):
    samples = [float(x) for x in range(n)]
    value, pct, beyond = tail_percentile(samples)
    assert beyond >= 10
    assert value == samples[n - beyond - 1]
    # The next integer percentile would leave fewer than ten beyond.
    if pct < 100:
        rank = -(-(pct + 1) * n // 100)
        assert n - rank < 10


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10)


def test_infeasible_scheduler_trips_the_gate():
    workload = tiny("static-steady")
    epsilon = workload.config(5).epsilon
    window, _, _ = run_traced(
        workload, seed=5, seconds=0,
        scheduler=lambda: OverCapacityScheduler(epsilon=epsilon),
    )
    assert window.failed > 0
    assert any("infeasible assignment" in v for v in window.violations)


def _records(requests, peers):
    return [
        SlotRecord(1.0, 1, 1, 10, 0, r, r // 2, p, 0, 0, 0, 5)
        for r, p in zip(requests, peers)
    ]


def test_stationarity_guard_flags_drain_and_ramp():
    steady = _records([1000, 1010, 990, 1005] * 4, [500] * 16)
    assert stationarity_violations([steady, steady]) == []
    draining = _records([1000 - 60 * i for i in range(16)], [500] * 16)
    assert any("requests" in v for v in stationarity_violations([steady, draining]))
    ramping = _records([1000] * 16, [300 + 20 * i for i in range(16)])
    assert any("peers" in v for v in stationarity_violations([ramping]))
    assert "too short" in stationarity_violations([steady, steady[:3]])[0]


def _spans(*spans):
    """A recorder holding ``(name, start, end, parent)`` spans."""
    recorder = SpanRecorder()
    for name, start, end, parent in spans:
        recorder.name.append(name)
        recorder.start.append(start)
        recorder.end.append(end)
        recorder.parent.append(parent)
    return recorder


def test_span_accounting_checks_the_program_timers():
    recorder = _spans(
        ("slot", 0.0, 1.0, -1), ("build", 0.1, 0.3, 0), ("auction", 0.3, 0.8, 0)
    )
    timers = {"build": 0.2, "solve": 0.5, "slot": 1.0}
    assert accounting_violations(recorder, timers, other=0.3, n_slots=1) == []
    slow_build = dict(timers, build=0.25)
    assert any("build spans" in v for v in accounting_violations(recorder, slow_build, 0.3, 1))
    assert any("remainder" in v for v in accounting_violations(recorder, timers, -0.1, 1))
