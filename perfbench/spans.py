"""The traced run: spans around each layer's entry point, the correctness
gate on every bid round, and the per-layer metrics.

Spans are recorded from the benchmark's side only, by replacing public
entry points on the instance (the program is not modified):

=====================  ==============================================
span                   wrapped call
=====================  ==============================================
``slot``               ``P2PSystem.run_slot``
``build``              ``P2PSystem.build_problem`` / ``patch_problem``
``auction``            ``scheduler.schedule``
``costs.forget``       ``CostModel.forget_peer``
``costs.pairs``        ``CostModel.costs_for_pairs``
``tracker.bootstrap``  ``Tracker.bootstrap_candidates``
``store.admit``        ``PeerStateStore.admit_batch``
``store.remove``       ``PeerStateStore.remove_batch``
=====================  ==============================================

Apply, playback and retry time come from the program's own slot tracer
(``attach_tracer`` with a ``MemoryTraceSink``); none of the wrapped
calls runs inside those phases, so their durations are self times.
"""

from __future__ import annotations

import gc
import json
import math
import os
import statistics
from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from repro.core.duality import duality_gap
from repro.obs.sinks import MemoryTraceSink
from repro.p2p.system import P2PSystem

from .bench import (
    SchedulerFactory,
    Window,
    check_state,
    convergence_check,
    log_schedules,
    outcome_metrics,
    run_window,
    set_up,
    stationarity_violations,
    step_window,
)
from .workloads import Workload, pass_seed

__all__ = ["SpanRecorder", "accounting_violations", "check_round", "run_traced"]

#: Float tolerance on the duality-gap certificate, relative to welfare.
GAP_RTOL = 1e-9
#: How far span sums may stray from the program's own phase timers: a
#: share of the traced slot time plus a per-slot allowance for the
#: wrappers and the tracer's own record keeping.
CLOSURE_RTOL = 0.01
CLOSURE_ATOL_S = 1e-3


class SpanRecorder:
    """In-memory spans: name, start, end, parent, slot and bid round."""

    def __init__(self) -> None:
        self.name: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.slot: List[int] = []
        self.round: List[int] = []
        self._stack: List[int] = []
        self._slot = -1
        self._round = -1

    def wrap(self, obj, attr: str, name: str) -> None:
        """Replace ``obj.attr`` on the instance with a span-recording call."""
        inner = getattr(obj, attr)

        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                return inner(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()

        setattr(obj, attr, traced)

    def _open(self, name: str) -> int:
        if name == "slot":
            self._slot += 1
            self._round = -1
        elif name == "build":
            self._round += 1
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.slot.append(self._slot)
        self.round.append(self._round)
        self.end.append(math.nan)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def self_times(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(duration, self time)`` per span; self = duration − children."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return dur, dur - child

    def write(self, path: str) -> None:
        """One JSON line per span, times relative to the first span."""
        dur, own = self.self_times()
        t0 = self.start[0] if self.start else 0.0
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.name):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "parent": self.parent[i],
                            "slot": self.slot[i],
                            "round": self.round[i],
                            "start_s": self.start[i] - t0,
                            "dur_s": float(dur[i]),
                            "self_s": float(own[i]),
                        }
                    )
                    + "\n"
                )


def instrument(system: P2PSystem, recorder: SpanRecorder) -> list:
    """Install spans on ``system``; returns the per-round ``(problem, result)`` log."""
    recorder.wrap(system, "run_slot", "slot")
    recorder.wrap(system, "build_problem", "build")
    recorder.wrap(system, "patch_problem", "build")
    recorder.wrap(system.scheduler, "schedule", "auction")
    # Outside the auction span: the log append is not auction time.
    rounds = log_schedules(system)
    recorder.wrap(system.costs, "forget_peer", "costs.forget")
    recorder.wrap(system.costs, "costs_for_pairs", "costs.pairs")
    recorder.wrap(system.tracker, "bootstrap_candidates", "tracker.bootstrap")
    recorder.wrap(system.store, "admit_batch", "store.admit")
    recorder.wrap(system.store, "remove_batch", "store.remove")
    return rounds


def check_round(problem, result, epsilon: float) -> Tuple[List[str], float]:
    """The gate on one bid round; returns ``(violations, gap ÷ served·ε)``.

    Feasibility (``ScheduleResult.check_feasible``), convergence, and
    Theorem 1's certificate 0 ≤ duality gap ≤ n_served·ε.
    """
    out = []
    try:
        result.check_feasible(problem)
    except AssertionError as exc:
        out.append(f"infeasible assignment: {exc}")
    if not result.stats.converged:
        out.append("auction did not converge")
    served = result.n_served()
    gap = duality_gap(problem, result)
    tol = GAP_RTOL * max(1.0, abs(result.welfare(problem)))
    if not -tol <= gap <= served * epsilon + tol:
        out.append(
            f"duality gap {gap:.6g} outside [0, served·ε = {served * epsilon:.6g}]"
        )
    return out, (gap / (served * epsilon) if served else 0.0)


def accounting_violations(
    recorder: SpanRecorder, phase: dict, other: float, n_slots: int
) -> List[str]:
    """Spans against the program's own phase timers (``phase``, summed
    ``timing`` of the slot tracer), and a slot remainder ``other`` that
    cannot be negative unless spans overlap."""
    out = []
    if other < 0:
        out.append(f"span accounting: negative slot remainder {other:.6f} s")
    dur, _ = recorder.self_times()
    names = np.asarray(recorder.name)
    tolerance = CLOSURE_RTOL * float(dur[names == "slot"].sum()) + CLOSURE_ATOL_S * n_slots
    for span, key in (("build", "build"), ("auction", "solve"), ("slot", "slot")):
        spanned = float(dur[names == span].sum())
        if abs(spanned - phase[key]) > tolerance:
            out.append(
                f"span accounting: {span} spans sum to {spanned:.6f} s but the "
                f"program timed {key}_s = {phase[key]:.6f} s (tolerance {tolerance:.6f} s)"
            )
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_traced(
    workload: Workload,
    seed: int,
    seconds: float,
    scheduler: Optional[SchedulerFactory] = None,
    spans_path: Optional[str] = None,
):
    """The traced run on pass 0's seed: a traced pair, then an ideal-link twin.

    An untraced and a traced system are set up and warmed, then their
    measured slots alternate, so host-speed drift lands on both alike
    and ``trace.overhead_ratio`` compares like with like.  After both
    are closed, a third system of the same seed on ideal links (the
    path the paper's experiments run) measures ``ideal.*``.  The pair
    each run two passes' worth of slots of a ``seconds`` run, so the
    stationarity guard sees enough slots in one trajectory; the twin
    runs one pass's worth.
    Returns ``(window, metrics, diagnostics)`` like
    :func:`perfbench.bench.run_untraced`; ``window.violations`` carries
    every gate failure.
    """
    seed = pass_seed(seed, 0)
    n_slots = workload.slots_per_pass(seconds)
    plain, _ = set_up(workload, seed, scheduler)
    system = None
    try:
        system, (construct_s, populate_s, warmup_s) = set_up(workload, seed, scheduler)
        recorder = SpanRecorder()
        rounds = instrument(system, recorder)
        tracer = system.attach_tracer(MemoryTraceSink())
        epsilon = system.config.epsilon
        gap_ratios: List[float] = []
        stats = []
        sizes = []

        def gate(_i: int) -> List[str]:
            out = []
            for problem, result in rounds:
                problems, ratio = check_round(problem, result, epsilon)
                out.extend(problems)
                gap_ratios.append(ratio)
                stats.append(result.stats)
                sizes.append((problem.n_requests, problem.n_edges()))
            rounds.clear()
            return out

        reference, window = Window(), Window()
        gc.collect()
        for _ in range(2 * n_slots):
            if not (
                step_window(plain, workload, reference, lambda _i: [])
                and step_window(system, workload, window, gate)
            ):
                break
        else:
            check_state(plain, reference)
            check_state(system, window)
        cache_entries = system.costs.cache_size()
    finally:
        plain.close()
        if system is not None:
            system.close()
    del plain, system
    gc.collect()

    ideal = Window()
    twin, _ = set_up(workload, seed, scheduler, links=None)
    try:
        run_window(twin, workload, ideal, n_slots, convergence_check(log_schedules(twin)))
    finally:
        twin.close()
    del twin

    for other in (reference, ideal):
        window.violations.extend(other.violations)
        window.attempted += other.attempted
        window.failed += other.failed
    window.violations.extend(stationarity_violations([window.records]))
    ref_out = [r.outcome() for r in reference.records]
    for i, record in enumerate(window.records):
        if i >= len(ref_out) or record.outcome() != ref_out[i]:
            window.violations.append(
                f"slot {i}: traced outcome {record.outcome()} != untraced "
                f"{ref_out[i] if i < len(ref_out) else None}"
            )
            window.failed += 1
    n = len(window.records)
    if n == 0 or not ideal.records:
        window.violations.append("no slot completed")
        return window, {}, {}

    dur, own = recorder.self_times()
    names = np.asarray(recorder.name)

    def self_sum(name: str) -> float:
        return float(own[names == name].sum())

    def calls(name: str) -> int:
        return int((names == name).sum())

    timing = [rec["timing"] for rec in tracer.records()]
    phase = {
        key: sum(t[f"{key}_s"] for t in timing)
        for key in ("build", "solve", "apply", "playback", "retry", "slot")
    }
    slot_total = float(dur[names == "slot"].sum())
    other = self_sum("slot") - phase["apply"] - phase["playback"] - phase["retry"]
    auction_dur = dur[names == "auction"]
    auction_rounds = sum(s.rounds for s in stats)
    bids = sum(s.bids_submitted for s in stats)
    requests = sum(r for r, _ in sizes)
    edges = sum(e for _, e in sizes)
    records = window.records
    retry_attempts = sum(r.retry_attempts for r in records)
    served = sum(r.served for r in records)

    traced_p50 = statistics.median(window.slot_s)
    untraced_p50 = statistics.median(reference.slot_s) if reference.slot_s else math.nan
    layer_busy = {
        "auction.busy_s": self_sum("auction"),
        "build.busy_s": self_sum("build"),
        "apply.busy_s": phase["apply"],
        "playback.busy_s": phase["playback"],
        "retry.busy_s": phase["retry"],
        "costs.forget_busy_s": self_sum("costs.forget"),
        "costs.pairs_busy_s": self_sum("costs.pairs"),
        "tracker.bootstrap_busy_s": self_sum("tracker.bootstrap"),
        "store.admit_busy_s": self_sum("store.admit"),
        "store.remove_busy_s": self_sum("store.remove"),
    }
    window.violations.extend(accounting_violations(recorder, phase, other, n))

    metrics = {
        **{k: (_ratio(v, n), "s") for k, v in layer_busy.items()},
        "auction.call_p50_s": (float(np.median(auction_dur)), "s"),
        "auction.rounds": (_ratio(auction_rounds, len(stats)), "count"),
        "auction.s_per_round": (
            _ratio(float(auction_dur.sum()), auction_rounds), "s/round"
        ),
        "auction.bids_submitted": (_ratio(bids, n), "count"),
        "auction.bid_accept_ratio": (
            1.0 - _ratio(sum(s.bids_rejected for s in stats), bids),
            "ratio",
        ),
        "auction.evictions": (_ratio(sum(s.evictions for s in stats), n), "count"),
        "auction.gap_ratio_max": (max(gap_ratios, default=0.0), "ratio"),
        "build.requests": (_ratio(requests, n), "count"),
        "build.edges": (_ratio(edges, n), "count"),
        "build.s_per_kedge": (_ratio(self_sum("build"), edges / 1000.0), "s/kedge"),
        "retry.success_ratio": (
            _ratio(sum(r.retry_succeeded for r in records), retry_attempts),
            "ratio",
        ),
        "link.failed_ratio": (
            _ratio(sum(r.transfers_failed for r in records), served),
            "ratio",
        ),
        "costs.forget_calls": (_ratio(calls("costs.forget"), n), "count"),
        "costs.cache_entries": (float(cache_entries), "count"),
        "tracker.bootstrap_calls": (_ratio(calls("tracker.bootstrap"), n), "count"),
        "slot.other_s": (_ratio(other, n), "s"),
        "slot.traced_mean_s": (_ratio(slot_total, n), "s"),
        "setup.construct_s": (construct_s, "s"),
        "setup.populate_s": (populate_s, "s"),
        "setup.warmup_s": (warmup_s, "s"),
        "trace.overhead_ratio": (traced_p50 / untraced_p50, "ratio"),
        "ideal.slot_p50_s": (statistics.median(ideal.slot_s), "s"),
        "ideal.miss_rate": outcome_metrics(ideal.records)["miss_rate"],
    }
    if spans_path is not None:
        recorder.write(spans_path)
    diagnostics = {
        "measured_slots": n,
        "spans": len(recorder.name),
        "bid_rounds_checked": len(stats),
        "untraced_slot_p50_s": untraced_p50,
        "traced_slot_p50_s": traced_p50,
        "spans_file": spans_path,
    }
    return window, metrics, diagnostics
