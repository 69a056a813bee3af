"""Closed-loop ``run_slot`` window, end-to-end metrics and output checks.

One seeded :class:`~repro.p2p.system.P2PSystem` per pass, driven slot
after slot on the calling thread.  The untraced run wraps nothing but a
passthrough on ``scheduler.schedule`` that reads
``SolverStats.converged``; everything else it checks from the slot
metrics the program returns and from the store's own consistency check
after each pass.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.scheduler import ChunkScheduler
from repro.p2p.system import P2PSystem

from .workloads import LINK_PRESET, PASSES, Workload, pass_seed

__all__ = [
    "SlotRecord",
    "Window",
    "build_system",
    "check_state",
    "convergence_check",
    "host_probe_s",
    "log_schedules",
    "run_untraced",
    "run_window",
    "set_up",
    "step_window",
    "stationarity_violations",
    "tail_percentile",
]

#: ``slot_tail_s`` is the highest percentile with this many slots beyond it.
TAIL_MIN_BEYOND = 10
#: Requests per slot and online population in the passes' last quarters
#: may differ from their first quarters by this share.  Steady churn
#: windows drift by ~4% (one sd) on their own, so a tighter band would
#: fail steady runs; a drained or ramping window moves by far more.
STATIONARITY_BAND = 0.15

SchedulerFactory = Callable[[], ChunkScheduler]


@dataclass(frozen=True)
class SlotRecord:
    """The outputs of one slot the benchmark checks and aggregates."""

    welfare: float
    inter: int
    intra: int
    due: int
    missed: int
    requests: int
    served: int
    peers: int
    transfers_failed: int
    retry_attempts: int
    retry_succeeded: int
    auction_rounds: int

    @classmethod
    def of(cls, m) -> "SlotRecord":
        return cls(
            welfare=m.welfare,
            inter=m.inter_isp_chunks,
            intra=m.intra_isp_chunks,
            due=m.chunks_due,
            missed=m.chunks_missed,
            requests=m.n_requests,
            served=m.n_served,
            peers=m.n_peers,
            transfers_failed=m.transfers_failed,
            retry_attempts=m.retry_attempts,
            retry_succeeded=m.retry_succeeded,
            auction_rounds=m.auction_rounds,
        )

    def outcome(self) -> Tuple[float, int, int, int, int]:
        """The per-slot outcome a traced run must reproduce exactly."""
        return (self.welfare, self.inter, self.intra, self.due, self.missed)

    def violations(self) -> List[str]:
        out = []
        if not math.isfinite(self.welfare) or self.welfare < 0:
            out.append(f"welfare {self.welfare!r} is not a finite non-negative sum")
        if not 0 <= self.served <= self.requests:
            out.append(f"served {self.served} outside [0, {self.requests}] requests")
        if not 0 <= self.missed <= self.due:
            out.append(f"missed {self.missed} outside [0, {self.due}] due chunks")
        if min(self.inter, self.intra, self.transfers_failed) < 0:
            out.append("negative traffic or failure count")
        return out


@dataclass
class Window:
    """A measured window: per-slot wall times, records and violations."""

    slot_s: List[float] = field(default_factory=list)
    records: List[SlotRecord] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def build_system(
    workload: Workload,
    seed: int,
    scheduler: Optional[SchedulerFactory] = None,
    links: Optional[str] = LINK_PRESET,
) -> Tuple[P2PSystem, float, float]:
    """Construct and populate; returns ``(system, construct_s, populate_s)``.

    ``links`` is the preset installed on every inter-ISP pair; ``None``
    leaves the links ideal.
    """
    t0 = perf_counter()
    system = P2PSystem(
        workload.config(seed), scheduler() if scheduler is not None else None
    )
    t1 = perf_counter()
    system.populate_static(workload.n_peers)
    if links is not None:
        system.apply_link_preset(links)
    return system, t1 - t0, perf_counter() - t1


def set_up(
    workload: Workload,
    seed: int,
    scheduler: Optional[SchedulerFactory] = None,
    links: Optional[str] = LINK_PRESET,
) -> Tuple[P2PSystem, Tuple[float, float, float]]:
    """Build, populate and run the discarded transient slots.

    Returns ``(system, (construct_s, populate_s, warmup_s))``.
    """
    system, construct_s, populate_s = build_system(workload, seed, scheduler, links)
    t0 = perf_counter()
    for _ in range(workload.warmup_slots):
        system.run_slot(churn=workload.churn, remove_finished=workload.churn)
    return system, (construct_s, populate_s, perf_counter() - t0)


def log_schedules(system: P2PSystem) -> List[tuple]:
    """Passthrough on ``scheduler.schedule`` logging ``(problem, result)``.

    The caller reads and clears the log after every slot.
    """
    log: List[tuple] = []
    inner = system.scheduler.schedule

    def schedule(problem, *args, **kwargs):
        result = inner(problem, *args, **kwargs)
        log.append((problem, result))
        return result

    system.scheduler.schedule = schedule
    return log


def convergence_check(log: List[tuple]) -> Callable[[int], List[str]]:
    """A per-slot check that every logged bid round converged."""

    def check(_i: int) -> List[str]:
        bad = sum(not result.stats.converged for _, result in log)
        log.clear()
        return [f"{bad} bid round(s) did not converge"] if bad else []

    return check


# ----------------------------------------------------------------------
# Measured window
# ----------------------------------------------------------------------
def step_window(
    system: P2PSystem,
    workload: Workload,
    window: Window,
    check_slot: Callable[[int], List[str]],
) -> bool:
    """Run one timed slot into ``window``, then ``check_slot(i)`` untimed.

    Returns False when the slot raised: the system state is unknown
    after that, so the window ends.  A slot that raises or fails its
    checks counts as a failed operation.
    """
    i = window.attempted
    window.attempted += 1
    t0 = perf_counter()
    try:
        metrics = system.run_slot(churn=workload.churn, remove_finished=workload.churn)
    except Exception as exc:  # a raising slot is a failed operation
        window.violations.append(f"slot {i} raised {type(exc).__name__}: {exc}")
        window.failed += 1
        return False
    window.slot_s.append(perf_counter() - t0)
    record = SlotRecord.of(metrics)
    window.records.append(record)
    problems = [f"slot {i}: {p}" for p in record.violations() + check_slot(i)]
    if problems:
        window.violations.extend(problems)
        window.failed += 1
    return True


def check_state(system: P2PSystem, window: Window) -> None:
    """The store's own consistency check after the window."""
    try:
        system.store.check_consistency(system.peers, system.tracker)
    except AssertionError as exc:
        # A state check over the whole window: at least one slot failed.
        window.violations.append(f"peer-state store inconsistent after window: {exc}")
        window.failed = max(window.failed, 1)


def run_window(
    system: P2PSystem,
    workload: Workload,
    window: Window,
    n_slots: int,
    check_slot: Callable[[int], List[str]],
) -> bool:
    """Run ``n_slots`` timed slots into ``window``; see :func:`step_window`.

    Returns False when a slot raised.
    """
    gc.collect()
    for _ in range(n_slots):
        if not step_window(system, workload, window, check_slot):
            return False
    check_state(system, window)
    return True


def stationarity_violations(passes: Sequence[Sequence[SlotRecord]]) -> List[str]:
    """Requests and population, first vs. last quarter, within the band.

    The quarters of every pass are pooled: a drain or ramp moves all
    passes alike, while one pass's slot-to-slot churn noise averages out.
    """
    first: List[SlotRecord] = []
    last: List[SlotRecord] = []
    for records in passes:
        q = len(records) // 4
        if q < 1:
            return [f"pass of {len(records)} slots is too short to test stationarity"]
        first.extend(records[:q])
        last.extend(records[-q:])
    out = []
    for name in ("requests", "peers"):
        before = statistics.fmean(getattr(r, name) for r in first)
        after = statistics.fmean(getattr(r, name) for r in last)
        drift = after / before - 1.0 if before else math.inf
        if abs(drift) > STATIONARITY_BAND:
            out.append(
                f"window not stationary: {name} per slot moved {drift:+.1%} "
                f"from first to last quarter ({before:.0f} -> {after:.0f}; "
                f"band ±{STATIONARITY_BAND:.0%})"
            )
    return out


def tail_percentile(samples: Sequence[float]) -> Tuple[float, int, int]:
    """Highest integer percentile with ``TAIL_MIN_BEYOND`` samples above it.

    Nearest-rank: returns ``(value, percentile, n_beyond)``.
    """
    n = len(samples)
    if n <= TAIL_MIN_BEYOND:
        raise ValueError(f"need more than {TAIL_MIN_BEYOND} samples, got {n}")
    pct = (100 * (n - TAIL_MIN_BEYOND)) // n
    rank = -(-pct * n // 100)  # ceil(pct·n/100), 1-based
    return sorted(samples)[rank - 1], pct, n - rank


def host_probe_s() -> float:
    """A fixed numpy + Python kernel's wall time: a host-speed diagnostic."""
    a = np.random.default_rng(0).random(500_000)
    np.sort(a)  # fault the pages in before timing
    t0 = perf_counter()
    for _ in range(10):
        np.sort(a)
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
def outcome_metrics(records: Sequence[SlotRecord]) -> dict:
    """The paper's outcomes over the window: deterministic per seed."""
    inter = sum(r.inter for r in records)
    traffic = inter + sum(r.intra for r in records)
    due = sum(r.due for r in records)
    return {
        "welfare_per_slot": (statistics.fmean(r.welfare for r in records), "utility"),
        "inter_isp_share": (inter / traffic if traffic else 0.0, "fraction"),
        "miss_rate": (sum(r.missed for r in records) / due if due else 0.0, "fraction"),
    }


def run_untraced(
    workload: Workload, seed: int, seconds: float
) -> Tuple[Window, dict, dict]:
    """The end-to-end run: returns ``(window, metrics, diagnostics)``.

    ``PASSES`` passes run one after another, one system alive at a time.
    Each pass's set-up (construction, population, warm-up) is timed
    whole; ``setup_s`` is their median.  The measured slots of all
    passes pool into one window.
    """
    window = Window()
    passes: List[List[SlotRecord]] = []
    setups: List[float] = []
    n_slots = workload.slots_per_pass(seconds)
    for k in range(PASSES):
        system, phases = set_up(workload, pass_seed(seed, k))
        setups.append(sum(phases))
        try:
            first = len(window.records)
            if not run_window(
                system, workload, window, n_slots, convergence_check(log_schedules(system))
            ):
                break
            passes.append(window.records[first:])
        finally:
            system.close()
            del system
    rss = peak_rss_mb()

    metrics: dict = {}
    diagnostics: dict = {
        "passes": len(setups),
        "measured_slots": len(window.slot_s),
        "auction_rounds_per_slot": [
            statistics.fmean(r.auction_rounds for r in records) for records in passes
        ],
        "setup_s": setups,
    }
    if len(passes) < PASSES:
        return window, metrics, diagnostics
    window.violations.extend(stationarity_violations(passes))
    if len(window.slot_s) > TAIL_MIN_BEYOND:
        slot_s = window.slot_s
        tail, pct, beyond = tail_percentile(slot_s)
        slot_seconds = workload.config(seed).slot_seconds
        metrics = {
            "sim_s_per_wall_s": (len(slot_s) * slot_seconds / sum(slot_s), "s/s"),
            "slot_p50_s": (statistics.median(slot_s), "s"),
            "slot_tail_s": (tail, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss, "MB"),
            **outcome_metrics(window.records),
        }
        diagnostics.update(
            slot_tail_percentile=pct, slot_tail_samples_beyond=beyond
        )
    else:
        window.violations.append(
            f"only {len(window.slot_s)} slots measured; the tail needs "
            f"more than {TAIL_MIN_BEYOND}"
        )
    return window, metrics, diagnostics
