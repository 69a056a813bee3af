"""The benchmark's workloads: what each one runs and why.

Both run ``SystemConfig.bench`` with R = 4 bid rounds per slot and the
``auction`` scheduler, closed-loop: the next slot starts when
``P2PSystem.run_slot`` returns.  Each is sized so that its measured
window is stationary (load neither drains nor ramps), which the
stationarity guard in :mod:`perfbench.bench` enforces per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.p2p.config import SystemConfig

__all__ = [
    "LINK_PRESET",
    "MIN_SLOTS_PER_PASS",
    "PASSES",
    "WORKLOADS",
    "Workload",
    "pass_seed",
]

#: Independent passes per untraced run.  Each builds, populates and warms
#: its own system from its own seed, then measures its share of the
#: window, so a run averages the auction work of three populations and
#: ``setup_s`` is a median of three whole set-ups.
PASSES = 3
#: Fewest measured slots per pass: three passes then still leave more
#: than ten slots beyond the tail percentile.
MIN_SLOTS_PER_PASS = 4

#: Link-condition preset both workloads install on every inter-ISP pair.
#: With ideal links the miss rate is a handful of stranded peers per seed
#: and moves by half from seed to seed (see README.md); the traced run
#: measures the ideal-link path on an extra twin instead.
LINK_PRESET = "loss30-delay50"


def pass_seed(seed: int, k: int) -> int:
    """The seed of pass ``k`` of a run with ``--seed seed``."""
    return seed * PASSES + k


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a seeded configuration and its population."""

    name: str
    n_peers: int
    #: ``SystemConfig.bench`` overrides.
    overrides: Mapping[str, object]
    #: Slots run after population and before the measured window.
    warmup_slots: int
    #: Typical slot time on a 2-vCPU host; sizes the window from --seconds.
    nominal_slot_s: float
    #: Poisson arrivals and departures (``run_slot(churn=True)``).
    churn: bool = False

    def config(self, seed: int) -> SystemConfig:
        return SystemConfig.bench(seed=seed, **dict(self.overrides))

    def slots_per_pass(self, seconds: float) -> int:
        """Measured slots of each pass in a ``seconds`` run.

        A slot count fixed by the arguments, not a wall-clock deadline,
        so the deterministic outcomes of a seed repeat exactly.
        """
        return max(MIN_SLOTS_PER_PASS, round(seconds / PASSES / self.nominal_slot_s))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # 2,000 staggered static peers on 40,000-chunk videos (1,600
        # slots long): about 1 in 1,600 peers finishes per slot, so
        # requests stay near 100k per slot across the window.  Slot 0 is
        # a ~3 s transient against ~0.45 s steady.  No churn: cost-cache,
        # tracker and batched admit/remove code stay idle and the auction
        # and build do most of the slot.
        Workload(
            name="static-steady",
            n_peers=2000,
            overrides={"video_size_bytes": 40_000 * 32 * 1024},
            warmup_slots=4,
            nominal_slot_s=0.5,
        ),
        # 1,000 staggered peers plus Poisson arrivals at 20/s with
        # early departures (the paper's Fig. 6 regime).  The staggered
        # peers finish within ~10 slots; the online population then
        # settles near 1,700 with ~200 arrivals and departures per slot.
        # (At 30/s the population settles near 2,450 and a run costs ~60%
        # more host time for the same window.)
        Workload(
            name="churn-lossy",
            n_peers=1000,
            overrides={
                "arrival_rate_per_s": 20.0,
                "early_departure_prob": 0.6,
            },
            churn=True,
            warmup_slots=12,
            nominal_slot_s=0.9,
        ),
    )
}
