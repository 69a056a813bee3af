"""Theorem 1 holds on every bid round of a realistic R=4 trajectory.

The slot pipeline runs one flat ε-auction per bid round.  Theorem 1
says that auction's final assignment and prices satisfy primal
feasibility plus ε-complementary slackness, hence welfare within
``served·ε`` of the optimum.  This pin checks the certificate on every
round the live system actually solves — four quarter-capacity rounds
per slot, under churn with early departures, the ``loss30-delay50``
preset on every inter-ISP pair, and a mid-run inter-ISP price shock —
through a thin wrapper around the production scheduler.  The shock
cuts transit prices so that traffic starts crossing the lossy
inter-ISP links (before it, the tiny swarm stays fully local).  Tiny
problems solve in the ``auto`` mode's gauss-seidel path, so the jacobi
frontier that bench-scale slots run is forced as a second mode.
"""

from __future__ import annotations

import pytest

from repro.core.duality import duality_gap, verify_theorem1
from repro.core.scheduler import AuctionScheduler
from repro.p2p.config import SystemConfig
from repro.p2p.system import P2PSystem

SLOTS = 6
SHOCK_SLOT = 2
SHOCK_FACTOR = 0.3


class CertifyingScheduler(AuctionScheduler):
    """The production auction, certified after every solve."""

    def __init__(self, epsilon: float, mode: str) -> None:
        super().__init__(epsilon=epsilon, mode=mode)
        self.rounds = 0
        self.priced_rounds = 0

    def schedule(self, problem, initial_prices=None):
        result = super().schedule(problem, initial_prices=initial_prices)
        result.check_feasible(problem)
        report = verify_theorem1(problem, result, self.epsilon)
        assert report.optimal, report.violations[:5]
        gap = duality_gap(problem, result)
        served = result.n_served()
        assert -1e-9 <= gap <= served * self.epsilon + 1e-9, (gap, served)
        self.rounds += 1
        self.priced_rounds += any(p > 0 for p in result.prices.values())
        return result


@pytest.mark.parametrize("mode", ["auto", "jacobi"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_certificate_on_every_bid_round(seed, mode):
    config = SystemConfig.tiny(
        seed=seed,
        bid_rounds_per_slot=4,
        early_departure_prob=0.6,
    )
    scheduler = CertifyingScheduler(config.epsilon, mode)
    system = P2PSystem(config, scheduler=scheduler)
    system.populate_static(16)
    assert system.apply_link_preset("loss30-delay50") > 0
    for slot in range(SLOTS):
        if slot == SHOCK_SLOT:
            system.scale_inter_isp_costs(SHOCK_FACTOR)
        system.run_slot(churn=True, remove_finished=True)
    # Every slot solved all four rounds, and the pin is not vacuous:
    # prices bound on some rounds (uploaders were contested), churn
    # removed peers, and the lossy links failed and retried transfers.
    slots = system.collector.slots
    assert scheduler.rounds == 4 * SLOTS
    assert scheduler.priced_rounds > 0
    assert system.departures > 0
    assert sum(m.transfers_failed for m in slots) > 0
    assert sum(m.retry_attempts for m in slots) > 0
