"""Archived ablation results must regenerate from the live pipeline.

``results/ablation_solvers.txt`` and ``results/ablation_epsilon.txt``
are produced by the benchmark harness from the array-native problem
pipeline.  These smoke tests re-run the exact generating configuration
and assert the deterministic columns (welfare, served counts, bid/round
work) match the archived text byte for byte — the timing column is the
only thing allowed to drift.  A mismatch means the pipeline's numeric
behaviour changed and the archives (and any conclusions drawn from
them) are stale.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.experiments.sweep import (
    epsilon_sweep,
    rebid_study,
    render_epsilon_sweep,
    render_rebid_study,
    render_solver_comparison,
    solver_comparison,
)
from repro.metrics.report import table_without_timing

RESULTS = pathlib.Path(__file__).resolve().parent.parent.parent / "results"

@pytest.mark.skipif(
    not (RESULTS / "ablation_solvers.txt").exists(),
    reason="archive not generated yet",
)
def test_ablation_solvers_regenerates_identically():
    archived = (RESULTS / "ablation_solvers.txt").read_text(encoding="utf-8")
    rows = solver_comparison(
        rng=np.random.default_rng(1),
        n_requests=800,
        n_uploaders=40,
        max_candidates=8,
        epsilon=0.01,
    )
    regenerated = render_solver_comparison(rows)
    assert table_without_timing(regenerated) == table_without_timing(archived)


@pytest.mark.skipif(
    not (RESULTS / "ablation_rebid.txt").exists(),
    reason="archive not generated yet",
)
def test_ablation_rebid_regenerates_identically():
    """The re-bid study's deterministic columns must regenerate byte-equal.

    Heavier than the other regen pins (seven end-to-end runs), so it
    samples the study at two representative cells and compares just
    those rows against the archive.
    """
    archived = (RESULTS / "ablation_rebid.txt").read_text(encoding="utf-8")
    rows = rebid_study(rounds_list=(1, 2), seed=0)
    regenerated = render_rebid_study(rows)
    regen_rows = table_without_timing(regenerated)
    arch_rows = table_without_timing(archived)
    assert regen_rows[0] == arch_rows[0]  # header
    assert regen_rows[1:] == arch_rows[1 : len(regen_rows)]


@pytest.mark.skipif(
    not (RESULTS / "ablation_epsilon.txt").exists(),
    reason="archive not generated yet",
)
def test_ablation_epsilon_regenerates_identically():
    archived = (RESULTS / "ablation_epsilon.txt").read_text(encoding="utf-8")
    rows = epsilon_sweep(
        [10.0, 1.0, 0.1, 0.01, 0.001],
        rng=np.random.default_rng(0),
        n_requests=600,
        n_uploaders=30,
        max_candidates=8,
        mode="jacobi",
    )
    regenerated = render_epsilon_sweep(rows)
    assert table_without_timing(regenerated) == table_without_timing(archived)
