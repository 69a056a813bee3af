"""Shared helpers for the benchmark harness.

Each figure bench runs its experiment once (``benchmark.pedantic`` with a
single round — these are minutes-scale simulations, not microbenchmarks),
prints the same series the paper plots, asserts the paper's qualitative
shape, and archives the text under ``results/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.metrics.report import table_without_timing

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def _same_but_timing(old: str, new: str) -> bool:
    """True when two archive texts differ at most in timing columns."""
    if old == new:
        return True
    try:
        return table_without_timing(old) == table_without_timing(new)
    except ValueError:  # not a table: only an exact match counts
        return False


def archive(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Print a result block and save it under results/<name>.txt.

    A committed archive whose only differences are host timings
    (``seconds``/``solve_seconds`` columns) is left untouched, so a
    test run does not dirty the tree with fresh wall-clock numbers.
    """
    print(f"\n{text}\n")
    path = results_dir / f"{name}.txt"
    if path.exists() and _same_but_timing(
        path.read_text(encoding="utf-8").rstrip("\n"), text
    ):
        return
    path.write_text(text + "\n", encoding="utf-8")
