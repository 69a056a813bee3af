"""The ``archive`` helper keeps committed results stable across runs.

Re-running a bench rewrites its archive only when a deterministic cell
changed; fresh host timings alone leave the committed file untouched.
"""

from __future__ import annotations

from conftest import archive

from repro.metrics.report import render_table


def _table(welfare: float, seconds: float) -> str:
    return render_table(["solver", "welfare", "seconds"], [["lp", welfare, seconds]])


def test_new_archive_written(tmp_path):
    archive(tmp_path, "demo", _table(1.5, 0.01))
    assert (tmp_path / "demo.txt").read_text() == _table(1.5, 0.01) + "\n"


def test_timing_only_change_leaves_file_untouched(tmp_path):
    archive(tmp_path, "demo", _table(1.5, 0.01))
    archive(tmp_path, "demo", _table(1.5, 0.75))
    assert (tmp_path / "demo.txt").read_text() == _table(1.5, 0.01) + "\n"


def test_deterministic_change_rewrites(tmp_path):
    archive(tmp_path, "demo", _table(1.5, 0.01))
    archive(tmp_path, "demo", _table(2.5, 0.01))
    assert (tmp_path / "demo.txt").read_text() == _table(2.5, 0.01) + "\n"


def test_non_table_text_rewritten_on_any_change(tmp_path):
    archive(tmp_path, "fig", "welfare ▁▂▃ mean=1")
    archive(tmp_path, "fig", "welfare ▁▂█ mean=2")
    assert (tmp_path / "fig.txt").read_text() == "welfare ▁▂█ mean=2\n"
