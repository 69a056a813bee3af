"""Text rendering of experiment results: tables and ASCII sparkline plots.

The benchmark harness prints the same series the paper's figures plot;
these helpers keep that output compact and diff-friendly so
EXPERIMENTS.md can quote it directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .timeseries import TimeSeries

__all__ = [
    "comparison_table",
    "qoe_block",
    "render_table",
    "sparkline",
    "series_block",
    "table_without_timing",
]

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 40) -> str:
    """Compress ``values`` into a fixed-width unicode sparkline."""
    values = list(values)
    if not values:
        return ""
    arr = np.asarray(values, dtype=float)
    if len(arr) > width:
        # Average into `width` buckets.
        edges = np.linspace(0, len(arr), width + 1).astype(int)
        arr = np.array(
            [arr[a:b].mean() if b > a else arr[min(a, len(arr) - 1)]
             for a, b in zip(edges[:-1], edges[1:])]
        )
    lo, hi = float(arr.min()), float(arr.max())
    if hi - lo < 1e-12:
        return _SPARK_CHARS[0] * len(arr)
    scaled = (arr - lo) / (hi - lo) * (len(_SPARK_CHARS) - 1)
    return "".join(_SPARK_CHARS[int(round(v))] for v in scaled)


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Plain-text table with right-aligned numeric columns."""
    cells = [[str(h) for h in headers]] + [
        [f"{c:.4g}" if isinstance(c, float) else str(c) for c in row] for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


#: Column names whose values are wall-clock measurements.
TIMING_COLUMNS = frozenset({"seconds", "solve_seconds"})


def table_without_timing(text: str) -> List[List[str]]:
    """Cells of a :func:`render_table` table, timing columns dropped.

    The deterministic content of an archived results table: two renders
    of the same experiment compare equal here whatever their wall-clock
    columns read.  Raises ``ValueError`` when a row does not split into
    one whitespace-free cell per header name.
    """
    lines = [line for line in text.strip().splitlines() if line.strip()]
    header = lines[0].split()
    keep = [i for i, name in enumerate(header) if name not in TIMING_COLUMNS]
    rows = [[header[i] for i in keep]]
    for line in lines[2:]:  # skip the rule line
        cells = line.split()
        if len(cells) != len(header):
            raise ValueError(f"not a {len(header)}-column table row: {line!r}")
        rows.append([cells[i] for i in keep])
    return rows


def series_block(series: TimeSeries, label: Optional[str] = None) -> str:
    """One labelled line: sparkline + mean/min/max summary."""
    values = series.values
    name = label or series.name
    if len(values) == 0:
        return f"{name:<28s} (empty)"
    return (
        f"{name:<28s} {sparkline(values)}  "
        f"mean={values.mean():.4g} min={values.min():.4g} max={values.max():.4g}"
    )


def comparison_table(
    series_by_scheduler: Dict[str, TimeSeries],
    value_name: str,
    tail_fraction: float = 0.5,
) -> str:
    """Side-by-side comparison of one metric across schedulers.

    Mirrors how the paper's figures overlay "Auction Algorithm" and
    "Simple Locality" curves; the steady-state column averages the
    trailing half of each run.
    """
    rows: List[List[object]] = []
    for name, series in series_by_scheduler.items():
        values = series.values
        rows.append(
            [
                name,
                float(values.mean()) if len(values) else float("nan"),
                series.tail_mean(tail_fraction),
                float(values.min()) if len(values) else float("nan"),
                float(values.max()) if len(values) else float("nan"),
                sparkline(values, width=24),
            ]
        )
    return render_table(
        [value_name, "mean", f"tail{int(tail_fraction*100)}%", "min", "max", "trend"],
        rows,
    )


def qoe_block(
    collectors_by_scheduler: Dict[str, object],
    startup_by_scheduler: Optional[Dict[str, Sequence[float]]] = None,
    startup_by_isp_by_scheduler: Optional[Dict[str, Dict[int, tuple]]] = None,
) -> str:
    """Per-link-regime QoE comparison across schedulers.

    One row per (scheduler, regime) segment of each run — the regime
    label is stamped into every :class:`~repro.metrics.collectors.
    SlotMetrics` by the system's link-condition table, so a
    degrade→restore scenario yields ideal/degraded/ideal segments under
    *identical* workloads.  Columns: slots in the segment, rebuffer/miss
    rate, first-pass transfer failures, retry deliveries over attempts
    (with the success rate), transfers surrendered back to the auction,
    intra-ISP locality share, and mean per-chunk link latency.

    ``startup_by_scheduler`` optionally maps scheduler →
    ``(mean_startup_seconds, n_peers)`` (join → first delivered chunk),
    rendered as a trailing summary line.

    ``startup_by_isp_by_scheduler`` optionally maps scheduler →
    ``{isp: (mean_startup_seconds, n_peers)}``, with each delay
    attributed to the *requesting* peer's home ISP (startup delay is a
    downloader experience — crediting the uploader's ISP, as a naive
    transfer-side grouping would, misattributes lossy-regime stalls).
    Rendered as per-scheduler lines *after* the global summary line,
    which stays byte-identical with or without the breakdown.
    """
    headers = [
        "scheduler", "regime", "slots", "miss_rate", "failed",
        "retry_ok/att", "retry_rate", "surrendered", "intra_share",
        "delay_ms",
    ]
    rows: List[List[object]] = []
    for name, collector in collectors_by_scheduler.items():
        for regime, segment in collector.regime_segments().items():
            due = sum(s.chunks_due for s in segment)
            missed = sum(s.chunks_missed for s in segment)
            inter = sum(s.inter_isp_chunks for s in segment)
            intra = sum(s.intra_isp_chunks for s in segment)
            failed = sum(s.transfers_failed for s in segment)
            attempts = sum(s.retry_attempts for s in segment)
            succeeded = sum(s.retry_succeeded for s in segment)
            surrendered = sum(s.retry_surrendered for s in segment)
            delay = sum(s.link_delay_ms for s in segment)
            chunks = inter + intra
            rows.append(
                [
                    name,
                    regime,
                    len(segment),
                    missed / due if due else 0.0,
                    failed,
                    f"{succeeded}/{attempts}",
                    succeeded / attempts if attempts else 0.0,
                    surrendered,
                    intra / chunks if chunks else 0.0,
                    delay / chunks if chunks else 0.0,
                ]
            )
    lines = ["QoE per link regime", render_table(headers, rows)]
    if startup_by_scheduler:
        parts = [
            f"{name}={mean:.1f}s/{int(n)}p"
            for name, (mean, n) in startup_by_scheduler.items()
        ]
        lines.append(
            "startup delay (join→first chunk): " + " ".join(parts)
        )
    if startup_by_isp_by_scheduler:
        for name, by_isp in startup_by_isp_by_scheduler.items():
            if not by_isp:
                continue
            parts = [
                f"isp{isp}={mean:.1f}s/{int(n)}p"
                for isp, (mean, n) in sorted(by_isp.items())
            ]
            lines.append(
                f"startup delay by home ISP [{name}]: " + " ".join(parts)
            )
    return "\n".join(lines)
