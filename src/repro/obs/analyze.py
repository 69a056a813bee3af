"""Cross-run trace analysis: the engine behind ``repro trace …``.

Loads JSONL slot traces (:mod:`repro.obs.trace` schema), aggregates
them, and renders the comparison tables the CLI prints:

* ``summarize`` — one trace: per-slot table plus whole-run totals.
* ``diff`` — two traces side by side (e.g. cold vs incremental build,
  or two seeds).  Only deterministic counters are compared — timing
  never enters the table, so the rendering is stable across machines.
* ``rollup`` — N traces, one row each: the cross-run dashboard that
  replaces ad-hoc BENCH-json spelunking (mean slot wall time is the one
  deliberately machine-dependent column).
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Union

from ..metrics.report import render_table
from .trace import validate_trace_record

__all__ = [
    "diff_traces",
    "load_trace",
    "rollup_traces",
    "summarize_trace",
    "trace_totals",
]


def load_trace(path: Union[str, pathlib.Path]) -> List[dict]:
    """Load and schema-validate one JSONL trace file."""
    records = []
    text = pathlib.Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from None
        try:
            validate_trace_record(record)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        records.append(record)
    if not records:
        raise ValueError(f"{path}: empty trace")
    return records


def trace_totals(records: List[dict]) -> Dict[str, object]:
    """Whole-trace aggregates of the deterministic counters."""
    n = len(records)

    def tot(getter) -> float:
        return sum(getter(r) for r in records)

    inter = int(tot(lambda r: r["traffic"]["inter"]))
    intra = int(tot(lambda r: r["traffic"]["intra"]))
    due = int(tot(lambda r: r["playback"]["due"]))
    missed = int(tot(lambda r: r["playback"]["missed"]))
    return {
        "slots": n,
        "peers_final": int(records[-1]["n_peers"]),
        "arrivals": int(tot(lambda r: r["arrivals"])),
        "departures": int(tot(lambda r: r["departures"])),
        "requests": int(tot(lambda r: r["n_requests"])),
        "served": int(tot(lambda r: r["n_served"])),
        "welfare": float(tot(lambda r: r["welfare"])),
        "builds_cold": sum(1 for r in records if r["build"] == "cold"),
        "builds_patch": sum(1 for r in records if r["build"] == "patch"),
        "solver_rounds": int(tot(lambda r: r["solver"]["rounds"])),
        "bids_submitted": int(tot(lambda r: r["solver"]["bids_submitted"])),
        "price_updates": int(tot(lambda r: r["solver"]["price_updates"])),
        "evictions": int(tot(lambda r: r["solver"]["evictions"])),
        "rows_evaluated": int(tot(lambda r: r["solver"]["rows_evaluated"])),
        "inter_isp": inter,
        "intra_isp": intra,
        "inter_frac": inter / (inter + intra) if inter + intra else 0.0,
        "due": due,
        "missed": missed,
        "miss_rate": missed / due if due else 0.0,
        "retry_attempts": int(tot(lambda r: r["retry"]["attempts"])),
        "retry_succeeded": int(tot(lambda r: r["retry"]["succeeded"])),
        "transfers_failed": int(tot(lambda r: r["link"]["transfers_failed"])),
    }


def summarize_trace(
    records: List[dict], label: Optional[str] = None, max_rows: int = 20
) -> str:
    """Per-slot table plus totals for one loaded trace."""
    headers = [
        "slot", "peers", "reqs", "served", "welfare", "rounds", "build",
        "inter", "intra", "due", "missed", "retry_ok/att",
    ]
    rows: List[List[object]] = []
    for r in records[:max_rows]:
        rows.append(
            [
                r["slot"],
                r["n_peers"],
                r["n_requests"],
                r["n_served"],
                float(r["welfare"]),
                r["solver"]["rounds"],
                r["build"],
                r["traffic"]["inter"],
                r["traffic"]["intra"],
                r["playback"]["due"],
                r["playback"]["missed"],
                f"{r['retry']['succeeded']}/{r['retry']['attempts']}",
            ]
        )
    lines = []
    if label:
        lines.append(f"Trace {label} — {len(records)} slots (schema v{records[0]['v']})")
    lines.append(render_table(headers, rows))
    if len(records) > max_rows:
        lines.append(f"… {len(records) - max_rows} more slots")
    totals = trace_totals(records)
    parts = [
        f"welfare={totals['welfare']:.4g}",
        f"served={totals['served']}",
        f"inter_frac={totals['inter_frac']:.4g}",
        f"miss_rate={totals['miss_rate']:.4g}",
        f"rounds={totals['solver_rounds']}",
    ]
    lines.append("totals: " + " ".join(parts))
    return "\n".join(lines)


def diff_traces(
    a: List[dict],
    b: List[dict],
    label_a: str = "a",
    label_b: str = "b",
) -> str:
    """Counter-by-counter comparison of two traces (timing excluded).

    Rows are the shared deterministic totals; the delta column is
    ``b − a`` for numeric fields; byte-equal deterministic bodies
    diff to zero everywhere.
    """
    ta, tb = trace_totals(a), trace_totals(b)
    rows: List[List[object]] = []
    for field, va in ta.items():
        vb = tb[field]
        delta = vb - va
        rows.append(
            [
                field,
                va,
                vb,
                delta if isinstance(delta, int) else float(delta),
            ]
        )
    header = f"Trace diff: {label_a} vs {label_b}"
    return header + "\n" + render_table(
        ["metric", label_a, label_b, "delta"], rows
    )


def rollup_traces(traces: Dict[str, List[dict]]) -> str:
    """One row per trace: the cross-run comparison dashboard.

    ``slot_s`` (mean wall-clock per slot) is the single timing column —
    the point of a cross-run rollup is often exactly that comparison,
    so it is included here and only here.
    """
    headers = [
        "trace", "slots", "peers", "welfare", "served", "inter_frac",
        "miss_rate", "rounds", "slot_s",
    ]
    rows: List[List[object]] = []
    for label, records in traces.items():
        totals = trace_totals(records)
        slot_s = sum(r["timing"]["slot_s"] for r in records) / len(records)
        rows.append(
            [
                label,
                totals["slots"],
                totals["peers_final"],
                float(totals["welfare"]),
                totals["served"],
                float(totals["inter_frac"]),
                float(totals["miss_rate"]),
                totals["solver_rounds"],
                float(slot_s),
            ]
        )
    return "Trace rollup\n" + render_table(headers, rows)
