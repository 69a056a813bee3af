"""End-to-end tracing smoke: schema-valid spans, determinism, overhead.

This is the ``make trace-smoke`` tier-1 gate: a tiny scenario runs with
tracing on and every emitted span must validate against the schema; a
JSONL round trip must reproduce the records exactly; and — the promise
that lets instrumentation stay compiled-in — running *without* a tracer
must cost the same as running with a disabled one, pinned with a
min-of-k interleaved timing comparison so scheduler noise cancels.
"""

from __future__ import annotations

from time import perf_counter

from obs_support import traced_run

from repro.obs import (
    JsonlTraceSink,
    NullTraceSink,
    canonical_line,
    load_trace,
    validate_trace_record,
)
from repro.p2p.config import SystemConfig
from repro.p2p.system import P2PSystem


class TestSpanContent:
    def test_every_span_validates(self):
        records, _ = traced_run(seed=3, n_slots=4)
        assert len(records) == 4
        for record in records:
            validate_trace_record(record)

    def test_slots_and_time_advance(self):
        records, system = traced_run(seed=3, n_slots=4)
        assert [r["slot"] for r in records] == [0, 1, 2, 3]
        times = [r["time"] for r in records]
        assert times == sorted(times)
        assert records[-1]["n_peers"] == len(system.peers)

    def test_cold_then_patched_builds_with_incremental(self):
        records, _ = traced_run(seed=3, n_slots=4, incremental_build=True)
        assert records[0]["build"] == "cold"
        assert all(r["build"] == "patch" for r in records[1:])
        # Patched slots carry reason-coded delta histograms.
        assert any(sum(r["delta_reasons"].values()) for r in records[1:])


class TestDeterminism:
    def test_repeated_runs_emit_identical_canonical_lines(self):
        a, _ = traced_run(seed=11, n_slots=4)
        b, _ = traced_run(seed=11, n_slots=4)
        assert [canonical_line(r) for r in a] == [canonical_line(r) for r in b]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "smoke.jsonl"
        config = SystemConfig.tiny(seed=5)
        system = P2PSystem(config)
        system.populate_static(12)
        with JsonlTraceSink(path) as sink:
            system.attach_tracer(sink)
            for _ in range(3):
                system.run_slot()
        loaded = load_trace(path)
        assert len(loaded) == 3
        assert [r["slot"] for r in loaded] == [0, 1, 2]


class TestOverhead:
    def test_null_sink_emits_nothing(self):
        system = P2PSystem(SystemConfig.tiny(seed=1))
        system.populate_static(10)
        tracer = system.attach_tracer(NullTraceSink())
        for _ in range(2):
            system.run_slot()
        assert tracer.emitted == 0

    def test_disabled_instrumentation_is_branch_cheap(self):
        """Untraced vs NullTraceSink slot time: within 3% (+2 ms slack).

        Interleaved min-of-k: each arm runs k times alternating, and
        the minima are compared — the standard way to discard scheduler
        noise when pinning an overhead bound.
        """

        def build(with_null_sink: bool) -> P2PSystem:
            system = P2PSystem(SystemConfig.tiny(seed=9))
            system.populate_static(30)
            if with_null_sink:
                system.attach_tracer(NullTraceSink())
            return system

        def run_once(with_null_sink: bool) -> float:
            system = build(with_null_sink)
            system.run_slot()  # warm caches / JIT-free but allocates
            t0 = perf_counter()
            for _ in range(3):
                system.run_slot()
            return perf_counter() - t0

        k = 5
        untraced = []
        nullsink = []
        for _ in range(k):
            untraced.append(run_once(False))
            nullsink.append(run_once(True))
        base, gated = min(untraced), min(nullsink)
        assert gated <= base * 1.03 + 0.002, (
            f"disabled tracing overhead: {gated:.4f}s vs {base:.4f}s untraced"
        )
