"""Property: slot traces are a pure function of (config, seed).

The canonical (timing-stripped) serialization of every emitted span must
be byte-identical across repeated runs of the same seed, for every
build configuration (each configuration replays itself), and across
the order systems are built in.  This is what makes committed example traces diffable: ``repro
trace diff`` on two runs shows real counter differences, never noise.
Runs under the deterministic ``repro-props`` profile via
``make test-props``.
"""

from __future__ import annotations

from typing import List

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.obs import MemoryTraceSink, canonical_line, validate_trace_record
from repro.p2p.config import SystemConfig
from repro.p2p.system import P2PSystem

configs = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "n_peers": st.integers(5, 20),
        "churn": st.booleans(),
        "incremental_build": st.booleans(),
    }
)


def _trace(params: dict, n_slots: int = 3) -> List[str]:
    config = SystemConfig.tiny(
        seed=params["seed"],
        incremental_build=params["incremental_build"],
    )
    system = P2PSystem(config)
    system.populate_static(params["n_peers"])
    tracer = system.attach_tracer(MemoryTraceSink())
    for _ in range(n_slots):
        system.run_slot(churn=params["churn"])
    records = tracer.records()
    for record in records:
        validate_trace_record(record)
    return [canonical_line(r) for r in records]


@given(params=configs)
@settings(max_examples=25)
def test_same_seed_emits_byte_identical_canonical_lines(params):
    assert _trace(params) == _trace(params)


@given(params=configs)
@settings(max_examples=10)
def test_trace_unaffected_by_sibling_system_construction(params):
    """Interleaving an unrelated system's run does not perturb the trace.

    Traces must depend only on the traced system's own (config, seed) —
    not on what else the process happened to schedule, allocate, or
    solve in between.  A second system with a different seed runs its
    slots interleaved with the traced one.
    """
    baseline = _trace(params)

    config = SystemConfig.tiny(
        seed=params["seed"],
        incremental_build=params["incremental_build"],
    )
    sibling = P2PSystem(SystemConfig.tiny(seed=params["seed"] + 1))
    sibling.populate_static(8)
    system = P2PSystem(config)
    system.populate_static(params["n_peers"])
    tracer = system.attach_tracer(MemoryTraceSink())
    for _ in range(3):
        sibling.run_slot()
        system.run_slot(churn=params["churn"])
    interleaved = [canonical_line(r) for r in tracer.records()]
    assert interleaved == baseline


@given(seed=st.integers(0, 2**16))
@settings(max_examples=10)
def test_memory_and_jsonl_sinks_agree(seed, tmp_path_factory):
    """The file a JsonlTraceSink writes holds exactly the emitted records."""
    import json

    from repro.obs import JsonlTraceSink, load_trace, strip_timing

    path = tmp_path_factory.mktemp("traces") / f"t{seed}.jsonl"
    config = SystemConfig.tiny(seed=seed)

    mem_system = P2PSystem(config)
    mem_system.populate_static(10)
    mem_tracer = mem_system.attach_tracer(MemoryTraceSink())
    file_system = P2PSystem(config)
    file_system.populate_static(10)
    with JsonlTraceSink(path) as sink:
        file_system.attach_tracer(sink)
        for _ in range(2):
            mem_system.run_slot()
            file_system.run_slot()
    loaded = load_trace(path)
    emitted = mem_tracer.records()
    assert [strip_timing(r) for r in loaded] == [
        json.loads(canonical_line(r)) for r in emitted
    ]
