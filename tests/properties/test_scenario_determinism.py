"""Property: a scenario is a pure function of (spec, seed).

Two compiles of the same spec + seed must produce ``==`` timelines, and
two full runs must produce identical per-slot metric traces and
byte-identical reports — the guarantee that makes scenario results
citable and scheduler comparisons on a scenario fair (every scheduler
sees the same workload).  Runs under the deterministic ``repro-props``
profile via ``make test-props``.
"""

from __future__ import annotations


import hypothesis.strategies as st
from hypothesis import given, settings

from repro.scenarios import (
    ArrivalRateChange,
    CapacityRamp,
    CostShock,
    FlashCrowd,
    LocalityCap,
    NewRelease,
    ScenarioRunner,
    ScenarioSpec,
    SeederOutage,
    build_scenario,
    compile_timeline,
    scenario_names,
)

#: Abridged horizon: 3 tiny slots — enough for events to land mid-run.
HORIZON = 30.0

event_specs = st.one_of(
    st.builds(
        FlashCrowd,
        time=st.floats(0.0, HORIZON, allow_nan=False),
        n_peers=st.integers(1, 12),
        over_seconds=st.floats(0.0, 10.0, allow_nan=False),
        video_id=st.one_of(st.none(), st.integers(0, 2)),
        early_departure_prob=st.floats(0.0, 1.0, allow_nan=False),
    ),
    st.builds(
        ArrivalRateChange,
        time=st.floats(0.0, HORIZON, allow_nan=False),
        rate_per_s=st.floats(0.1, 5.0, allow_nan=False),
    ),
    st.builds(
        CostShock,
        time=st.floats(0.0, HORIZON, allow_nan=False),
        factor=st.floats(0.25, 4.0, allow_nan=False),
    ),
    st.builds(
        NewRelease,
        time=st.floats(0.0, HORIZON, allow_nan=False),
        video_id=st.integers(0, 2),
    ),
    st.builds(
        LocalityCap,
        time=st.floats(0.0, HORIZON, allow_nan=False),
        neighbor_target=st.integers(2, 10),
    ),
    st.builds(
        SeederOutage,
        time=st.floats(0.0, HORIZON, allow_nan=False),
        duration=st.floats(5.0, 20.0, allow_nan=False),
        fraction=st.floats(0.25, 1.0, exclude_min=True, allow_nan=False),
    ),
    st.builds(
        CapacityRamp,
        time=st.floats(0.0, HORIZON, allow_nan=False),
        factor=st.floats(0.25, 3.0, allow_nan=False),
        target=st.sampled_from(["watchers", "seeds", "all"]),
    ),
)

random_specs = st.builds(
    ScenarioSpec,
    name=st.just("fuzzed"),
    scale=st.just("tiny"),
    schedulers=st.just(("auction",)),
    n_static_peers=st.integers(0, 15),
    stagger=st.booleans(),
    duration_seconds=st.just(HORIZON),
    churn=st.booleans(),
    events=st.lists(event_specs, max_size=4).map(tuple),
)


def _traces(spec: ScenarioSpec, seed: int):
    result = ScenarioRunner(spec, seed=seed).run()
    run = result.runs[spec.schedulers[0]]
    return result.timeline, run.collector.slots, result.render_report()


@given(
    name=st.sampled_from(scenario_names()),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25)
def test_catalog_scenarios_replay_identically(name, seed):
    spec = build_scenario(name, scale="tiny").abridged(
        HORIZON, schedulers=("auction",)
    )
    assert compile_timeline(spec, seed) == compile_timeline(spec, seed)
    timeline_a, slots_a, report_a = _traces(spec, seed)
    timeline_b, slots_b, report_b = _traces(spec, seed)
    assert timeline_a == timeline_b
    assert slots_a == slots_b  # frozen dataclasses: exact equality
    assert report_a == report_b


@given(spec=random_specs, seed=st.integers(0, 2**16))
@settings(max_examples=25)
def test_fuzzed_specs_replay_identically(spec, seed):
    timeline_a, slots_a, report_a = _traces(spec, seed)
    timeline_b, slots_b, report_b = _traces(spec, seed)
    assert timeline_a == timeline_b
    assert slots_a == slots_b
    assert report_a == report_b


@given(seed=st.integers(0, 2**16))
@settings(max_examples=10)
def test_timeline_independent_of_scheduler_order(seed):
    """Both schedulers of a comparison see the identical workload."""
    spec = build_scenario("flash-crowd", scale="tiny").abridged(HORIZON)
    runner = ScenarioRunner(spec, seed=seed)
    result = runner.run(schedulers=("auction", "locality"))
    flipped = ScenarioRunner(spec, seed=seed).run(
        schedulers=("locality", "auction")
    )
    for name in ("auction", "locality"):
        assert (
            result.runs[name].collector.slots
            == flipped.runs[name].collector.slots
        )
