PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test test-props bench bench-quick bench-all bench-xl bench-xxl scenarios scenarios-smoke scenarios-lossy trace-smoke

test:
	$(PYTHON) -m pytest -x -q

# Property-based store-equivalence suite (tests/properties).  Runs under
# the fixed deterministic Hypothesis profile; REPRO_PROPS_EXAMPLES=n
# deepens the soak locally (tier-1 runs the bounded default via `test`).
test-props:
	$(PYTHON) -m pytest tests/properties -q

bench:
	$(PYTHON) benchmarks/bench_slot_pipeline.py

bench-quick:
	$(PYTHON) benchmarks/bench_slot_pipeline.py --scenarios static-small --no-output

bench-all:
	$(PYTHON) benchmarks/bench_slot_pipeline.py --all

# The 5k/10k-peer tier: static-large re-measures with the reference
# paths, static-xlarge (10k) records columnar+warm columns only.
# Written to its own JSON so `make bench`'s committed matrix is kept.
bench-xl:
	$(PYTHON) benchmarks/bench_slot_pipeline.py --scenarios static-large static-xlarge --output BENCH_slot_pipeline_xl.json

# The scaling-curve tier: 5k → 10k → 50k anchors, reference-free
# above 5k (columnar build, delta build, solve, apply and playback).
bench-xxl:
	$(PYTHON) benchmarks/bench_slot_pipeline.py --scenarios static-large static-xlarge static-xxl --output BENCH_slot_pipeline_xxl.json

# Telemetry gate: a tiny scenario with tracing on — every span must
# validate against the JSONL schema, traces must replay byte-identically,
# and the instrumentation-off slot time is pinned within 3% of untraced
# (tier-1 runs the same tests via `make test`).
trace-smoke:
	$(PYTHON) -m pytest tests/obs/test_trace_smoke.py -q

# Fast scenario-engine gate: every registered scenario runs a few tiny
# slots end to end (tier-1 runs the same tests via `make test`).
scenarios-smoke:
	$(PYTHON) -m pytest tests/scenarios/test_smoke.py -q

# The two lossy-network catalog scenarios at tiny scale: a quick
# end-to-end drive of the link model + retry pipeline (report only,
# nothing written — the committed reports are bench scale).
scenarios-lossy:
	$(PYTHON) -m repro scenario run lossy-backbone --scale tiny --no-save
	$(PYTHON) -m repro scenario run flaky-isp --scale tiny --no-save

# Regenerate every catalog scenario's bench-scale report under results/.
scenarios:
	for name in $$($(PYTHON) -c "from repro.scenarios import scenario_names; print(' '.join(scenario_names()))"); do \
		$(PYTHON) -m repro scenario run $$name || exit 1; \
	done
