"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload static-steady --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run of three
passes; ``--trace 1`` runs pass 0's seed untraced and traced side by
side, gates every bid round, then runs it once more on ideal links, and
prints the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check
passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPANS_DIR = pathlib.Path(".bench_build") / "perfbench"


def _import_program():
    """Put the checkout's ``src`` first on the path and import from it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {src}: {exc}")
    origin = pathlib.Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: repro imported from {origin}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread, set before numpy loads: the program runs single-threaded.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _import_program()
    from perfbench.bench import host_probe_s, run_untraced
    from perfbench.spans import run_traced
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    probe_before = host_probe_s()
    if args.trace:
        spans = SPANS_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        window, metrics, diagnostics = run_traced(
            workload, args.seed, args.seconds, spans_path=str(spans)
        )
    else:
        window, metrics, diagnostics = run_untraced(workload, args.seed, args.seconds)
    diagnostics["host_probe_s"] = [probe_before, host_probe_s()]

    for message in window.violations:
        print(f"VIOLATION {message}")
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:>14} {name:<26} {value:>14.6g} {unit}")
    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))
    correct = not window.violations
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(window.attempted, 1),
                "failed": window.failed if correct else max(window.failed, 1),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
