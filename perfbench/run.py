"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sql_analytics --seed 1 \
        --seconds 36 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end
metrics; ``--trace 1`` measures half the time untraced and half traced,
and prints the per-layer metrics of the traced half plus the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: set-up is repeated this many times per run, unless the workload sets
#: its own ``SETUP_REPEATS``; setup_s is the median
SETUP_REPEATS = 5
OUT_DIR = Path(__file__).resolve().parent / "out"


def _import_program():
    """Import the program from this checkout's ``src``, or exit non-zero."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: 'repro' resolved to {repro.__file__}, "
                 f"not to this checkout's {SRC}")


def repeated_setup(workload, inputs):
    """Set up the workload's ``SETUP_REPEATS`` times.

    Returns the last state and every time.  Each repeat runs on the next
    core, as measured operations do.  The count is fixed per workload,
    never by time: ``etl_roundtrip``'s simulated seconds depend on how
    many connections the process has opened before its first round.
    """
    from perfbench.harness import CoreRotation

    cores = CoreRotation()
    times = []
    state = None
    try:
        for __ in range(getattr(workload, "SETUP_REPEATS", SETUP_REPEATS)):
            state = None
            gc.collect()
            cores.step()
            start = perf_counter()
            state = workload.setup(inputs)
            times.append(perf_counter() - start)
    finally:
        cores.restore()
    return state, times


def _workloads():
    from perfbench import analytics, etl, ingest

    return {w.NAME: w for w in (etl, analytics, ingest)}


def _ros_containers(workload, state) -> float:
    from repro.vertica.tuplemover import storage_container_stats

    sampled = getattr(state, "containers", None)
    if sampled:
        return statistics.mean(sampled)
    return float(sum(c for __, __, c, __ in storage_container_stats(
        workload.database(state))))


def _print_phase(label: str, workload, phase) -> dict:
    from perfbench.harness import summarize

    summary = summarize(phase)
    print(f"[{label}] attempted {summary['attempted']}  failed "
          f"{summary['failed']}  error_rate {summary['error_rate']:.4f}  "
          f"ops_per_s {summary['ops_per_s']:.3f} 1/s  "
          f"measured {phase.busy_s:.2f} s")
    for name in ("latency_p50", "latency_p95"):
        t = summary[name]
        flag = "" if t.supported else "  (fewer than 10 samples beyond)"
        print(f"[{label}] {name}_ms {t.value_ms:.3f} ms  n={t.count} "
              f"beyond={t.beyond}{flag}")
    for name, value in workload.extra_metrics(phase).items():
        if hasattr(value, "value_ms"):
            print(f"[{label}] {name} {value.value_ms:.3f} ms  n={value.count} "
                  f"beyond={value.beyond}")
        else:
            print(f"[{label}] {name} {value:.1f} rows/s")
    for failure in phase.failures[:10]:
        print(f"[{label}] FAILED {failure}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from perfbench.harness import measure
    from perfbench.trace import Tracer, layer_metrics

    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(sorted(workloads))}")
    workload = workloads[args.workload]

    inputs = workload.prepare(args.seed)
    state, setup_times = repeated_setup(workload, inputs)
    setup_s = statistics.median(setup_times)
    print(f"[setup] setup_s {setup_s:.4f} s  "
          f"(median of {len(setup_times)}: "
          f"{', '.join(f'{t:.4f}' for t in setup_times)})")
    gc.collect()

    ops = workload.operations(state, inputs)
    final_check = getattr(workload, "final_check", None)
    if args.trace == 0:
        phase = measure(ops, args.seconds, workload.UNIT,
                        rss_units=workload.RSS_UNITS)
        phases = [phase]
        summary = _print_phase("run", workload, phase)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (summary["ops_per_s"], "1/s"),
            "latency_p50_ms": (summary["latency_p50"].value_ms, "ms"),
            "latency_p95_ms": (summary["latency_p95"].value_ms, "ms"),
            "peak_rss_mb": (phase.rss_mb, "MB"),
        }
    else:
        plain = measure(ops, args.seconds / 2, workload.UNIT)
        tracer = Tracer()
        events_before = workload.kernel_events(state)
        with tracer.installed():
            traced = measure(ops, args.seconds / 2, workload.UNIT, tracer)
        events = workload.kernel_events(state) - events_before
        phases = [plain, traced]
        plain_summary = _print_phase("untraced", workload, plain)
        traced_summary = _print_phase("traced", workload, traced)
        metrics = layer_metrics(tracer, traced.busy_s, len(traced.units()),
                                events, _ros_containers(workload, state))
        metrics["trace.overhead_ratio"] = (
            plain_summary["ops_per_s"] / traced_summary["ops_per_s"], "ratio")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans_{workload.NAME}_seed{args.seed}.jsonl"
        tracer.write(str(spans_path))
        print(f"[traced] {len(tracer.spans)} spans written to {spans_path}")

    attempted = sum(len(p.samples) for p in phases)
    failed = sum(p.failed for p in phases)
    if final_check is not None:
        final = final_check(state)
        for failure in final:
            print(f"[final] FAILED {failure}")
        attempted += 1
        failed += bool(final)
    for name, (value, unit) in metrics.items():
        print(f"[metric] {name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
