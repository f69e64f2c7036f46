"""The repository's benchmark: one workload, measured and checked.

Usage::

    python3 perfbench/run.py --workload static_braun --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the workload runs untraced and the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}`` with every
end-to-end metric.  With ``--trace 1`` it runs once untraced and once with
span wrappers around the ``repro.*`` layers, and the metrics are the
per-layer ones, including each end-to-end metric's traced / untraced ratio.
The lines before the last are a readable report: run manifest, correctness
checks, and each workload's own figures.  A JSON copy of everything, and
the raw spans of a traced run, go to ``perfbench/out/``.

See ``perfbench/README.md`` for the workloads, the metrics and the seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
OUT = HERE / "out"

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "jobs_per_s": "jobs/s",
    "activation_p50_s": "s",
    "activation_p95_s": "s",
    "makespan_ratio": "ratio",
    "flowtime_ratio": "ratio",
    "placement_p50_s": "s",
    "placement_p99_s": "s",
    "served_ratio": "ratio",
    "normal_mode_ratio": "ratio",
}

#: Per-layer metrics: name -> unit.  A layer a workload bypasses reads 0.
PER_LAYER = {
    "engine.scan.calls": "count",
    "engine.scan.self_s": "s",
    "engine.batch.apply.calls": "count",
    "engine.batch.apply.self_s": "s",
    "engine.batch.recompute.calls": "count",
    "engine.batch.recompute.self_s": "s",
    "engine.evaluations": "count",
    "core.cma.iterations": "count",
    "core.cma.step.p50_s": "s",
    "core.cma.step.p95_s": "s",
    "core.local_search.step_batch.calls": "count",
    "core.local_search.step_batch.self_s": "s",
    "core.local_search.accept_ratio": "ratio",
    "core.evals_per_s": "1/s",
    "heuristics.calls": "count",
    "heuristics.self_s": "s",
    "grid.policy.schedule.calls": "count",
    "grid.policy.schedule.self_s": "s",
    "grid.sim.self_s": "s",
    "grid.events.push.calls": "count",
    "grid.events.pop.calls": "count",
    "grid.events.self_s": "s",
    "grid.machine.etc_matrix.self_s": "s",
    "grid.batch_jobs.p50": "jobs",
    "grid.batch_jobs.max": "jobs",
    "grid.service.warm_assignment.self_s": "s",
    "grid.service.reallocations": "count",
    "grid.commit.useful_ratio": "ratio",
    "traces.generate_s": "s",
    "traces.from_trace_s": "s",
    "service.submit.calls": "count",
    "service.submit.p50_s": "s",
    "service.submit.p99_s": "s",
    "service.activate.calls": "count",
    "service.activate.p50_s": "s",
    "service.activate.p99_s": "s",
    "service.activate.degraded": "count",
    "service.queue.peak": "jobs",
    "service.protocol.rtt_p50_ms": "ms",
    "service.protocol.rtt_p99_ms": "ms",
    "loadgen.max_lag_s": "s",
    "trace.spans": "count",
    **{f"trace_overhead.{name}": "ratio" for name in END_TO_END},
}


def _workloads():
    from service_tcp import service_tcp
    from workloads import event_replay, static_braun, warm_flash

    return {
        "static_braun": static_braun,
        "event_replay": event_replay,
        "warm_flash": warm_flash,
        "service_tcp": service_tcp,
    }


def layer_metrics(summary: dict, rows: tuple[int, int], outcome) -> dict[str, float]:
    """Per-layer metrics from a span summary plus the workload's own counts."""
    import numpy as np

    from common import quantile

    def calls(name):
        return float(summary.get(name, {}).get("calls", 0))

    def self_s(*names):
        return float(sum(summary.get(name, {}).get("self_s", 0.0) for name in names))

    def total_s(*names):
        return float(sum(summary.get(name, {}).get("total_s", 0.0) for name in names))

    def pct(name, q):
        durations = np.asarray(summary.get(name, {}).get("durations", []), dtype=float)
        return quantile(durations, q) if durations.size else 0.0

    layer = {name: 0.0 for name in PER_LAYER}
    layer.update(outcome.layer)
    cma_time = total_s("core.cma.start", "core.cma.step")
    layer.update({
        "engine.scan.calls": calls("engine.scan"),
        "engine.scan.self_s": self_s("engine.scan"),
        "engine.batch.apply.calls": calls("engine.batch.apply"),
        "engine.batch.apply.self_s": self_s("engine.batch.apply"),
        "engine.batch.recompute.calls": calls("engine.batch.recompute"),
        "engine.batch.recompute.self_s": self_s("engine.batch.recompute"),
        "core.cma.iterations": calls("core.cma.step"),
        "core.cma.step.p50_s": pct("core.cma.step", 0.50),
        "core.cma.step.p95_s": pct("core.cma.step", 0.95),
        "core.local_search.step_batch.calls": calls("core.local_search.step_batch"),
        "core.local_search.step_batch.self_s": self_s("core.local_search.step_batch"),
        "core.local_search.accept_ratio": rows[1] / rows[0] if rows[0] else 0.0,
        "core.evals_per_s": layer["engine.evaluations"] / cma_time if cma_time else 0.0,
        "heuristics.calls": calls("heuristics"),
        "heuristics.self_s": self_s("heuristics"),
        "grid.policy.schedule.calls": calls("grid.policy.schedule"),
        "grid.policy.schedule.self_s": self_s("grid.policy.schedule"),
        "grid.sim.self_s": self_s("grid.sim.run"),
        "grid.events.push.calls": calls("grid.events.push"),
        "grid.events.pop.calls": calls("grid.events.pop"),
        "grid.events.self_s": self_s("grid.events.push", "grid.events.pop"),
        "grid.machine.etc_matrix.self_s": self_s("grid.machine.etc_matrix"),
        "grid.service.warm_assignment.self_s": self_s("grid.service.warm_assignment"),
        "traces.generate_s": total_s("traces.generate"),
        "traces.from_trace_s": total_s("traces.from_trace"),
        "service.submit.calls": calls("service.submit"),
        "service.submit.p50_s": pct("service.submit", 0.50),
        "service.submit.p99_s": pct("service.submit", 0.99),
        "service.activate.calls": calls("service.activate"),
        "service.activate.p50_s": pct("service.activate", 0.50),
        "service.activate.p99_s": pct("service.activate", 0.99),
        "trace.spans": float(sum(entry.get("calls", 0) for entry in summary.values())),
    })
    return layer


def _merge(local: dict, remote: dict | None) -> dict:
    """Add a second process's span summary to this one's."""
    merged = {name: dict(entry) for name, entry in local.items()}
    for name, entry in (remote or {}).items():
        if name in merged:
            base = merged[name]
            base["calls"] += entry["calls"]
            base["total_s"] += entry["total_s"]
            base["self_s"] += entry["self_s"]
            base["durations"] = list(base["durations"]) + list(entry["durations"])
        else:
            merged[name] = dict(entry)
    return merged


def _print_report(title, manifest, outcome, metrics, units) -> None:
    print(f"== {title}")
    for key, value in manifest.items():
        print(f"   {key}: {value}")
    print("-- checks")
    for name, ok, detail in outcome.checks:
        print(f"   [{'ok' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail and not ok else ""))
    print("-- workload figures")
    for key, value in outcome.report.items():
        print(f"   {key}: {value}")
    print("-- metrics")
    for name, value in metrics.items():
        print(f"   {name}: {value:.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, default=json.loads((HERE / "seeds.json").read_text())["default"],
        help="input seed (default: the default seed in seeds.json)",
    )
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (HERE.parent / "src" / "repro").is_dir():
        print("error: the program under test (src/repro) is not in this checkout", file=sys.stderr)
        return 2
    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")
    from common import manifest
    from tracer import Tracer

    run = workloads[args.workload]
    info = manifest(args.workload, args.seed, bool(args.trace))
    outcome = run(args.seed, args.seconds)
    record = {"manifest": info, "untraced": _record(outcome)}
    attempted, failed, correct = outcome.attempted, outcome.failed, outcome.correct
    metrics, units = outcome.metrics, END_TO_END
    _print_report(f"{args.workload} seed {args.seed}", info, outcome, metrics, units)

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run(args.seed, args.seconds, tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        summary = _merge(tracer.summary(), traced.remote_spans)
        rows = (tracer.rows_attempted, tracer.rows_improved)
        if traced.remote_rows:
            rows = (rows[0] + traced.remote_rows[0], rows[1] + traced.remote_rows[1])
        metrics = layer_metrics(summary, rows, traced)
        for name, value in outcome.metrics.items():
            metrics[f"trace_overhead.{name}"] = traced.metrics[name] / value if value else 0.0
        units = PER_LAYER
        attempted += traced.attempted
        failed += traced.failed
        correct = correct and traced.correct
        record["traced"] = _record(traced)
        record["missing_targets"] = tracer.missing
        _print_report(f"{args.workload} seed {args.seed}, traced", info, traced, metrics, units)

    bad = [name for name, value in metrics.items() if not math.isfinite(value)]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        correct = False
        metrics = {name: (value if math.isfinite(value) else 0.0) for name, value in metrics.items()}
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()},
    }
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0


def _record(outcome) -> dict:
    return {
        "metrics": outcome.metrics,
        "report": outcome.report,
        "checks": outcome.checks,
        "configs": outcome.configs,
        "layer": outcome.layer,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
    }


if __name__ == "__main__":
    sys.exit(main())
