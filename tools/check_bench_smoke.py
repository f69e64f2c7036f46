#!/usr/bin/env python3
"""Benchmark correctness smoke: one short traced run of every workload.

For each workload declared in ``BENCHMARK.json`` this runs::

    python3 perfbench/run.py --workload W --seconds 1 --trace 1

and fails if the run's last JSON line says ``correct: false`` or
``failed > 0``, if ``perfbench/out/W-seed1-trace1.json`` lists any
``missing_targets`` (an entry point the traced run wraps was renamed or
deleted), or if a warm-scheduler counter of the untraced run in that record
is not positive.  The workloads read those counters through attribute
lookups that fall back to 0 (``warm_flash`` through
``WarmCMAPolicy.service.stats``), so a refactor that loses an attribute
would otherwise turn them into silent zeros.  It times nothing: it catches
a change that breaks a workload's correctness checks or the benchmark's
view of the program.

Usage::

    python3 tools/check_bench_smoke.py [WORKLOAD ...]
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Workload -> per-layer counters its untraced run must report as positive.
WARM_COUNTERS = {
    workload: ("engine.evaluations", "grid.service.reallocations")
    for workload in ("warm_flash", "service_tcp")
}


def check(workload: str) -> list[str]:
    """Run one workload briefly, traced; return its problems (empty if none)."""
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seconds",
            "1",
            "--trace",
            "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        return [
            f"{workload}: exit status {completed.returncode}\n"
            f"{completed.stderr[-2000:]}"
        ]
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    problems = []
    if result.get("correct") is not True:
        problems.append(f"{workload}: correct is {result.get('correct')!r}")
    if result.get("failed", 0) > 0:
        problems.append(f"{workload}: {result['failed']} failed operations")
    record_path = ROOT / "perfbench" / "out" / f"{workload}-seed1-trace1.json"
    if not record_path.exists():
        problems.append(f"{workload}: no run record at {record_path.relative_to(ROOT)}")
    else:
        record = json.loads(record_path.read_text())
        missing = record.get("missing_targets")
        if missing:
            problems.append(f"{workload}: traced entry points missing: {missing}")
        layer = record.get("untraced", {}).get("layer", {})
        for counter in WARM_COUNTERS.get(workload, ()):
            if not layer.get(counter, 0) > 0:
                problems.append(
                    f"{workload}: untraced {counter} is {layer.get(counter)!r}, "
                    "expected > 0"
                )
    return problems


def main(argv: list[str]) -> int:
    workloads = argv or [
        workload["name"]
        for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    ]
    problems: list[str] = []
    for workload in workloads:
        found = check(workload)
        print(f"{workload}: {'FAIL' if found else 'ok'}", flush=True)
        problems.extend(found)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
