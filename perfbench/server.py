"""The live scheduler service the ``service_tcp`` workload talks to.

Runs a :class:`~repro.service.server.SchedulerServer` (warm cMA scheduler,
8 machines) on a free loopback port in its own process.  It prints one JSON
line ``{"port": N}`` once it listens, serves until its standard input
closes, then stops with a drain and prints one JSON line with its final
metrics snapshot, every scheduler call the benchmark's delegate saw, the
machine park, and (with ``--trace 1``) the span summary of its layers.

Usage: ``python3 perfbench/server.py --seed N [--trace 1]``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.core.config import ActivationPolicy, ServiceConfig  # noqa: E402
from repro.grid.service import DynamicSchedulerService  # noqa: E402
from repro.grid.workload import StaticResourceModel  # noqa: E402
from repro.service import SchedulerCore, SchedulerServer  # noqa: E402

from common import describe, plan_completions  # noqa: E402
from tracer import Tracer  # noqa: E402

MACHINES = 8
#: Batches of at least 128 jobs take the Min-Min path, batches of at most 32
#: return to the cMA; the queue holds 4096, far above any burst.
CONFIG = ServiceConfig(
    queue_capacity=4096,
    degrade_threshold=128,
    recover_threshold=32,
    activation_interval=0.25,
    activation=ActivationPolicy.adaptive(
        backlog_threshold=32, min_interval=0.02, max_interval=0.25
    ),
    max_seconds=0.1,
    max_iterations=25,
    max_stagnant_iterations=5,
)
#: Span names whose per-call durations the client needs for percentiles.
TIMED_SPANS = ("core.cma.step", "service.submit", "service.activate")


class TimedScheduler:
    """Delegate around the warm scheduler: times and records every call."""

    def __init__(self, inner: DynamicSchedulerService) -> None:
        self.inner = inner
        self.calls: list[dict] = []

    @property
    def stats(self):
        return self.inner.stats

    @property
    def last_phases(self):
        return self.inner.last_phases

    def schedule(self, instance, rng=None):
        return self._timed("normal", self.inner.schedule, instance, rng)

    def degraded_schedule(self, instance, rng=None):
        return self._timed("degraded", self.inner.degraded_schedule, instance, rng)

    def _timed(self, mode, solve, instance, rng):
        called = time.monotonic()
        assignment = solve(instance, rng)
        done = time.monotonic()
        answer = np.asarray(assignment, dtype=np.int64)
        # The core commits after the solve: a machine starts on this batch at
        # the later of its committed work and the end of the solve.
        ready = np.maximum(0.0, called + np.asarray(instance.ready_times) - done)
        finishes = done + plan_completions(instance.etc, ready, answer)
        self.calls.append({
            "mode": mode,
            "seconds": done - called,
            "job_ids": np.asarray(instance.metadata["job_ids"]).tolist(),
            "finish": finishes.tolist(),
        })
        return assignment


async def serve(seed: int, tracer: Tracer | None) -> dict:
    machines = StaticResourceModel(nb_machines=MACHINES).generate(rng=seed)
    scheduler = TimedScheduler(
        DynamicSchedulerService(
            max_seconds=CONFIG.max_seconds,
            max_iterations=CONFIG.max_iterations,
            max_stagnant_iterations=CONFIG.max_stagnant_iterations,
        )
    )
    core = SchedulerCore(machines, scheduler, CONFIG, rng=seed)
    server = SchedulerServer(core, host="127.0.0.1", port=0)
    await server.start()
    print(json.dumps({"port": server.address[1]}), flush=True)
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.read)
    snapshot = await server.stop(drain=True)
    report = {
        "snapshot": snapshot.as_dict(),
        "calls": scheduler.calls,
        "mips": [machine.mips for machine in machines],
        "affinity": [machine.affinity_spread for machine in machines],
        "evaluations": scheduler.stats.evaluations,
        "reallocations": scheduler.stats.capacity_reallocations,
        "degraded_batches": scheduler.stats.degraded_batches,
        "config": describe(CONFIG),
    }
    if tracer is not None:
        tracer.uninstall()
        summary = tracer.summary()
        report["spans"] = {
            name: {
                "calls": entry["calls"],
                "total_s": entry["total_s"],
                "self_s": entry["self_s"],
                "durations": entry["durations"].tolist() if name in TIMED_SPANS else [],
            }
            for name, entry in summary.items()
        }
        report["rows"] = [tracer.rows_attempted, tracer.rows_improved]
        report["span_count"] = sum(entry["calls"] for entry in summary.values())
        report["missing"] = tracer.missing
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    report = asyncio.run(serve(args.seed, tracer))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
