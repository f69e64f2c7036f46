"""The ``service_tcp`` workload: the live service over TCP, under open-loop load.

One generator process (this one) drives the server process
(``server.py``) over one connection.  Every submission is sent at its
planned instant whether or not earlier replies have arrived (open loop),
with replies read concurrently, so a slow service makes latency and queue
grow instead of slowing the offered load.  Latencies are timed from each
request's planned send instant, so the generator's own lag counts.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.config import TraceConfig
from repro.traces.generators import generate_trace

from bounds import Park, stream_flowtime_bound, stream_makespan_bound
from common import Outcome, describe, median, quantile

SERVER = Path(__file__).resolve().parent / "server.py"
#: A calm 300/s background for 25 s with ten 0.3 s bursts of about 300
#: jobs (about 1,300/s while they last): the bursts make batches cross the
#: service's degrade threshold of 128, the queue bound of 4,096 is never
#: reached, and the run holds over 200 activations, so the p95 activation
#: time has at least ten samples beyond it.
LOAD = TraceConfig(
    family="flash_crowd", duration=25.0, rate=300.0, nb_machines=8,
    job_heterogeneity="lo",
    extra={"nb_flashes": 10, "flash_size": 300.0, "flash_window": 0.3},
)
#: A run whose generator fell behind its plan by more than this is invalid:
#: the lag would be comparable to a burst, so the offered rate would be set by
#: the generator rather than by the plan.
LAG_LIMIT_S = 0.25
SETUP_REPEATS = 3
DRAIN_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0


class ServerProcess:
    """One server process: start, wait until it answers, stop, read its report."""

    def __init__(self, seed: int, trace: bool) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(SERVER), "--seed", str(seed), "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.process.stdout.readline()
        if not line:
            self.kill()
            raise RuntimeError("the server process exited before listening")
        self.port = json.loads(line)["port"]

    def stop(self) -> dict:
        """Close its input (it drains and reports), wait for it to exit."""
        try:
            out, _ = self.process.communicate(timeout=DRAIN_TIMEOUT_S)
        finally:
            self.kill()
        if self.process.returncode != 0:
            raise RuntimeError(f"the server exited with code {self.process.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


async def _ping(port: int) -> None:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b'{"op": "ping"}\n')
    await writer.drain()
    reply = json.loads(await reader.readline())
    writer.close()
    await writer.wait_closed()
    if not reply.get("ok"):
        raise RuntimeError("the server did not answer ping")


async def _drive(port: int, offsets: np.ndarray, workloads: np.ndarray) -> dict:
    """Send every submission at its planned instant; read replies as they come."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    count = offsets.size
    sent = np.full(count, np.nan)
    replied = np.full(count, np.nan)
    job_ids: list[int | None] = [None] * count
    errors = 0
    shed = 0
    loop = asyncio.get_running_loop()
    begin = loop.time() + 0.05

    async def read_replies() -> None:
        nonlocal errors, shed
        for index in range(count):
            line = await reader.readline()
            replied[index] = loop.time()
            reply = json.loads(line) if line else {}
            if not reply.get("ok"):
                errors += 1
            else:
                job_ids[index] = reply.get("job_id")
                shed += bool(reply.get("shed"))

    replies = asyncio.ensure_future(read_replies())
    for index in range(count):
        delay = begin + offsets[index] - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        sent[index] = loop.time()
        writer.write(b'{"op": "submit", "workload": %r}\n' % float(workloads[index]))
        if index % 64 == 63:
            await writer.drain()
    await writer.drain()
    timeouts = 0
    try:
        await asyncio.wait_for(replies, timeout=REQUEST_TIMEOUT_S)
    except asyncio.TimeoutError:
        timeouts = int(np.isnan(replied).sum())
    # Wait until everything accepted is planned; that instant ends the solve,
    # and the metrics op's snapshot then holds every placement latency.
    while True:
        writer.write(b'{"op": "metrics"}\n')
        await writer.drain()
        snapshot = json.loads(await reader.readline())["snapshot"]
        if snapshot["backlog"] == 0 and snapshot["scheduled"] == snapshot["accepted"]:
            drained = loop.time()
            break
        if loop.time() - begin > offsets[-1] + DRAIN_TIMEOUT_S:
            drained = float("nan")
            break
        await asyncio.sleep(0.01)
    writer.close()
    await writer.wait_closed()
    # asyncio's loop clock is time.monotonic(), the server's clock too.
    return {
        "begin": begin, "planned": begin + offsets, "sent": sent, "replied": replied,
        "job_ids": job_ids, "shed": shed, "errors": errors, "timeouts": timeouts,
        "drained": drained, "snapshot": snapshot,
    }


def service_tcp(seed: int, seconds: float, tracer=None) -> Outcome:
    """Start the server (three times, for set-up), replay the load, check it."""
    del seconds  # the load plan fixes the run length
    trace = generate_trace(LOAD, seed=seed)
    offsets = trace.job_arrivals - trace.job_arrivals.min()
    workloads = trace.job_workloads
    outcome = Outcome(metrics={}, configs={"load": describe(LOAD)})

    setups = []
    server = None
    try:
        for repeat in range(SETUP_REPEATS):
            server = ServerProcess(seed, trace=tracer is not None)
            asyncio.run(_ping(server.port))
            setups.append(time.perf_counter() - server.started)
            if repeat < SETUP_REPEATS - 1:
                server.stop()
        run = asyncio.run(_drive(server.port, offsets, workloads))
        report = server.stop()
    finally:
        if server is not None:
            server.kill()
    outcome.configs["service"] = report["config"]

    planned = offsets.size
    snapshot = report["snapshot"]
    accepted_ids = [job_id for job_id in run["job_ids"] if job_id is not None]
    failed = run["shed"] + run["errors"] + run["timeouts"]
    outcome.attempted = planned
    outcome.failed = failed
    lag = run["sent"] - run["planned"]
    max_lag = float(np.nanmax(lag))
    calls = report["calls"]
    placed = [job_id for call in calls for job_id in call["job_ids"]]
    outcome.check("scheduled == accepted after the drain",
                  snapshot["scheduled"] == snapshot["accepted"],
                  f"{snapshot['scheduled']} vs {snapshot['accepted']}")
    outcome.check("accepted + shed == planned",
                  snapshot["accepted"] + snapshot["shed"] == planned,
                  f"{snapshot['accepted']} + {snapshot['shed']} vs {planned}")
    outcome.check("every accepted job planned by exactly one scheduler call",
                  sorted(placed) == sorted(accepted_ids),
                  f"{len(placed)} placed, {len(accepted_ids)} accepted")
    outcome.check("no request failed or timed out",
                  run["errors"] == 0 and run["timeouts"] == 0,
                  f"{run['errors']} errors, {run['timeouts']} timeouts")
    outcome.check(f"open loop valid: generator lag <= {LAG_LIMIT_S} s",
                  max_lag <= LAG_LIMIT_S, f"max lag {max_lag:.4f} s")
    outcome.check("machine times are work / speed (no affinity noise)",
                  not any(report["affinity"]))
    outcome.check("the drain finished", not np.isnan(run["drained"]))

    # Planned completion per accepted job, against its actual send instant.
    finish_of = {job_id: finish for call in calls
                 for job_id, finish in zip(call["job_ids"], call["finish"])}
    index_of = {job_id: index for index, job_id in enumerate(run["job_ids"]) if job_id is not None}
    known = [job_id for job_id in accepted_ids if job_id in finish_of]
    rows = np.array([index_of[job_id] for job_id in known], dtype=np.int64)
    arrivals = run["sent"][rows]
    finishes = np.array([finish_of[job_id] for job_id in known])
    park = Park(report["mips"])
    makespan = float(finishes.max() - arrivals.min())
    flowtime = float((finishes - arrivals).sum())
    makespan_bound = stream_makespan_bound(arrivals, workloads[rows], park) - arrivals.min()
    flowtime_bound = stream_flowtime_bound(arrivals, workloads[rows], park)
    solve_s = run["drained"] - run["begin"]
    degraded_jobs = sum(len(call["job_ids"]) for call in calls if call["mode"] == "degraded")
    seconds_per_call = [call["seconds"] for call in calls]
    submit = (run["replied"] - run["planned"]) * 1e3
    rtt = (run["replied"] - run["sent"]) * 1e3
    outcome.metrics = {
        "setup_s": median(setups),
        "solve_s": solve_s,
        "jobs_per_s": snapshot["scheduled"] / solve_s,
        "activation_p50_s": quantile(seconds_per_call, 0.50),
        "activation_p95_s": quantile(seconds_per_call, 0.95),
        "makespan_ratio": makespan / makespan_bound,
        "flowtime_ratio": flowtime / flowtime_bound,
        "placement_p50_s": run["snapshot"]["p50_latency"],
        "placement_p99_s": run["snapshot"]["p99_latency"],
        "served_ratio": (planned - failed) / planned,
        "normal_mode_ratio": 1.0 - degraded_jobs / max(1, snapshot["scheduled"]),
    }
    outcome.report.update(
        planned=planned,
        accepted=snapshot["accepted"],
        shed=snapshot["shed"],
        activations=len(calls),
        degraded_batches=report["degraded_batches"],
        submit_p50_ms=quantile(submit, 0.50),
        submit_p99_ms=quantile(submit, 0.99),
        shed_ratio=failed / planned,
        degraded_ratio=degraded_jobs / max(1, snapshot["scheduled"]),
        mean_response_s=flowtime / len(known),
        stream_makespan_s=makespan,
        generator_max_lag_s=max_lag,
        open_loop_valid=max_lag <= LAG_LIMIT_S,
        offered_per_s=planned / float(offsets[-1]),
    )
    batch_sizes = [len(call["job_ids"]) for call in calls]
    outcome.layer.update({
        "service.queue.peak": float(snapshot["peak_backlog"]),
        "service.activate.degraded": float(report["degraded_batches"]),
        "service.protocol.rtt_p50_ms": quantile(rtt, 0.50),
        "service.protocol.rtt_p99_ms": quantile(rtt, 0.99),
        "loadgen.max_lag_s": max_lag,
        "engine.evaluations": float(report["evaluations"]),
        "grid.service.reallocations": float(report["reallocations"]),
        "grid.batch_jobs.p50": quantile(batch_sizes, 0.5),
        "grid.batch_jobs.max": float(max(batch_sizes)),
    })
    outcome.remote_spans = report.get("spans")
    outcome.remote_rows = report.get("rows")
    return outcome
