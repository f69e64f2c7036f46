"""Helpers shared by the workloads: statistics, plan arithmetic, manifest."""

from __future__ import annotations

import dataclasses
import os
import platform
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile; NaN for an empty sample."""
    values = np.asarray(values, dtype=float)
    return float(np.quantile(values, q)) if values.size else float("nan")


def plan_completions(etc: np.ndarray, ready: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Finish time of every job when each machine runs its jobs shortest first.

    The ETC model's flowtime convention: a machine starts at its ready time
    and processes its jobs in shortest-processing-time order.
    """
    count = assignment.size
    if count == 0:
        return np.zeros(0)
    durations = etc[np.arange(count), assignment]
    order = np.lexsort((durations, assignment))
    machines = assignment[order]
    running = np.cumsum(durations[order])
    new_machine = np.ones(count, dtype=bool)
    new_machine[1:] = machines[1:] != machines[:-1]
    first = np.maximum.accumulate(np.where(new_machine, np.arange(count), 0))
    before_first = running[first] - durations[order][first]
    finishes = np.empty(count)
    finishes[order] = ready[machines] + running - before_first
    return finishes


def plan_makespan(etc: np.ndarray, ready: np.ndarray, assignment: np.ndarray) -> float:
    """Latest machine completion, idle machines' ready times included."""
    load = np.bincount(
        assignment, weights=etc[np.arange(assignment.size), assignment],
        minlength=etc.shape[1],
    )
    return float((ready + load).max())


@dataclass
class Outcome:
    """What one pass of a workload measured and checked."""

    metrics: dict[str, float]
    #: Workload-native figures reported next to the metrics (not gated).
    report: dict[str, object] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    configs: dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Per-layer figures only the workload can see (counts, ratios).
    layer: dict[str, float] = field(default_factory=dict)
    #: Span summary and step_batch row counts from another traced process.
    remote_spans: dict | None = None
    remote_rows: list[int] | None = None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def describe(config) -> object:
    """``config.describe()`` when it has one, else its dataclass fields."""
    if hasattr(config, "describe"):
        return config.describe()
    if dataclasses.is_dataclass(config):
        return {key: repr(value) for key, value in dataclasses.asdict(config).items()}
    return repr(config)


def manifest(workload: str, seed: int, trace: bool) -> dict[str, object]:
    """Provenance of one run: source revision, versions, cores, seed."""
    sha, dirty = "unavailable", None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
        dirty = bool(
            subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        )
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }
