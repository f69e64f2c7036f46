"""Constructive scheduling heuristics.

The heuristics in this subpackage build complete schedules in a single pass
and serve three roles in the reproduction:

* **LJFR-SJFR** seeds the cMA population and is the baseline of Table 4;
* the classic ETC-benchmark heuristics (Min-Min, Max-Min, Sufferage, MCT,
  MET, OLB) provide additional baselines and alternative seeds; Min-Min,
  Max-Min and Sufferage share one batch-mode kernel
  (:mod:`repro.heuristics.batch_mode`) that differs only in the pick rule,
  with a pinned tie order: lowest job index among equal keys, lowest
  machine index among equal completion times;
* the immediate-mode heuristics are reused by the dynamic grid scheduler to
  place jobs that arrive between two batch-scheduler activations.

All heuristics are reachable by name through :func:`get_heuristic` /
:func:`build_schedule`.
"""

from repro.heuristics.base import (
    ConstructiveHeuristic,
    build_schedule,
    get_heuristic,
    list_heuristics,
    register_heuristic,
)
from repro.heuristics.batch_mode import (
    MaxMinHeuristic,
    MinMinHeuristic,
    SufferageHeuristic,
)
from repro.heuristics.immediate import MCTHeuristic, METHeuristic, OLBHeuristic
from repro.heuristics.ljfr_sjfr import LJFRSJFRHeuristic
from repro.heuristics.random_assignment import RandomAssignmentHeuristic

__all__ = [
    "ConstructiveHeuristic",
    "build_schedule",
    "get_heuristic",
    "list_heuristics",
    "register_heuristic",
    "LJFRSJFRHeuristic",
    "MinMinHeuristic",
    "MaxMinHeuristic",
    "SufferageHeuristic",
    "MCTHeuristic",
    "METHeuristic",
    "OLBHeuristic",
    "RandomAssignmentHeuristic",
]
