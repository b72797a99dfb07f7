"""Task primitives consumed by the fluid simulator.

A repair plan lowers to a DAG of tasks:

* :class:`Flow` — point-to-point transfer of ``size_mb`` from ``src`` to
  ``dst`` (paper Case 1-3 semantics emerge from fair sharing).
* :class:`PipelineFlow` — a sliced chain/tree-path transfer occupying every
  hop concurrently; rate = min over hops of the per-hop allocation.
* :class:`DelayTask` — fixed-duration step (decode CPU time, disk I/O) used
  when simulating *overall* rather than transfer-only repair time.

``deps`` lists task ids that must complete before the task starts.  Tags let
analyses group tasks (e.g. ``"cr"`` vs ``"ir"`` sub-plans of HMBR).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class Flow:
    task_id: str
    src: int
    dst: int
    size_mb: float
    deps: tuple[str, ...] = ()
    tag: str = ""
    #: weighted-fair-share weight: a flow of weight w gets w times the
    #: bandwidth of a weight-1 competitor on a shared link.  Background
    #: repair traffic is throttled by giving its flows weight < 1.
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.size_mb < math.inf:
            raise ValueError(f"flow {self.task_id}: non-finite or negative size")
        if self.src == self.dst:
            raise ValueError(f"flow {self.task_id}: src == dst == {self.src}")
        if not 0 < self.weight < math.inf:
            raise ValueError(f"flow {self.task_id}: weight must be positive and finite")
        self.deps = tuple(self.deps)

    @property
    def hops(self) -> tuple[tuple[int, int], ...]:
        return ((self.src, self.dst),)


@dataclass
class PipelineFlow:
    """A pipelined transfer along ``path`` (>= 2 nodes, no repeats).

    ``size_mb`` is the per-hop payload: every hop of a repair pipeline carries
    one (partially accumulated) copy of the block being repaired.
    """

    task_id: str
    path: tuple[int, ...]
    size_mb: float
    deps: tuple[str, ...] = ()
    tag: str = ""
    weight: float = 1.0

    def __post_init__(self) -> None:
        self.path = tuple(self.path)
        if len(self.path) < 2:
            raise ValueError(f"pipeline {self.task_id}: needs >= 2 nodes")
        if len(set(self.path)) != len(self.path):
            raise ValueError(f"pipeline {self.task_id}: repeated node in path")
        if not 0 <= self.size_mb < math.inf:
            raise ValueError(f"pipeline {self.task_id}: non-finite or negative size")
        if not 0 < self.weight < math.inf:
            raise ValueError(f"pipeline {self.task_id}: weight must be positive and finite")
        self.deps = tuple(self.deps)

    @property
    def hops(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.path[:-1], self.path[1:]))


@dataclass
class DelayTask:
    """Fixed-duration task (no network resources)."""

    task_id: str
    duration_s: float
    node: int | None = None
    deps: tuple[str, ...] = ()
    tag: str = ""

    def __post_init__(self) -> None:
        if not 0 <= self.duration_s < math.inf:
            raise ValueError(f"delay {self.task_id}: non-finite or negative duration")
        self.deps = tuple(self.deps)


Task = Flow | PipelineFlow | DelayTask


def validate_tasks(tasks: list[Task]) -> dict[str, Task]:
    """Check id uniqueness and dependency closure; return id -> task."""
    by_id: dict[str, Task] = {}
    for t in tasks:
        if t.task_id in by_id:
            raise ValueError(f"duplicate task id {t.task_id!r}")
        by_id[t.task_id] = t
    for t in tasks:
        for d in t.deps:
            if d not in by_id:
                raise ValueError(f"task {t.task_id!r} depends on unknown {d!r}")
    return by_id
