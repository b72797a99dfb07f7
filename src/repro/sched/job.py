"""Repair-job lifecycle and priority classes for the concurrent scheduler.

A :class:`RepairJob` is one planned repair (the stripes of one failure
event, or a subset of them) flowing through the queue of
:class:`~repro.sched.scheduler.RepairScheduler`.  Its lifecycle is::

    queued -> admitted -> running -> done
       \\                      \\
        `-> failed              `-> failed

Priority classes map to weighted-fair-share weights
(:data:`_PRIORITY_WEIGHTS`): a foreground degraded-read repair outweighs a
normal repair 4:1 on every shared link, and a background rebalance gets a
quarter share — exactly the :attr:`repro.simnet.flows.Flow.weight`
semantics the fluid simulator's weighted max-min allocator implements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: lifecycle states (plain strings so reports serialize trivially)
QUEUED = "queued"
ADMITTED = "admitted"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: legal lifecycle transitions; anything else is a scheduler bug
_TRANSITIONS: dict[str, frozenset[str]] = {
    QUEUED: frozenset({ADMITTED, FAILED}),
    ADMITTED: frozenset({RUNNING, FAILED}),
    RUNNING: frozenset({DONE, FAILED}),
    DONE: frozenset(),
    FAILED: frozenset(),
}

#: priority class -> fair-share weight for every flow of the job's plans.
_PRIORITY_WEIGHTS: dict[str, float] = {
    "foreground": 4.0,
    "normal": 1.0,
    "background": 0.25,
}

#: admission order: lower rank admits first when capacity is scarce.
PRIORITY_ORDER: dict[str, int] = {"foreground": 0, "normal": 1, "background": 2}


@dataclass
class RepairJob:
    """One repair job moving through the scheduler queue.

    Identity and request fields are set at submission; progress fields
    (``state``, ``wave``, timing, and the result accounting) are filled in
    by :meth:`RepairScheduler.run_pending
    <repro.sched.scheduler.RepairScheduler.run_pending>`.
    """

    job_id: str
    scheme: str = "hmbr"
    priority: str = "normal"
    #: weighted-fair-share weight of every flow of this job (derived from
    #: ``priority`` unless overridden at submission).
    weight: float = 1.0
    #: stripe ids this job repairs; ``None`` means "everything affected at
    #: admission time".
    stripes: tuple[int, ...] | None = None
    #: simulated arrival time of the job's flows (jobs arriving mid-run
    #: contend only from this point on).
    arrival_s: float = 0.0
    #: FIFO tie-break within a priority class.
    seq: int = 0

    # ---- progress (scheduler-owned) ----
    state: str = QUEUED
    #: 1-based index of the admission wave that ran the job.
    wave: int | None = None
    #: simulated time at which the job's wave began.
    admitted_s: float | None = None
    #: simulated time at which the job's last flow finished.
    finish_s: float | None = None
    #: number of waves the job sat in the queue before admission.
    queue_wait_waves: int = 0
    stripes_repaired: list[int] = field(default_factory=list)
    blocks_recovered: int = 0
    bytes_on_wire_mb_model: float = 0.0
    #: stripe -> simulated instant its repair landed, on the same global
    #: clock as ``finish_s`` (which is the latest of these).
    per_stripe_transfer_s: dict[int, float] = field(default_factory=dict)
    #: stripe -> data-plane attempts (only > 1 under fault injection).
    attempts: dict[int, int] = field(default_factory=dict)
    error: str | None = None

    def __post_init__(self) -> None:
        if self.priority not in _PRIORITY_WEIGHTS:
            raise ValueError(
                f"unknown priority {self.priority!r}; choose from {sorted(_PRIORITY_WEIGHTS)}"
            )
        if self.weight <= 0:
            raise ValueError(f"job {self.job_id}: weight must be positive")
        if self.arrival_s < 0:
            raise ValueError(f"job {self.job_id}: arrival_s must be non-negative")
        if self.stripes is not None:
            self.stripes = tuple(self.stripes)

    def transition(self, new_state: str) -> None:
        """Move to ``new_state``, refusing any illegal lifecycle edge."""
        allowed = _TRANSITIONS.get(self.state)
        if allowed is None or new_state not in allowed:
            raise ValueError(
                f"job {self.job_id}: illegal transition {self.state!r} -> {new_state!r}"
            )
        self.state = new_state

    @property
    def makespan_s(self) -> float | None:
        """Simulated run time from wave start to last flow finish."""
        if self.finish_s is None or self.admitted_s is None:
            return None
        return self.finish_s - self.admitted_s

    def priority_rank(self) -> tuple[int, int]:
        """Admission sort key: priority class first, then submission order."""
        return (PRIORITY_ORDER[self.priority], self.seq)


def weight_for(priority: str, override: float | None = None) -> float:
    """The fair-share weight for a priority class (or an explicit override)."""
    if override is not None:
        if override <= 0:
            raise ValueError("weight override must be positive")
        return float(override)
    try:
        return _PRIORITY_WEIGHTS[priority]
    except KeyError:
        raise ValueError(
            f"unknown priority {priority!r}; choose from {sorted(_PRIORITY_WEIGHTS)}"
        ) from None
