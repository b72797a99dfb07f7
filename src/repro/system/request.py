"""The unified repair facade: :class:`RepairRequest` in, :class:`RepairResult` out.

Describe *what* to repair in one :class:`RepairRequest` value, call
``Coordinator.repair(request)``, and get one :class:`RepairResult` back no
matter which machinery ran.

Routing is derived from the request, never named by the caller:

* ``faults`` present → the fault runtime (journals, backoff, re-plans);
* ``priority`` / ``weight`` / ``arrival_s`` / ``stripes`` set → the
  concurrent scheduler (one job per request; pass a *list* of requests
  for a contending batch);
* ``adaptive`` → drift-watched re-planning rounds;
* otherwise → a plain healthy round.

Every route plans through :func:`repro.repair.planner.plan_round`; see
``docs/ARCHITECTURE.md`` for the three calls each route makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING, Any

from repro.repair.plan import RepairPlan, flow_signature
from repro.repair.planner import ADAPTIVE_SCHEMES, check_scheme

if TYPE_CHECKING:  # pragma: no cover - type-only imports (cycle guard)
    from repro.adaptive.engine import AdaptiveReport
    from repro.faults.runtime import FaultRepairReport
    from repro.sched.job import RepairJob
    from repro.sched.scheduler import SchedulerReport

_PRIORITIES = ("foreground", "normal", "background")


@dataclass(frozen=True)
class RepairRequest:
    """Everything one repair should do, as a single immutable value.

    Only ``scheme`` is commonly set; the rest defaults to a healthy,
    verified, serial round.  Field groups:

    * **what** — ``scheme``, ``stripes`` (``None`` = everything affected);
    * **data plane** — ``verify`` (post-repair parity check).  Every
      request executes its scheme's plan op by op with inline combines, so
      bytes on the bus and repaired blocks are the plan's, whatever else is
      set.  ``batched`` is accepted and selects nothing: it once switched to a
      CR-shaped bypass that is gone, and stays only because
      ``benchmarks/e2e/workloads.py`` still passes it;
    * **scheduling** — ``priority``/``weight``/``arrival_s`` route through
      the concurrent scheduler (as does restricting ``stripes``);
    * **faults** — a :class:`~repro.faults.schedule.FaultSchedule` or
      prepared injector plus the retry/backoff knobs of the fault runtime;
    * **network** — a :class:`~repro.simnet.network.NetworkTrace` (or bare
      :class:`~repro.simnet.dynamic.BandwidthEvent` iterable) describing
      how capacities change while the repair runs.  Alone it perturbs the
      timing simulation; with ``adaptive=True`` the run re-plans the
      remaining volume whenever observed flow rates drift more than
      ``drift_threshold`` from the plan-time prediction (at most
      ``max_replans`` times).

    ``faults`` routes the data plane through the journaled fault runtime,
    so it composes with scheduling.  ``adaptive`` rejects ``faults`` and
    the scheduler fields: the re-planner owns its own round structure.
    """

    scheme: str = "hmbr"
    stripes: tuple[int, ...] | None = None
    batched: bool = False
    verify: bool = True
    # ---- scheduling ----
    priority: str = "normal"
    weight: float | None = None
    arrival_s: float = 0.0
    # ---- faults ----
    faults: Any = None
    max_retries: int = 8
    base_backoff_s: float = 0.5
    plan_timeout_s: float | None = None
    tick_s: float | None = None
    # ---- network dynamics ----
    network: Any = None
    adaptive: bool = False
    drift_threshold: float = 0.2
    max_replans: int = 8

    def __post_init__(self) -> None:
        check_scheme(self.scheme)
        if self.priority not in _PRIORITIES:
            raise ValueError(
                f"unknown priority {self.priority!r}; choose from {sorted(_PRIORITIES)}"
            )
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")
        if self.weight is not None and self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.stripes is not None:
            object.__setattr__(
                self, "stripes", tuple(int(s) for s in self.stripes)
            )
        if self.network is not None:
            from repro.simnet.network import as_network

            # normalize early so equality/validation errors surface at
            # construction, not deep inside a route
            object.__setattr__(self, "network", as_network(self.network))
        if self.drift_threshold <= 0:
            raise ValueError("drift_threshold must be positive")
        if self.max_replans < 0:
            raise ValueError("max_replans must be >= 0")
        if self.adaptive:
            if self.scheme not in ADAPTIVE_SCHEMES:
                raise ValueError(
                    f"adaptive repair supports {ADAPTIVE_SCHEMES}, "
                    f"not {self.scheme!r}"
                )
            if self.faults is not None:
                raise ValueError(
                    "adaptive repair does not compose with a fault "
                    "schedule (the fault runtime owns its own re-plans)"
                )
            if self.needs_scheduler():
                raise ValueError(
                    "adaptive repair runs as one drift-watched round; "
                    "drop priority/weight/arrival_s/stripes"
                )

    def needs_scheduler(self) -> bool:
        """Whether this request must run as a scheduler job.

        Any of ``priority``/``weight``/``arrival_s``/``stripes`` implies
        queueing semantics the plain round cannot express.
        """
        return (
            self.priority != "normal"
            or self.weight is not None
            or self.arrival_s > 0
            or self.stripes is not None
        )


@dataclass
class RepairResult:
    """What one ``Coordinator.repair(request)`` call accomplished.

    The same shape comes back from every route, assembled in one place
    from the run's :attr:`jobs`: the totals are sums over them and
    :attr:`makespan_s` is the latest job finish.  Route-specific detail
    stays reachable through :attr:`report` (the fault runtime's
    ``FaultRepairReport``, the adaptive engine's ``AdaptiveReport``, the
    scheduler's ``SchedulerReport``; ``None`` for a plain healthy round).
    """

    request: RepairRequest
    stripes_repaired: list[int]
    blocks_recovered: int
    #: simulated seconds until the last repaired byte landed.
    makespan_s: float
    #: data-plane bytes the run actually moved (== the ``DataBus`` delta).
    bytes_moved: int
    #: modeled MB the plans put on the wire at ``block_size_mb`` scale.
    bytes_on_wire_mb_model: float
    #: measured GF compute seconds across all agents.
    compute_s_total: float
    #: the run's jobs: the scheduler's own, or one ``done`` job standing
    #: for an un-scheduled round.
    jobs: list[RepairJob] = dc_field(default_factory=list)
    per_stripe_transfer_s: dict[int, float] = dc_field(default_factory=dict)
    replacements: dict[int, int] = dc_field(default_factory=dict)
    #: the route-specific report the run produced internally.
    report: FaultRepairReport | AdaptiveReport | SchedulerReport | None = None

    @property
    def ok(self) -> bool:
        """True when no job failed."""
        return all(j.state != "failed" for j in self.jobs)


@dataclass
class RepairTiming:
    """Planning/timing-only outcome of :meth:`Coordinator.plan_repair`.

    The metadata fast path's answer: everything a caller needs to reason
    about a repair round — per-stripe plans, the merged flow topology, and
    the fluid makespan — without a single block byte having moved.  The
    differential suite pins this against the :class:`RepairResult` of a
    real byte-materializing round: same plans, same flow graphs, and equal
    ``makespan_s`` to 1e-9.
    """

    scheme: str
    dead_nodes: list[int]
    stripes: list[int]
    makespan_s: float
    per_stripe_s: dict[int, float]
    bytes_on_wire_mb_model: float
    blocks_recovered: int
    replacement_of: dict[int, int]
    #: (stripe id, plan) in planning order; tasks are un-renamed, exactly
    #: as a real round would hand them to the merged fluid simulation.
    plans: list[tuple[int, RepairPlan]] = dc_field(default_factory=list)
    #: True when the round's placement effects were applied to metadata.
    committed: bool = False

    def flow_signature(self) -> tuple:
        """Canonical signature of the merged task DAG (all stripes)."""
        return flow_signature([t for _, p in self.plans for t in p.tasks])
