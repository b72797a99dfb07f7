"""Macro-scale durability simulation driven by the real repair engines.

``repro.reliability`` answers the question the paper's repair-speed plots
imply but never state: *how many nines does faster multi-block repair buy?*
A seeded event-driven simulator (:class:`ReliabilitySimulator`) advances
simulated years over up to millions of stripes — Weibull component
lifetimes, correlated rack/power-outage bursts, latent sector errors with
periodic scrubbing — and every repair duration is derived from the actual
CR / IR / HMBR engines through the **stripe-metadata-only fast path**
(:meth:`repro.system.Coordinator.plan_repair`), never a constant MTTR.

Layers:

* :mod:`~repro.reliability.lifetimes` — Weibull models and per-component
  common-random-number substreams;
* :mod:`~repro.reliability.events` — the deterministic, invariant-checked
  event queue;
* :mod:`~repro.reliability.timing` — the repair-duration oracle
  (calibrated fits over fast-path fluid solves, or exact per-event twins);
* :mod:`~repro.reliability.simulator` — specs, trials, and the aggregated
  :class:`ReliabilityReport` (MTTDL, P(loss by year t) with Wilson CIs,
  durability nines).

Use :meth:`repro.system.Coordinator.simulate_years` to inherit a live
system's code shape, or build a :class:`ReliabilitySpec` directly.  See
``docs/RELIABILITY.md`` for the model and the HMBR-vs-CR nines results.
"""

from repro.reliability.events import Event, EventQueue
from repro.reliability.lifetimes import (
    ComponentLifetimes,
    Weibull,
)
from repro.reliability.simulator import (
    HOURS_PER_YEAR,
    ReliabilityReport,
    ReliabilitySimulator,
    ReliabilitySpec,
    TrialResult,
)
from repro.reliability.timing import RepairTimingModel

__all__ = [
    "ComponentLifetimes",
    "Event",
    "EventQueue",
    "HOURS_PER_YEAR",
    "ReliabilityReport",
    "ReliabilitySimulator",
    "ReliabilitySpec",
    "RepairTimingModel",
    "TrialResult",
    "Weibull",
]
