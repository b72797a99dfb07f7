"""Adaptive repair under rapidly-changing networks.

The static planners commit to helpers, a center and HMBR's split ratio
once, at plan time.  This package re-plans *while the repair runs*: the
:class:`AdaptiveEngine` watches observed per-flow rates at bandwidth-event
boundaries, and when they drift past a threshold from the plan-time
prediction it cuts the round, journals the volume that completed end to
end (:class:`RangeJournal` — committed ranges are never re-sent), and
re-solves the remaining volume against the current capacities, choosing
among CR / IR / HMBR / MLF.  :class:`AdaptiveRuntime` executes the
committed pieces through the coordinator's agents with a resumable
:class:`~repro.system.agent.ExecutionJournal` cursor.

Entry points: ``Coordinator.repair(RepairRequest(adaptive=True,
network=NetworkTrace...))``, or :class:`AdaptiveRuntime` directly.
On a quiet network the whole machinery is a bit-exact no-op versus the
static path; the adaptive-capable schemes are
:data:`repro.repair.ADAPTIVE_SCHEMES`.  See ``docs/ADAPTIVE.md``.
"""

from repro.adaptive.engine import (
    AdaptiveEngine,
    AdaptiveEntry,
    AdaptivePiece,
    AdaptiveReport,
    AdaptiveRound,
)
from repro.adaptive.journal import CommittedRange, OverlapError, RangeJournal
from repro.adaptive.runtime import AdaptiveRuntime

__all__ = [
    "AdaptiveEngine",
    "AdaptiveEntry",
    "AdaptivePiece",
    "AdaptiveReport",
    "AdaptiveRound",
    "AdaptiveRuntime",
    "CommittedRange",
    "OverlapError",
    "RangeJournal",
]
