"""Deterministic, seedable fault injection for the storage system.

Public surface:

* :class:`~repro.faults.schedule.FaultSchedule` / ``FaultEvent`` — replayable
  ``(time, kind, target)`` event lists (``FaultSchedule.random(seed, ...)``
  for chaos runs);
* :class:`~repro.faults.injector.FaultInjector` — the logical clock that
  fires events and gates transfers through ``DataBus.fault_hook``;
* :class:`~repro.faults.runtime.FaultRuntime` / ``FaultRepairReport`` — the
  degraded-repair state machine behind
  ``Coordinator.repair(RepairRequest(faults=...))``;
* the exception hierarchy in :mod:`repro.faults.errors`.

Importing this package changes nothing: injection is active only while a
runtime attaches an injector to a coordinator's bus.  See ``docs/FAULTS.md``.
"""

from repro.faults.errors import (
    DeadAgent,
    FaultError,
    NodeFlapping,
    PlanTimeout,
    RepairAborted,
    StripeUnrecoverable,
    TransferDropped,
    TransientFault,
)
from repro.faults.injector import FaultInjector
from repro.faults.runtime import FaultRepairReport, FaultRuntime
from repro.faults.schedule import FaultEvent, FaultSchedule

__all__ = [
    "DeadAgent",
    "FaultError",
    "FaultEvent",
    "FaultInjector",
    "FaultRepairReport",
    "FaultRuntime",
    "FaultSchedule",
    "NodeFlapping",
    "PlanTimeout",
    "RepairAborted",
    "StripeUnrecoverable",
    "TransferDropped",
    "TransientFault",
]
