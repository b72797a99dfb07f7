"""Concurrent repair-job scheduling (``repro.sched``).

Queue multiple planned repair jobs, admit them under per-node / per-rack /
total in-flight caps, and run each admission wave as one merged fluid
simulation in which jobs share bandwidth by priority weight.  See
:doc:`docs/SCHEDULER.md </docs/SCHEDULER>` for the design.
"""

from repro.sched.admission import AdmissionController, AdmissionPolicy
from repro.sched.job import RepairJob, weight_for
from repro.sched.scheduler import RepairEta, RepairScheduler, SchedulerReport

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "RepairEta",
    "RepairJob",
    "RepairScheduler",
    "SchedulerReport",
    "weight_for",
]
