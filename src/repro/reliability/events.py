"""The durability simulator's event queue.

A thin heap wrapper with the invariants the property suite pins:

* **monotone time** — :meth:`EventQueue.pop` never goes backwards; a
  violation raises immediately instead of silently corrupting a trial;
* **deterministic tie-break** — events at equal times pop in push order
  (a monotone sequence number is part of the heap key), so a trial's event
  stream is a pure function of its seed;
* **no lost events** — push/pop counters let tests assert conservation.

Event kinds are plain strings so logs stay JSON-friendly for goldens and
chaos-replay diffs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

#: a single node's lifetime expired.
FAIL = "fail"
#: a correlated rack/power-outage burst strikes one rack.
BURST = "burst"
#: a repair (node reconstruction onto a spare) started — log-only marker.
REPAIR_START = "repair-start"
#: a previously-scheduled repair completed; the node rejoins.
REPAIR_DONE = "repair-done"
#: a latent sector error silently corrupts one block.
LSE = "lse"
#: periodic scrub pass clears every detected-able latent error.
SCRUB = "scrub"
#: a stripe crossed > m concurrent losses — log-only marker.
LOSS = "loss"

_EVENT_KINDS = (FAIL, BURST, REPAIR_START, REPAIR_DONE, LSE, SCRUB, LOSS)


@dataclass(frozen=True, slots=True)
class Event:
    """One popped event: simulated hour, kind, and its target ids.

    ``node`` is the affected node (or rack for bursts, -1 when N/A);
    ``eid`` identifies a repair in flight (ties ``repair-done`` back to its
    scheduling); ``gen`` is the failure-generation stamp used to invalidate
    a node's pending FAIL when a burst kills it first.
    """

    time_h: float
    kind: str
    node: int = -1
    eid: int = -1
    gen: int = -1


class EventQueue:
    """Deterministic min-heap of :class:`Event` with a monotonicity guard."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, str, int, int, int]] = []
        self._seq = 0
        self.pushes = 0
        self.pops = 0
        self.last_popped_h = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def push(
        self, time_h: float, kind: str, node: int = -1, eid: int = -1, gen: int = -1
    ) -> None:
        """Schedule ``kind`` at ``time_h`` (must be finite and >= 0)."""
        if not math.isfinite(time_h) or time_h < 0:
            raise ValueError(f"bad event time {time_h!r} for {kind!r}")
        if kind not in _EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        heapq.heappush(self._heap, (time_h, self._seq, kind, node, eid, gen))
        self._seq += 1
        self.pushes += 1

    def peek_time(self) -> float:
        """Earliest scheduled time (IndexError on empty)."""
        return self._heap[0][0]

    def pop(self) -> Event:
        """Earliest event; raises if simulated time would move backwards."""
        time_h, _, kind, node, eid, gen = heapq.heappop(self._heap)
        if time_h < self.last_popped_h:
            raise RuntimeError(
                f"event queue time went backwards: {time_h} < {self.last_popped_h}"
            )
        self.last_popped_h = time_h
        self.pops += 1
        return Event(time_h, kind, node, eid, gen)
