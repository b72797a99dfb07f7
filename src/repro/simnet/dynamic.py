"""Dynamic bandwidth workloads (the paper's §VII future work).

A :class:`BandwidthEvent` changes a node's link rates at a point in
simulated time; the fluid simulator re-solves the max-min allocation at each
event boundary, so long transfers correctly straddle rate changes.  Event
schedules also feed HMBR's search split, yielding a *dynamics-aware* hybrid
that picks the ratio minimizing makespan under the predicted bandwidth
trajectory rather than the instantaneous snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BandwidthEvent:
    """At ``time``, set the given link rates of ``node`` (None = unchanged)."""

    time: float
    node: int
    uplink: float | None = None
    downlink: float | None = None
    cross_uplink: float | None = None
    cross_downlink: float | None = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("event time must be non-negative")
        for value in (self.uplink, self.downlink, self.cross_uplink, self.cross_downlink):
            if value is not None and value <= 0:
                raise ValueError("bandwidths must stay positive")

    def capacity_updates(self) -> dict[str, float]:
        """Resource-key -> new capacity map for the simulator."""
        rates = {
            "up": self.uplink,
            "down": self.downlink,
            "xup": self.cross_uplink,
            "xdown": self.cross_downlink,
        }
        return {
            f"{kind}:{self.node}": rate for kind, rate in rates.items() if rate is not None
        }
