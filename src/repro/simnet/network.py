"""`NetworkTrace`: one value type for every way the network can change.

Hand-built :class:`~repro.simnet.dynamic.BandwidthEvent` lists, step
degradations and the OU trace generator in ``cluster/timeseries.py`` all
meet here.  A :class:`NetworkTrace` captures the *intent*
(quiet / explicit events / seeded OU churn / step degradation) as an
immutable value that can be stored on a :class:`~repro.system.request.RepairRequest`
or ``ServeRequest``, compared, composed with ``+``, and lowered to concrete
simulator events against any cluster via :meth:`NetworkTrace.events_for`.

Lowering is lazy and deterministic: an ``ou`` trace carries only its seed
and parameters, so the same trace value replays bit-identically on any
machine, and a ``degrade`` trace reads the target cluster's *current* rates
when lowered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from repro.simnet.dynamic import BandwidthEvent

_KINDS = ("quiet", "events", "ou", "degrade", "compose")


@dataclass(frozen=True)
class NetworkTrace:
    """Immutable description of how link rates evolve during a run.

    Build instances with the factories :meth:`quiet`, :meth:`from_events`,
    :meth:`ou` and :meth:`degrade`; combine with ``+``.  The constructor
    fields are an implementation detail of the chosen ``kind``.
    """

    kind: str = "quiet"
    events: tuple[BandwidthEvent, ...] = ()
    parts: tuple["NetworkTrace", ...] = ()
    # OU-churn parameters (kind == "ou")
    duration_s: float = 0.0
    step_s: float = 1.0
    rel_sigma: float = 0.15
    theta: float = 0.5
    seed: int = 0
    nodes: tuple[int, ...] | None = None
    # degradation parameters (kind == "degrade")
    at_time: float = 0.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown NetworkTrace kind {self.kind!r}")

    # -------------------------------------------------------------- #
    # factories
    # -------------------------------------------------------------- #
    @classmethod
    def quiet(cls) -> "NetworkTrace":
        """A constant-bandwidth network (no events)."""
        return cls()

    @classmethod
    def from_events(cls, events: Iterable[BandwidthEvent]) -> "NetworkTrace":
        """Wrap an explicit event list (kept sorted by time)."""
        evs = tuple(events)
        for e in evs:
            if not isinstance(e, BandwidthEvent):
                raise TypeError(f"expected BandwidthEvent, got {type(e).__name__}")
        return cls(kind="events", events=tuple(sorted(evs, key=lambda e: e.time)))

    @classmethod
    def ou(
        cls,
        duration_s: float,
        *,
        step_s: float = 1.0,
        rel_sigma: float = 0.15,
        theta: float = 0.5,
        seed: int = 0,
        nodes: Sequence[int] | None = None,
    ) -> "NetworkTrace":
        """Seeded mean-reverting OU churn on every (or the given) node's links."""
        if duration_s <= 0 or step_s <= 0:
            raise ValueError("duration and step must be positive")
        if rel_sigma < 0:
            raise ValueError("rel_sigma must be non-negative")
        return cls(
            kind="ou",
            duration_s=float(duration_s),
            step_s=float(step_s),
            rel_sigma=float(rel_sigma),
            theta=float(theta),
            seed=int(seed),
            nodes=None if nodes is None else tuple(int(n) for n in nodes),
        )

    @classmethod
    def degrade(
        cls, nodes: Sequence[int], *, at_time: float = 0.0, factor: float = 2.0
    ) -> "NetworkTrace":
        """At ``at_time``, divide the listed nodes' link rates by ``factor``."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        if at_time < 0:
            raise ValueError("at_time must be non-negative")
        return cls(
            kind="degrade",
            nodes=tuple(int(n) for n in nodes),
            at_time=float(at_time),
            factor=float(factor),
        )

    # -------------------------------------------------------------- #
    # composition / inspection
    # -------------------------------------------------------------- #
    def __add__(self, other: "NetworkTrace") -> "NetworkTrace":
        if not isinstance(other, NetworkTrace):
            return NotImplemented
        parts = []
        for t in (self, other):
            if t.kind == "compose":
                parts.extend(t.parts)
            elif not t.is_quiet:
                parts.append(t)
        if not parts:
            return NetworkTrace.quiet()
        if len(parts) == 1:
            return parts[0]
        return NetworkTrace(kind="compose", parts=tuple(parts))

    @property
    def is_quiet(self) -> bool:
        """True iff lowering can never produce an event."""
        if self.kind == "quiet":
            return True
        if self.kind == "events":
            return not self.events
        if self.kind == "degrade":
            return not self.nodes
        if self.kind == "compose":
            return all(p.is_quiet for p in self.parts)
        return False

    # -------------------------------------------------------------- #
    # lowering
    # -------------------------------------------------------------- #
    def events_for(self, cluster) -> list[BandwidthEvent]:
        """Materialize the trace against ``cluster`` as sorted simulator events."""
        if self.kind == "quiet":
            return []
        if self.kind == "events":
            return list(self.events)
        if self.kind == "degrade":
            out = []
            for n in self.nodes or ():
                node = cluster[n]
                out.append(
                    BandwidthEvent(
                        time=self.at_time,
                        node=n,
                        uplink=node.uplink / self.factor,
                        downlink=node.downlink / self.factor,
                        cross_uplink=(
                            None if node.cross_uplink is None
                            else node.cross_uplink / self.factor
                        ),
                        cross_downlink=(
                            None if node.cross_downlink is None
                            else node.cross_downlink / self.factor
                        ),
                    )
                )
            return out
        if self.kind == "ou":
            import numpy as np

            from repro.cluster.timeseries import ou_trace_events

            return ou_trace_events(
                cluster,
                self.duration_s,
                step_s=self.step_s,
                rel_sigma=self.rel_sigma,
                theta=self.theta,
                rng=np.random.default_rng(self.seed),
                nodes=None if self.nodes is None else list(self.nodes),
            )
        # compose: stable merge keeps part order for simultaneous events
        merged: list[BandwidthEvent] = []
        for p in self.parts:
            merged.extend(p.events_for(cluster))
        return sorted(merged, key=lambda e: e.time)


def as_network(value) -> NetworkTrace:
    """Coerce ``None`` / event iterables / traces to a :class:`NetworkTrace`."""
    if value is None:
        return NetworkTrace.quiet()
    if isinstance(value, NetworkTrace):
        return value
    return NetworkTrace.from_events(value)


def cluster_at(cluster, events: Iterable[BandwidthEvent], up_to: float):
    """A capacity-view copy of ``cluster`` with events up to ``up_to`` applied.

    Returns a *new* :class:`~repro.cluster.topology.Cluster` whose nodes carry
    the link rates in force at simulated time ``up_to`` (events with
    ``time <= up_to``, in order).  Liveness flags, racks, tags and rack
    trunks are preserved; the original cluster is never mutated.  The
    adaptive engine re-plans against these snapshots.
    """
    from repro.cluster.node import Node
    from repro.cluster.topology import Cluster

    copies = []
    for nid in sorted(cluster.nodes):
        n = cluster.nodes[nid]
        copies.append(
            Node(
                nid,
                uplink=n.uplink,
                downlink=n.downlink,
                rack=n.rack,
                alive=n.alive,
                cross_uplink=n.cross_uplink,
                cross_downlink=n.cross_downlink,
                tags=set(n.tags),
            )
        )
    twin = Cluster(copies)
    twin.rack_trunks = dict(cluster.rack_trunks)
    for e in sorted(events, key=lambda ev: ev.time):
        if e.time > up_to:
            break
        node = twin[e.node]
        if e.uplink is not None:
            node.uplink = e.uplink
        if e.downlink is not None:
            node.downlink = e.downlink
        if e.cross_uplink is not None:
            node.cross_uplink = e.cross_uplink
        if e.cross_downlink is not None:
            node.cross_downlink = e.cross_downlink
    return twin
