"""Stripe metadata: which block of which stripe lives on which node.

A :class:`Stripe` is pure metadata (the coordinator's view); block payloads
live in node block stores (:mod:`repro.system.blockstore`).
"""

from __future__ import annotations

from dataclasses import dataclass


def block_name(stripe_id: int, block_index: int) -> str:
    """Canonical block identifier, e.g. ``"s0017/b03"``."""
    return f"s{stripe_id:04d}/b{block_index:02d}"


@dataclass
class Stripe:
    """Placement metadata for one erasure-coded stripe.

    ``placement[i]`` is the node id storing block ``i`` (data blocks first,
    then parity blocks, as in :class:`repro.ec.rs.RSCode`).
    """

    stripe_id: int
    k: int
    m: int
    placement: list[int]

    def __post_init__(self) -> None:
        if len(self.placement) != self.k + self.m:
            raise ValueError(
                f"placement has {len(self.placement)} entries, need {self.k + self.m}"
            )
        if len(set(self.placement)) != len(self.placement):
            raise ValueError("stripe blocks must be placed on distinct nodes")

    @property
    def n(self) -> int:
        return self.k + self.m

    @property
    def width(self) -> int:
        return self.n

    def node_of(self, block_index: int) -> int:
        return self.placement[block_index]

    def block_on(self, node_id: int) -> int | None:
        """Index of this stripe's block on ``node_id``, or None."""
        try:
            return self.placement.index(node_id)
        except ValueError:
            return None

    def failed_blocks(self, dead_nodes) -> list[int]:
        """Indices of blocks lost when ``dead_nodes`` fail."""
        dead = set(dead_nodes)
        return [i for i, nid in enumerate(self.placement) if nid in dead]

    def surviving_blocks(self, dead_nodes) -> list[int]:
        dead = set(dead_nodes)
        return [i for i, nid in enumerate(self.placement) if nid not in dead]


@dataclass(frozen=True, slots=True)
class StripeMeta:
    """Immutable, validation-free metadata twin of :class:`Stripe`.

    The reliability simulator (:mod:`repro.reliability`) tracks millions of
    stripes; constructing full :class:`Stripe` objects (mutable lists,
    distinctness checks) per stripe is the dominant cost at that scale.  A
    ``StripeMeta`` carries exactly the fields planning needs — id, code
    shape, placement — as a frozen tuple-backed record, and converts to a
    real :class:`Stripe` (validated) only at the point a small twin system
    must be materialized.  ``from_stripe``/``to_stripe`` are exact inverses,
    which the differential suite relies on.
    """

    stripe_id: int
    k: int
    m: int
    placement: tuple[int, ...]

    @classmethod
    def from_stripe(cls, stripe: Stripe) -> "StripeMeta":
        return cls(stripe.stripe_id, stripe.k, stripe.m, tuple(stripe.placement))

    def to_stripe(self) -> Stripe:
        """Materialize a validated, mutable :class:`Stripe`."""
        return Stripe(self.stripe_id, self.k, self.m, list(self.placement))

    @property
    def width(self) -> int:
        return self.k + self.m

    def failed_blocks(self, dead_nodes) -> list[int]:
        dead = set(dead_nodes)
        return [i for i, nid in enumerate(self.placement) if nid in dead]

    def surviving_blocks(self, dead_nodes) -> list[int]:
        dead = set(dead_nodes)
        return [i for i, nid in enumerate(self.placement) if nid not in dead]


class StripeLayout:
    """An id-indexed collection of stripes (the coordinator's stripe table).

    ``layout[sid]`` is the stripe with that id (``KeyError`` when unknown);
    iteration and :attr:`stripes` run in insertion order.  The layout also
    owns id allocation: :meth:`next_id` hands out an id above every stripe
    ever added, however it got there.
    """

    def __init__(self, stripes=()) -> None:
        self._by_id: dict[int, Stripe] = {}
        self._next_id = 0
        for stripe in stripes:
            self.add(stripe)

    @property
    def stripes(self) -> list[Stripe]:
        """The stripes as a list, in insertion order."""
        return list(self._by_id.values())

    def add(self, stripe: Stripe) -> None:
        if stripe.stripe_id in self._by_id:
            raise ValueError(f"stripe {stripe.stripe_id} already in the layout")
        self._by_id[stripe.stripe_id] = stripe
        self._next_id = max(self._next_id, stripe.stripe_id + 1)

    def next_id(self) -> int:
        """Allocate the next unused stripe id."""
        sid = self._next_id
        self._next_id += 1
        return sid

    def remove(self, stripe_id: int) -> Stripe:
        """Drop a stripe from the table and return it (its id is not reused)."""
        return self._by_id.pop(stripe_id)

    def __getitem__(self, stripe_id: int) -> Stripe:
        return self._by_id[stripe_id]

    def __contains__(self, stripe_id: int) -> bool:
        return stripe_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self):
        return iter(self._by_id.values())

    def stripes_with_failures(self, dead_nodes) -> dict[int, list[int]]:
        """Map stripe_id -> failed block indices, for stripes that lost data."""
        out: dict[int, list[int]] = {}
        for s in self:
            failed = s.failed_blocks(dead_nodes)
            if failed:
                out[s.stripe_id] = failed
        return out

    def blocks_per_node(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for s in self:
            for nid in s.placement:
                counts[nid] = counts.get(nid, 0) + 1
        return counts
