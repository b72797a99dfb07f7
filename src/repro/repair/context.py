"""Repair context: the inputs every planner consumes.

A context binds one stripe's failure to concrete resources: which block
indices are lost, which k survivors participate, and which new node hosts
each repaired block.  Policies for survivor selection and center selection
live here so CR / IR / HMBR compare on identical footing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.topology import Cluster
from repro.ec.rs import RSCode
from repro.ec.stripe import Stripe


def make_new_node_map(failed_blocks, new_nodes) -> dict[int, int]:
    """Assign failed block -> new node, one-to-one in order."""
    failed = list(failed_blocks)
    nodes = list(new_nodes)
    if len(nodes) != len(failed):
        raise ValueError(f"{len(failed)} failed blocks but {len(nodes)} new nodes")
    if len(set(nodes)) != len(nodes):
        raise ValueError("new nodes must be distinct")
    return dict(zip(failed, nodes))


@dataclass
class RepairContext:
    """Everything needed to plan the repair of one stripe.

    Parameters
    ----------
    cluster : the cluster (must contain all referenced nodes).
    code : the stripe's RS code.
    stripe : placement metadata.
    failed_blocks : lost block indices (1 <= f <= m).
    new_nodes : node ids hosting the repaired blocks, one per failed block.
    block_size_mb : block size B in MB (paper default 64).
    survivor_policy : ``"first"`` (k lowest surviving indices, deterministic)
        or ``"best-uplink"`` (k survivors whose nodes have the highest uplink).
    """

    cluster: Cluster
    code: RSCode
    stripe: Stripe
    failed_blocks: list[int]
    new_nodes: list[int]
    block_size_mb: float = 64.0
    survivor_policy: str = "first"
    _new_node_map: dict[int, int] = field(init=False, repr=False)
    #: a kept HMBR whole-block build (:func:`repro.repair.hybrid.whole_block`)
    _template: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.failed_blocks = [int(b) for b in self.failed_blocks]
        self.new_nodes = [int(n) for n in self.new_nodes]
        f = len(self.failed_blocks)
        if not 1 <= f <= self.code.m:
            raise ValueError(f"f={f} must be within 1..m={self.code.m}")
        if len(set(self.failed_blocks)) != f:
            raise ValueError("failed block indices must be distinct")
        for b in self.failed_blocks:
            if not 0 <= b < self.code.n:
                raise ValueError(f"failed block {b} out of range")
        if self.stripe.k != self.code.k or self.stripe.m != self.code.m:
            raise ValueError("stripe and code disagree on (k, m)")
        if self.block_size_mb <= 0:
            raise ValueError("block size must be positive")
        stripe_nodes = set(self.stripe.placement)
        for n in self.new_nodes:
            if n not in self.cluster:
                raise ValueError(f"new node {n} not in cluster")
            if not self.cluster[n].alive:
                raise ValueError(f"new node {n} is dead")
        failed_nodes = {self.stripe.placement[b] for b in self.failed_blocks}
        if set(self.new_nodes) & (stripe_nodes - failed_nodes):
            raise ValueError("a new node already stores a surviving block of this stripe")
        self._new_node_map = make_new_node_map(self.failed_blocks, self.new_nodes)

    # -------------------------------------------------------------- #
    def prefix(self, name: str) -> str:
        """Stripe-scoped namespace for plan task ids and buffer names.

        Multi-stripe (multi-node) repairs merge many plans into one; baking
        the stripe id into every name keeps agent scratch spaces disjoint.
        """
        return f"s{self.stripe.stripe_id:04d}:{name}"

    @property
    def f(self) -> int:
        return len(self.failed_blocks)

    @property
    def k(self) -> int:
        return self.code.k

    def new_node_of(self, block_index: int) -> int:
        return self._new_node_map[block_index]

    def surviving_blocks(self) -> list[int]:
        """All block indices whose host node is alive and not failed."""
        failed = set(self.failed_blocks)
        return [
            i
            for i, nid in enumerate(self.stripe.placement)
            if i not in failed and self.cluster[nid].alive
        ]

    def chosen_survivors(self) -> list[int]:
        """The k survivor block indices participating in the repair."""
        candidates = self.surviving_blocks()
        if len(candidates) < self.k:
            raise ValueError(
                f"only {len(candidates)} surviving blocks; need k={self.k} "
                "(stripe unrecoverable)"
            )
        if self.survivor_policy == "first":
            return candidates[: self.k]
        if self.survivor_policy == "best-uplink":
            ranked = sorted(
                candidates,
                key=lambda b: (-self.cluster[self.stripe.placement[b]].uplink, b),
            )
            return sorted(ranked[: self.k])
        raise ValueError(f"unknown survivor policy {self.survivor_policy!r}")

    def survivor_nodes(self) -> list[int]:
        """Node ids of the chosen survivors, in block-index order."""
        return [self.stripe.placement[b] for b in self.chosen_survivors()]

    def repair_matrix(self):
        """f x k coefficients: failed blocks as combos of chosen survivors."""
        return self.code.repair_matrix(self.chosen_survivors(), self.failed_blocks)

    def pick_center(self, policy: str = "fastest-downlink") -> int:
        """Choose the CR center among the new nodes.

        ``"fastest-downlink"`` (default, what a bandwidth-aware coordinator
        does), ``"first"`` (paper's naive baseline), or an explicit node id
        may be passed by callers instead of using this helper.
        """
        if policy == "first":
            return self.new_nodes[0]
        if policy == "fastest-downlink":
            return max(self.new_nodes, key=lambda n: (self.cluster[n].downlink, -n))
        raise ValueError(f"unknown center policy {policy!r}")
