"""Storage-node agent.

One agent per node (Figure 7).  Agents hold the node's block store plus a
scratch workspace for in-flight repair buffers, and execute the four command
kinds a repair plan lowers to (slice / transfer / GF-combine / concat).
Compute time spent in GF kernels is metered per agent — summed over agents
this is the system's share of the Table II ``T_o`` column.  A buffer is
immutable once stored or sent: a transfer hands the receiver a read-only view
of the sender's array, and every op makes a new array.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.ec.subblock import DEFAULT_WORD_BYTES, word_slice
from repro.gf import matmul_rows
from repro.gf.field import GF, gf8
from repro.repair.plan import CombineOp, ConcatOp, Op, SliceOp, TransferOp
from repro.system.blockstore import BlockStore
from repro.system.bus import DataBus


class Agent:
    """Executes coordinator commands on one node."""

    def __init__(
        self,
        node_id: int,
        field_: GF = gf8,
        word_bytes: int = DEFAULT_WORD_BYTES,
        capacity_bytes: int | None = None,
    ):
        self.node_id = node_id
        self.field = field_
        self.word_bytes = word_bytes
        self.store = BlockStore(node_id, capacity_bytes)
        self.scratch: dict[str, np.ndarray] = {}
        self.compute_seconds = 0.0
        self.alive = True
        #: metered compute multiplier; fault injection raises it to model a
        #: degraded (slow-I/O) node.  1.0 = healthy.
        self.slowdown = 1.0
        #: optional observability tap ``(node, seconds, nbytes) -> None``;
        #: called after each GF combine with the metered (slowdown-scaled)
        #: seconds and the bytes fed through the kernel.
        self.obs_hook = None

    # -------------------------------------------------------------- #
    def _resolve(self, name: str) -> np.ndarray:
        """Scratch buffers shadow stored blocks of the same name."""
        if name in self.scratch:
            return self.scratch[name]
        return self.store.get(name)

    def store_block(self, name: str, data: np.ndarray, overwrite: bool = False) -> None:
        self.store.put(name, np.asarray(data, dtype=self.field.dtype), overwrite)

    def read_block(self, name: str) -> np.ndarray:
        return self.store.get(name)

    # -------------------------------------------------------------- #
    # command handlers
    # -------------------------------------------------------------- #
    def do_slice(self, op: SliceOp) -> None:
        src = self._resolve(op.src)
        self.scratch[op.out] = word_slice(src, op.start, op.stop, self.word_bytes)

    def gf_rows(self, coeffs, srcs: list[np.ndarray]) -> tuple[list, float]:
        """``coeffs @ srcs`` in one kernel call that reads the source buffers
        in place: a separately allocated row per coefficient row, plus the
        metered seconds split evenly per row."""
        mat = np.array(coeffs, dtype=self.field.dtype)
        t0 = time.perf_counter()
        rows = matmul_rows(mat, srcs, self.field)
        return rows, (time.perf_counter() - t0) * self.slowdown / len(mat)

    def do_combine(self, op: CombineOp, row=None, seconds: float = 0.0) -> None:
        """Run ``op``, or land the ``row`` a same-source combine's
        :meth:`gf_rows` call already produced for it in ``seconds``; either
        way the op meters (and reports to :attr:`obs_hook`) once, here."""
        srcs = [self._resolve(s) for s in op.srcs]
        if row is None:
            (row,), seconds = self.gf_rows([op.coeffs], srcs)
        self.scratch[op.out] = row
        self.compute_seconds += seconds
        if self.obs_hook is not None:
            self.obs_hook(self.node_id, seconds, sum(s.nbytes for s in srcs))

    def do_concat(self, op: ConcatOp) -> None:
        parts = [self._resolve(p) for p in op.parts]
        self.scratch[op.out] = np.concatenate(parts)

    def send_to(self, other: "Agent", name: str, rename: str | None, bus: DataBus) -> None:
        """Hand ``other`` a read-only view of ``name`` (no copy), metered on ``bus``."""
        data = self._resolve(name)
        if data.nbytes:
            bus.check(self.node_id, other.node_id, data.nbytes)  # fault gate, pre-send
        view = data.view()
        view.flags.writeable = False
        other.scratch[rename or name] = view
        if data.nbytes:
            # an empty fraction range (an adaptive re-plan can build one;
            # HMBR at p = 0 or 1 plans no empty half) yields empty slices:
            # the buffer must still arrive (downstream ops read it) but puts
            # no bytes on the wire, and the bus meters only real traffic
            bus.record(self.node_id, other.node_id, data.nbytes)

    def clear_scratch(self) -> None:
        self.scratch.clear()

    def fail(self) -> None:
        """Crash the agent: loses everything (store and scratch)."""
        self.alive = False
        self.store.clear()
        self.scratch.clear()


@dataclass
class ExecutionJournal:
    """Progress cursor for resumable plan execution.

    ``completed`` counts ops already executed; a resumed run starts there
    and never redoes finished work.  ``transfer_bytes`` meters the transfer
    ops actually performed through this journal, which is what the fault
    runtime reconciles against the data-bus byte counters.
    """

    completed: int = 0
    transfer_bytes: int = 0

    def reset(self) -> None:
        self.completed = 0
        self.transfer_bytes = 0


def run_plan_ops(
    ops: list[Op], agents: dict[int, Agent], bus: DataBus,
    journal: ExecutionJournal | None = None, before_op=None,
) -> None:
    """Dispatch a plan's ops to agents in order (the coordinator's job).

    This is the one interpreter of the four op kinds: the healthy round,
    the fault and adaptive runtimes and the coordinator-less
    :class:`~repro.system.executor.PlanExecutor` all run plans through it.
    ``journal`` makes the run resumable: ops before ``journal.completed``
    are skipped, the counter advances as ops finish, and every transfer
    performed is metered into ``journal.transfer_bytes`` — so a retried run
    never redoes (or double-counts) completed work.
    ``before_op(op)`` runs ahead of each op and may raise to interrupt the
    plan (the fault runtime's clock tick / timeout / liveness gate).

    Combines on one node over the same ``srcs`` (CR's center: f ops over
    the same k slices) are computed by one :meth:`Agent.gf_rows` call, which
    reads each slice once per group of output rows, when the first of them
    comes up.  Each still
    takes its own turn in the op order, so ``before_op``, the journal
    cursor and the agents' hooks see every op exactly as written; a row
    computed ahead is used only while every source buffer is still the
    array it was computed from.
    """
    start = journal.completed if journal is not None else 0
    mates: dict[tuple, list[int]] = {}
    for i in range(start, len(ops)):
        if isinstance(ops[i], CombineOp):
            mates.setdefault((ops[i].node, ops[i].srcs), []).append(i)
    ahead: dict[int, tuple] = {}  # op index -> (source buffers, row, seconds)
    for i in range(start, len(ops)):
        op = ops[i]
        if before_op is not None:
            before_op(op)
        if isinstance(op, SliceOp):
            agents[op.node].do_slice(op)
        elif isinstance(op, TransferOp):
            dst = agents[op.dst_node]
            agents[op.src_node].send_to(dst, op.name, op.rename, bus)
            if journal is not None:
                journal.transfer_bytes += dst.scratch[op.rename or op.name].nbytes
        elif isinstance(op, CombineOp):
            agent = agents[op.node]
            srcs = [agent._resolve(s) for s in op.srcs]
            hit = ahead.pop(i, None)
            if hit is not None and any(a is not b for a, b in zip(srcs, hit[0])):
                hit = None
            group = [j for j in mates[op.node, op.srcs] if j >= i]
            if hit is None and len(group) > 1:
                rows, dt = agent.gf_rows([ops[j].coeffs for j in group], srcs)
                ahead.update((j, (srcs, row, dt)) for j, row in zip(group, rows))
                hit = ahead.pop(i)
            agent.do_combine(op, *(hit[1:] if hit else ()))
        elif isinstance(op, ConcatOp):
            agents[op.node].do_concat(op)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown op {op!r}")
        if journal is not None:
            journal.completed = i + 1
