"""Plan executor: a coordinator-less harness over the agent op path.

A :class:`Workspace` is a bare set of per-node :class:`~repro.system.agent.Agent`\\ s
on one :class:`~repro.system.bus.DataBus`; :class:`PlanExecutor` hands a
plan's ``ops`` to :func:`~repro.system.agent.run_plan_ops` — the same
interpreter every coordinator route uses — and meters the run off the bus
and agent ``obs_hook``\\ s.  The GF bytes each node processed, scaled to the
experiment's block size, give the ``T_o`` compute component of the paper's
Table II breakdown, and the repaired buffers come back so callers can assert
bit-exactness against the original blocks.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.ec.stripe import Stripe, block_name
from repro.ec.subblock import DEFAULT_WORD_BYTES
from repro.gf.field import GF, gf8
from repro.obs.session import Observability
from repro.repair.plan import RepairPlan
from repro.system.agent import Agent, run_plan_ops
from repro.system.bus import DataBus


class _Agents(dict):
    """``node -> Agent``; a node first named by an op gets an empty agent."""

    def __init__(self, workspace: "Workspace"):
        super().__init__()
        self.ws = workspace

    def __missing__(self, node: int) -> Agent:
        agent = self[node] = Agent(node, self.ws.field, self.ws.word_bytes)
        agent.obs_hook = self.ws.compute_hook
        return agent


class Workspace:
    """Per-node named buffers: one agent's scratch space per node."""

    def __init__(self, field_: GF = gf8, word_bytes: int = DEFAULT_WORD_BYTES):
        self.field = field_
        self.word_bytes = word_bytes
        self.agents: dict[int, Agent] = _Agents(self)
        self.bus = DataBus()
        #: the agents' ``obs_hook`` (set by :meth:`PlanExecutor.execute`).
        self.compute_hook = None

    def put(self, node: int, name: str, data: np.ndarray) -> None:
        arr = np.asarray(data, dtype=self.field.dtype)
        if arr.nbytes % self.word_bytes:
            raise ValueError(
                f"buffer {name!r} ({arr.nbytes} B) not aligned to {self.word_bytes}-byte words"
            )
        self.agents[node].scratch[name] = arr

    def get(self, node: int, name: str) -> np.ndarray:
        scratch = self.agents[node].scratch
        if name not in scratch:
            raise KeyError(f"node {node} has no buffer {name!r}")
        return scratch[name]

    def load_stripe(self, stripe: Stripe, blocks: np.ndarray) -> None:
        """Place each block of a (k+m, L) stripe at its node."""
        if blocks.shape[0] != stripe.n:
            raise ValueError(f"expected {stripe.n} blocks, got {blocks.shape[0]}")
        for idx, node in enumerate(stripe.placement):
            self.put(node, block_name(stripe.stripe_id, idx), blocks[idx])

    def drop_node(self, node: int) -> None:
        """Discard every buffer of a failed node."""
        self.agents.pop(node, None)

    def set_hooks(self, on_transfer, on_compute) -> None:
        """Install (or, with ``None``, remove) the bus and agent ``obs_hook``\\ s."""
        self.bus.obs_hook = on_transfer
        self.compute_hook = on_compute
        for agent in self.agents.values():
            agent.obs_hook = on_compute


@dataclass
class ExecutionReport:
    """What happened when a plan ran."""

    compute_seconds: dict[int, float]  # node -> GF compute wall time
    transfer_mb_equiv: float  # MB copied between workspaces (at test scale)
    gf_bytes_processed: int  # bytes fed through GF kernels
    outputs: dict[int, np.ndarray]  # failed block index -> repaired buffer
    op_count: int = 0
    per_node_mb_sent: dict[int, float] = field(default_factory=dict)
    gf_bytes_by_node: dict[int, int] = field(default_factory=dict)

    @property
    def total_compute_seconds(self) -> float:
        return sum(self.compute_seconds.values())

    @property
    def critical_compute_seconds(self) -> float:
        """Max per-node compute: nodes work in parallel in the real system."""
        return max(self.compute_seconds.values(), default=0.0)


class PlanExecutor:
    """Execute repair plans over a workspace."""

    def __init__(self, workspace: Workspace):
        self.ws = workspace

    def execute(
        self,
        plan: RepairPlan,
        verify_against: dict[int, np.ndarray] | None = None,
        tracer=None,
    ) -> ExecutionReport:
        """Run all ops; optionally verify outputs bit-exactly.

        ``verify_against`` maps failed block index -> expected full buffer.
        Raises ``AssertionError`` on any mismatch (repair must be exact).

        ``tracer`` (a :class:`repro.obs.Tracer`) records the run as the
        system's own ops-domain spans — one ``transfer`` span per metered
        bus transfer (carrying bytes), one ``compute`` span per GF combine
        (seconds and bytes) — under one ``execute:<scheme>`` root, which is
        what :func:`repro.analysis.breakdown.breakdown_from_trace` consumes.
        ``None`` (the default) changes nothing.
        """
        ws = self.ws
        obs = Observability(tracer) if tracer is not None else None
        compute: dict[int, float] = {}
        gf_by_node: dict[int, int] = {}
        sent: dict[int, int] = {}

        def on_transfer(src: int, dst: int, nbytes: int) -> None:
            sent[src] = sent.get(src, 0) + nbytes
            if obs is not None:
                obs.on_transfer(src, dst, nbytes)

        def on_compute(node: int, seconds: float, nbytes: int) -> None:
            compute[node] = compute.get(node, 0.0) + seconds
            gf_by_node[node] = gf_by_node.get(node, 0) + nbytes
            if obs is not None:
                obs.on_compute(node, seconds, nbytes)

        ws.set_hooks(on_transfer, on_compute)
        try:
            with nullcontext() if tracer is None else tracer.span(
                f"execute:{plan.scheme}", actor="executor", cat="execute",
                scheme=plan.scheme, ops=len(plan.ops),
            ):
                run_plan_ops(plan.ops, ws.agents, ws.bus)
        finally:
            ws.set_hooks(None, None)

        outputs = {fb: ws.get(node, name) for fb, (node, name) in plan.outputs.items()}
        for fb, expected in (verify_against or {}).items():
            got = outputs.get(fb)
            if got is None:
                raise AssertionError(f"plan produced no output for failed block {fb}")
            if not np.array_equal(got, np.asarray(expected, dtype=ws.field.dtype)):
                raise AssertionError(f"repaired block {fb} differs from the original")

        return ExecutionReport(
            compute_seconds=compute,
            transfer_mb_equiv=sum(sent.values()) / 2**20,
            gf_bytes_processed=sum(gf_by_node.values()),
            outputs=outputs,
            op_count=len(plan.ops),
            per_node_mb_sent={n: b / 2**20 for n, b in sent.items()},
            gf_bytes_by_node=gf_by_node,
        )
