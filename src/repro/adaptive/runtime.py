"""Coordinator-coupled data plane for adaptive repairs.

:class:`AdaptiveRuntime` is the bridge between the timing-only
:class:`~repro.adaptive.engine.AdaptiveEngine` and the coordinator's
agents: it runs the *exact* planning phase of a static healthy round
(same spare assignment, same center-scheduler picks, same per-stripe
HMBR splits), hands the resulting plans to the engine for drift-triggered
re-planning, then executes each journaled piece's GF/transfer ops
exactly once through the agents — resumable via the fault runtime's
:class:`~repro.system.agent.ExecutionJournal` cursor, so an
interrupted data plane never re-sends bytes it already moved.

Every failed block is finally assembled from its pieces with one
:class:`~repro.repair.plan.ConcatOp` (pieces are word-aligned fraction
ranges, so concatenation is exact), stored, and — when ``verify`` is on
— checked bit-for-bit against the stripe's parity.
"""

from __future__ import annotations

from repro.adaptive.engine import AdaptiveEngine, AdaptiveEntry, AdaptiveReport
from repro.repair._build import repaired_name
from repro.repair.plan import ConcatOp
from repro.simnet.network import as_network
from repro.system.agent import ExecutionJournal, run_plan_ops


class AdaptiveRuntime:
    """Run one adaptive repair round against a coordinator.

    ``request`` is the :class:`~repro.system.request.RepairRequest` being
    served: its ``scheme`` / ``verify`` drive the round, its ``network``
    (a :class:`~repro.simnet.network.NetworkTrace`; ``None`` = quiet) is
    the trace the engine watches, and its ``drift_threshold`` /
    ``max_replans`` tune the engine.
    """

    def __init__(self, coord, request):
        self.coord = coord
        self.request = request
        #: stripe id -> resumable data-plane cursor (the never-re-send ledger).
        self.journals: dict[int, ExecutionJournal] = {}

    def repair(self):
        """One adaptive repair round; returns the request's ``RepairResult``.

        Planning is the static round's :meth:`Coordinator.plan_round
        <repro.system.coordinator.Coordinator.plan_round>` verbatim, so on
        a quiet trace this degenerates to exactly one static round
        (bit-exact, same makespan).  ``result.report`` is the engine's
        :class:`~repro.adaptive.engine.AdaptiveReport`.
        """
        coord, req = self.coord, self.request
        before = coord.meter()
        dead = coord.cluster.dead_ids()
        affected = coord.layout.stripes_with_failures(dead)
        if not affected:
            return coord.round_result(req, before, [], 0.0, {}, {})
        events = as_network(req.network).events_for(coord.cluster)
        with coord.span(
            "repair.adaptive", "repair",
            scheme=req.scheme, dead_nodes=list(dead), stripes=sorted(affected),
            quiet=not events, drift_threshold=req.drift_threshold,
        ):
            # ---- planning: byte-identical to the static healthy round
            rnd = coord.plan_round(req.scheme, affected)
            key_of = {sid: f"s{sid:04d}" for sid, _ in rnd.plans}
            entries = [
                AdaptiveEntry(key=key_of[sid], ctx=ctx, scheme=req.scheme, plan=plan)
                for (sid, ctx, _), (_, plan) in zip(rnd.work, rnd.plans)
            ]

            # ---- timing plane: drift-watched rounds over the event trace
            report = AdaptiveEngine(
                coord.cluster, events=events, drift_threshold=req.drift_threshold,
                max_replans=req.max_replans, obs=coord.obs,
            ).run(entries)

            # ---- data plane: each journaled piece's ops run exactly once
            try:
                for sid, ctx, _ in rnd.work:
                    self._execute_key(key_of[sid], sid, ctx, report, req.verify)
            finally:
                coord.clear_scratch()

        if coord.obs is not None:
            coord.obs.metrics.gauge("adaptive.pieces").set(
                sum(len(report.pieces[key]) for key in key_of.values())
            )
        return coord.round_result(
            req, before, rnd.plans, report.makespan_s,
            {sid: report.finish_s[key] for sid, key in key_of.items()},
            rnd.replacement_of,
            report=report,
            bytes_on_wire_mb_model=report.bytes_on_wire_mb_model,
        )

    # ------------------------------------------------------------------ #
    def assemble_ops(self, key: str, ctx, engine_report: AdaptiveReport):
        """The key's full data-plane op list: piece ops + final concats.

        A single whole-range piece (the quiet-network case) is passed
        through untouched, so the executed ops — and therefore the stored
        bytes and buffer names — are identical to the static path's.
        """
        pieces = engine_report.pieces[key]
        if not engine_report.journal.is_complete(key):
            raise RuntimeError(f"{key}: committed pieces do not tile [0, 1)")
        ops = [op for piece in pieces for op in piece.ops]
        if len(pieces) == 1:
            return ops, dict(pieces[0].outputs)
        ordered = sorted(pieces, key=lambda p: p.lo)
        outputs: dict[int, tuple[int, str]] = {}
        for fb in ctx.failed_blocks:
            nodes = {p.outputs[fb][0] for p in ordered}
            if len(nodes) != 1:
                raise AssertionError(
                    f"{key}: pieces disagree on block {fb}'s new node: {nodes}"
                )
            node = nodes.pop()
            out = repaired_name(ctx.prefix("a"), fb)
            ops.append(ConcatOp(node, out, tuple(p.outputs[fb][1] for p in ordered)))
            outputs[fb] = (node, out)
        return ops, outputs

    def _execute_key(self, key, sid, ctx, engine_report, verify) -> None:
        """Run one stripe's assembled ops through the agents and commit."""
        coord = self.coord
        ops, outputs = self.assemble_ops(key, ctx, engine_report)
        journal = self.journals.setdefault(sid, ExecutionJournal())
        with coord.span(
            f"adaptive.stripe:{sid}", "repair",
            stripe=sid, ops=len(ops), pieces=len(engine_report.pieces[key]),
            resumed_at=journal.completed,
        ):
            run_plan_ops(ops, coord.agents, coord.bus, journal=journal)
            coord.commit_outputs(sid, outputs, verify)
