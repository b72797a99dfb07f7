"""Chunked degraded-read pipelining: decode overlaps the survivor fetches.

PR 6's degraded read is a *barrier*: the modeled decode delay starts only
after every one of the ``k`` survivor blocks has fully landed at the
gateway, so a degraded read pays ``fetch + decode`` end to end.  Repair
Pipelining (ECPipe) observes that erasure decode is column-local: byte
``i`` of a lost block depends only on byte ``i`` of each survivor.  Split
every block into ``chunks`` column slices and the gateway can decode slice
``c`` while slices ``c+1 .. n-1`` are still on the wire, collapsing the
decode tail to a single chunk's worth.

This module holds the three reusable pieces the serving plane composes:

* :func:`chunk_slices` — word-aligned column geometry (even-column cuts);
* :func:`decode_chunked` — the data plane: per-slice
  :meth:`~repro.repair.batch.BatchRepairEngine.decode_batch` calls that
  are **bit-exact** with one whole-block decode, because the GF plane
  matmul treats every column independently.  Emits one ops-domain
  ``workload.chunk:*`` span per slice when a tracer is attached;
* :func:`chunked_read_tasks` — the timing plane: per-chunk survivor
  sub-flows chained per block (streaming: chunk ``c`` of a block ships
  after chunk ``c-1``, preserving the block's total transfer time under
  fluid sharing) and per-chunk decode :class:`~repro.simnet.flows.
  DelayTask`\\ s chained on the gateway's single decode lane;
  :func:`read_pipeline_saved_s` replays the post-sim ready/cost pairs
  through that one lane to report the barrier-vs-pipelined saving.

With ``chunks=1`` the emitted task ids and topology are exactly PR 6's
barrier model, so every existing golden number is the degenerate case.
See ``docs/PIPELINING_READS.md`` for the timing diagrams and formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simnet.flows import DelayTask, Flow


@dataclass(frozen=True)
class ChunkSlice:
    """One column range ``[lo, hi)`` of a chunked degraded read."""

    #: 0-based chunk index within the block.
    index: int
    #: first column (field word) of the slice.
    lo: int
    #: one past the last column of the slice.
    hi: int

    @property
    def width(self) -> int:
        """Columns in the slice."""
        return self.hi - self.lo


def chunk_slices(block_len: int, chunks: int) -> tuple[ChunkSlice, ...]:
    """Split ``[0, block_len)`` into at most ``chunks`` word-aligned slices.

    Cuts snap down to even columns (safe for the pair-byte GF(2^16)
    kernel) and degenerate requests (``chunks`` > ``block_len``) collapse
    to fewer, non-empty slices instead of erroring.  ``chunks=1`` yields
    the whole block.
    """
    if block_len < 1:
        raise ValueError(f"block_len must be >= 1, got {block_len}")
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    bounds = [0]
    for i in range(1, chunks):
        cut = (block_len * i) // chunks
        cut -= cut % 2
        if cut > bounds[-1]:
            bounds.append(cut)
    bounds.append(block_len)
    return tuple(
        ChunkSlice(i, lo, hi)
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    )


def decode_chunked(
    engine,
    survivor_ids,
    failed_ids,
    stacked: np.ndarray,
    chunks: int,
    *,
    tracer=None,
    label: str = "",
) -> np.ndarray:
    """Decode ``stacked`` (S, k, B) slice by slice; bit-exact with one shot.

    Each slice runs through ``engine.decode_batch`` on the column range
    alone — the decode matrix multiplies columns independently, so
    reassembling the per-slice outputs reproduces the whole-block decode
    byte for byte (the property suite pins this for every tested chunk
    count).  With ``tracer`` attached, each slice is wrapped in an
    ops-domain ``workload.chunk:{label}c{i}`` span carrying its geometry.
    """
    stacked = np.asarray(stacked, dtype=engine.code.field.dtype)
    if stacked.ndim != 3:
        raise ValueError(f"stacked must be (S, k, B), got {stacked.shape}")
    slices = chunk_slices(stacked.shape[2], chunks)
    if len(slices) == 1 and tracer is None:
        return engine.decode_batch(survivor_ids, failed_ids, stacked)
    out = np.empty(
        (stacked.shape[0], len(failed_ids), stacked.shape[2]),
        dtype=stacked.dtype,
    )
    for sl in slices:
        span = None
        if tracer is not None:
            span = tracer.begin(
                f"workload.chunk:{label}c{sl.index}", actor="serving",
                cat="workload", chunk=sl.index, lo=sl.lo, hi=sl.hi,
                chunks=len(slices),
            )
        try:
            out[:, :, sl.lo:sl.hi] = engine.decode_batch(
                survivor_ids, failed_ids, stacked[:, :, sl.lo:sl.hi]
            )
        finally:
            if span is not None:
                tracer.end(span)
    return out


@dataclass(frozen=True)
class StripeChunkPlan:
    """Timing-plane artifacts of one degraded stripe's chunked read.

    ``flow_ids[c]`` / ``dec_ids[c]`` / ``cost_s[c]`` describe chunk ``c``;
    :meth:`ServingPlane._assemble <repro.workload.serving.ServingPlane>`
    resolves them against the merged simulation's finish times to compute
    per-chunk spans and the pipelined-vs-barrier saving.
    """

    sid: int
    tasks: tuple
    #: per chunk: the survivor sub-flow ids whose finishes gate its decode.
    flow_ids: tuple[tuple[str, ...], ...]
    #: per chunk: the decode DelayTask id.
    dec_ids: tuple[str, ...]
    #: per chunk: the modeled decode cost in simulated seconds.
    cost_s: tuple[float, ...]


def chunked_read_tasks(
    *,
    prefix: str,
    sid: int,
    fetches,
    n_missing: int,
    slices,
    block_size_mb: float,
    decode_mbps: float,
    weight: float,
    gateway: int,
) -> StripeChunkPlan:
    """Build one degraded stripe's chunked fetch + decode task DAG.

    ``fetches`` is the ``(block_index, host)`` list of survivors shipping
    to ``gateway`` (local blocks contribute no flow, matching the metered
    data plane).  Per block, chunk ``c``'s sub-flow (``block_size_mb *
    width/B`` MB) depends on chunk ``c-1``'s sub-flow of the same block —
    a streaming chain, so the block's *total* transfer time under fluid
    fair sharing equals the unchunked flow's while early chunks land
    early.  Per chunk, one decode :class:`~repro.simnet.flows.DelayTask`
    (``n_missing * chunk_mb / decode_mbps`` seconds at the gateway)
    depends on that chunk's sub-flows plus the previous chunk's decode:
    the gateway's single decode lane, materialized as simulator tasks.

    With a single slice the emitted ids (``{prefix}s{sid}:b{b}``,
    ``{prefix}dec{sid}``) and topology are exactly the pre-chunking
    barrier model.
    """
    slices = tuple(slices)
    n = len(slices)
    block_len = slices[-1].hi
    arrival = (f"{prefix}arr",)
    tasks: list = []
    flow_ids: list[tuple[str, ...]] = []
    dec_ids: list[str] = []
    cost_s: list[float] = []
    prev_flow: dict[int, str] = {}
    prev_dec: str | None = None
    for sl in slices:
        frac = sl.width / block_len
        chunk_mb = block_size_mb * frac
        ids = []
        for b, host in fetches:
            base = f"{prefix}s{sid}:b{b}"
            fid = base if n == 1 else f"{base}:c{sl.index}"
            deps = (prev_flow[b],) if b in prev_flow else arrival
            tasks.append(
                Flow(fid, host, gateway, chunk_mb, deps=deps, tag="fg",
                     weight=weight)
            )
            prev_flow[b] = fid
            ids.append(fid)
        dec_id = f"{prefix}dec{sid}" if n == 1 else f"{prefix}dec{sid}:c{sl.index}"
        deps = tuple(ids) or (arrival if prev_dec is None else ())
        if prev_dec is not None:
            deps = deps + (prev_dec,)
        cost = n_missing * chunk_mb / decode_mbps
        tasks.append(
            DelayTask(dec_id, cost, node=gateway, deps=deps, tag="fg")
        )
        prev_dec = dec_id
        flow_ids.append(tuple(ids))
        dec_ids.append(dec_id)
        cost_s.append(cost)
    return StripeChunkPlan(
        sid=sid,
        tasks=tuple(tasks),
        flow_ids=tuple(flow_ids),
        dec_ids=tuple(dec_ids),
        cost_s=tuple(cost_s),
    )


def read_pipeline_saved_s(ready_s, cost_s) -> float:
    """Simulated seconds one stripe's chained chunk decodes saved.

    ``ready_s[c]`` is when chunk ``c``'s survivor sub-flows finished in
    the merged simulation; ``cost_s[c]`` its modeled decode cost.  The
    gateway decodes on one lane, chunks in ``(ready, index)`` order, each
    as soon as it and the lane are free; the barrier model starts once the
    last chunk is ready and decodes them all back to back.
    """
    ready, cost = list(ready_s), list(cost_s)
    done = 0.0
    for c in sorted(range(len(ready)), key=lambda c: (ready[c], c)):
        done = max(ready[c], done) + cost[c]
    barrier = max(ready, default=0.0)
    for c in cost:
        barrier += c
    return max(barrier - done, 0.0)
