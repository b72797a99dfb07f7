"""Client workload generation and the online serving plane.

Two halves (see ``docs/SERVING.md``):

* :mod:`repro.workload.generator` — seeded, deterministic client load:
  zipf object popularity, open-loop Poisson arrivals, replayable traces;
* :mod:`repro.workload.serving` — :class:`ServingPlane` runs a trace
  against a coordinator with an on-the-fly degraded-read path and merges
  the foreground flows into the repair scheduler's fluid simulation, so
  read-latency percentiles reflect contention with repair storms;
* :mod:`repro.workload.pipeline` — chunked degraded-read pipelining:
  word-aligned slice geometry, bit-exact per-slice decode, and the
  streaming fetch/decode task DAG that overlaps decode with in-flight
  survivor fetches (``docs/PIPELINING_READS.md``).

Entry point: build a :class:`ServeRequest` (``chunks=N`` enables the
pipelined degraded path) and call :meth:`Coordinator.serve
<repro.system.coordinator.Coordinator.serve>`.
"""

from repro.workload.generator import (
    ClientOp,
    WorkloadGenerator,
    WorkloadSpec,
    object_payload,
)
from repro.workload.pipeline import (
    ChunkSlice,
    StripeChunkPlan,
    chunk_slices,
    chunked_read_tasks,
    decode_chunked,
)
from repro.workload.serving import OpOutcome, ServeRequest, ServeResult, ServingPlane

__all__ = [
    "ChunkSlice",
    "ClientOp",
    "OpOutcome",
    "ServeRequest",
    "ServeResult",
    "ServingPlane",
    "StripeChunkPlan",
    "WorkloadGenerator",
    "WorkloadSpec",
    "chunk_slices",
    "chunked_read_tasks",
    "decode_chunked",
    "object_payload",
]
