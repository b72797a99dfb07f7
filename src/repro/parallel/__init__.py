"""Decode pipelining: the simulated-time model of overlapping decode with transfer.

Transfer is 87.5% of a wide-stripe repair (the paper's Table II), so the
system does not parallelise decode — every GF plane product is one inline
call on the selected kernel backend (:func:`repro.gf.matmul`).  What this
package models is ECPipe's alternative: *overlap* decode with the transfers
still in flight.

* :func:`pipeline_schedule` / :class:`PipelineReport` /
  :class:`PipelineSlot` — stripes decode as their CR/IR flows land instead
  of at the wave barrier, on ``workers`` decode lanes
  (:attr:`repro.system.request.RepairRequest.workers`); the serving plane
  replays its chunked degraded reads through the same model with one lane.

See ``docs/PARALLEL.md`` for the model and for why there is no process pool.
"""

from .pipeline import PipelineReport, PipelineSlot, pipeline_schedule

__all__ = [
    "PipelineReport",
    "PipelineSlot",
    "pipeline_schedule",
]
