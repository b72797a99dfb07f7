"""Unified observability: spans, metrics, and repair timelines.

``repro.obs`` is the measurement substrate for the whole reproduction — a
zero-dependency tracer + metrics registry that every layer (system, repair,
faults, simnet, analysis) can feed through *optional* hooks which are byte-
and time-identical no-ops when disabled.

Public surface:

* :class:`~repro.obs.tracer.Tracer` / :class:`~repro.obs.tracer.Span` —
  nested spans over two logical-clock domains (data-plane op clock,
  fluid-simulator seconds), with nesting validation;
* :class:`~repro.obs.metrics.MetricsRegistry` with
  :class:`~repro.obs.metrics.Counter` / :class:`~repro.obs.metrics.Gauge` /
  :class:`~repro.obs.metrics.Histogram` series;
* :class:`~repro.obs.session.Observability` — a tracer+metrics session that
  attaches to a :class:`~repro.system.coordinator.Coordinator` the same way
  a fault injector does;
* exporters in :mod:`repro.obs.export` — Chrome-trace JSON (loads in
  ``chrome://tracing`` / Perfetto) and JSONL.

Typical use::

    from repro import Observability, RepairRequest

    obs = Observability().attach(coord)
    coord.repair(RepairRequest(scheme="hmbr"))
    obs.detach(coord)
    obs.tracer.write_chrome_trace("repair.trace.json")
    print(obs.metrics.snapshot()["counters"]["bus.bytes"])

See ``docs/OBSERVABILITY.md`` for the span/metric schema and how to read a
trace in Perfetto.
"""

from repro.obs.export import to_chrome_trace, write_chrome_trace, write_spans_jsonl
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, latency_summary
from repro.obs.session import Observability
from repro.obs.tracer import OPS_DOMAIN, SIM_DOMAIN, Span, TraceError, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "latency_summary",
    "MetricsRegistry",
    "Observability",
    "OPS_DOMAIN",
    "SIM_DOMAIN",
    "Span",
    "TraceError",
    "Tracer",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_spans_jsonl",
]
