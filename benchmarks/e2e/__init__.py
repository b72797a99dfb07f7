"""End-to-end + per-layer wall-clock benchmark (``BENCHMARK.json``).

Five workloads drive the repair, planning, serving and ingest paths through
the public ``RepairRequest`` / ``ServeRequest`` facade only; see
``benchmarks/e2e/README.md`` for the metric tables and commands.
"""
