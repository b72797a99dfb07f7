"""Entry point: ``python3 benchmarks/e2e/run.py ...`` (see README.md).

Runnable from a bare checkout: puts the checkout root and ``src/`` on
``sys.path`` and keeps the native GF kernel's build cache inside the
checkout, so nothing is read or written outside it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from time import perf_counter

#: set-up time is counted from here, before numpy and repro are imported.
PROCESS_START = perf_counter()
ROOT = Path(__file__).resolve().parents[2]


def bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.e2e`` importable; keep builds local."""
    if not (ROOT / "src" / "repro").is_dir():
        # never measure some other installed copy of the package
        sys.exit(f"{ROOT} holds no src/repro: the benchmark measures the checkout it sits in")
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    os.environ.setdefault("REPRO_GF_NATIVE_CACHE", str(ROOT / ".bench_build" / "gf-native"))


def main(argv=None) -> int:
    bootstrap()
    from benchmarks.e2e.cli import main as cli_main

    return cli_main(argv, process_start=PROCESS_START)


if __name__ == "__main__":
    sys.exit(main())
