"""Command line: the contract run, the five-workload ``run``, and ``compare``.

* ``run.py --workload W --seed N --seconds S --trace 0|1`` measures one
  workload in this process and prints one JSON result as its last line
  (the form ``BENCHMARK.json``'s ``command`` is called with);
* ``run.py run [--workload W] [--traced] [--out DIR]`` runs the workloads one
  after another, one child process each, never two at once;
* ``run.py compare A.json B.json`` judges two ``run`` results.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from . import compare as cmp
from .harness import DEFAULT_SEED, load_spec, report, run_workload
from .workloads import WORKLOADS

RUN_PY = Path(__file__).with_name("run.py")


def _common(parser: argparse.ArgumentParser, spec: dict) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--out", type=Path, help="directory for result and trace files")


def bench_main(argv, process_start) -> int:
    """One workload, in this process."""
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    _common(parser, spec)
    args = parser.parse_args(argv)
    detail = run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        out_dir=args.out,
        process_start=process_start,
    )
    report(detail)
    return 0 if detail["correct"] else 1


def _git_sha() -> str | None:
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=RUN_PY.parent, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def suite_main(argv) -> int:
    """Every workload, one child process at a time."""
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="run.py run")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--traced", action="store_true", help="repeat each workload traced")
    _common(parser, spec)
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]

    with tempfile.TemporaryDirectory() as scratch:
        out_dir = args.out or Path(scratch)
        result = {"seed": args.seed, "smoke": args.smoke, "seconds": args.seconds,
                  "git_sha": _git_sha(), "workloads": {}}
        status = 0
        for name in names:
            for trace in (0, 1) if args.traced else (0,):
                cmd = [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--out", str(out_dir)]
                if args.smoke:
                    cmd.append("--smoke")
                code = subprocess.run(cmd).returncode
                status = status or code
                detail_path = out_dir / f"{name}.trace{trace}.json"
                if detail_path.exists():
                    detail = cmp.load(detail_path)
                    result["env"] = detail["env"]
                    result["workloads"].setdefault(name, {})[
                        "traced" if trace else "untraced"
                    ] = detail
        if args.out:
            with open(out_dir / "result.json", "w") as fh:
                json.dump(result, fh, indent=1)
            print(f"# wrote {out_dir / 'result.json'}")
    return status


def compare_main(argv) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    a, b = cmp.load(args.a), cmp.load(args.b)
    why = cmp.refusal(a, b)
    if why:
        print(f"refusing to compare: {why}", file=sys.stderr)
        return 2
    rows = cmp.compare(a, b, load_spec())
    print(cmp.format_rows(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


def main(argv=None, process_start=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["run"]:
        return suite_main(argv[1:])
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    return bench_main(argv, process_start)
