#!/usr/bin/env python
"""Pin the public API surface against ``tests/golden/api_surface.json``.

The public surface is everything ``__all__`` exports from :mod:`repro`
and its subpackages — the documented ``from repro import ...`` style.
This tool snapshots every exported name with its kind and callable
signature to canonical JSON; CI runs ``--check`` so an unreviewed rename,
removal, or signature change turns the build red instead of silently
breaking downstream callers.  Reviewed changes regenerate the golden
with ``--write`` and commit it alongside the code.

Usage::

    PYTHONPATH=src python tools/check_api_surface.py --check   # verify (CI)
    PYTHONPATH=src python tools/check_api_surface.py --write   # regenerate

Additive changes still show up in the golden's diff at review time; the
check is about making every surface change *deliberate*, not freezing
the API forever.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden" / "api_surface.json"

#: every package whose ``__all__`` is public, in report order.
PUBLIC_MODULES = [
    "repro",
    "repro.adaptive",
    "repro.analysis",
    "repro.cluster",
    "repro.ec",
    "repro.faults",
    "repro.gf",
    "repro.gf.backend",
    "repro.obs",
    "repro.reliability",
    "repro.repair",
    "repro.sched",
    "repro.simnet",
    "repro.system",
    "repro.workload",
]


def _signature_of(obj) -> str | None:
    """A stable signature string, or None for non-callables/builtins."""
    target = obj
    if inspect.isclass(obj):
        target = obj.__init__
    if not callable(target):
        return None
    try:
        sig = inspect.signature(target)
    except (ValueError, TypeError):
        return None
    params = list(sig.parameters.values())
    if inspect.isclass(obj) and params and params[0].name in ("self", "cls"):
        params = params[1:]
    return "(" + ", ".join(str(p) for p in params) + ")"


def _kind_of(obj) -> str:
    if inspect.ismodule(obj):
        return "module"
    if inspect.isclass(obj):
        return "class"
    if callable(obj):
        return "function"
    return "value"


def snapshot() -> dict:
    """The current surface: module -> exported name -> {kind, signature}."""
    surface: dict[str, dict] = {}
    for modname in PUBLIC_MODULES:
        mod = importlib.import_module(modname)
        exported = getattr(mod, "__all__", None)
        if exported is None:
            raise SystemExit(f"{modname} has no __all__ — the surface must be explicit")
        dupes = {n for n in exported if exported.count(n) > 1}
        if dupes:
            raise SystemExit(f"{modname}.__all__ has duplicates: {sorted(dupes)}")
        entries: dict[str, dict] = {}
        for name in sorted(exported):
            if not hasattr(mod, name):
                raise SystemExit(f"{modname}.__all__ exports missing name {name!r}")
            obj = getattr(mod, name)
            entry: dict = {"kind": _kind_of(obj)}
            sig = _signature_of(obj)
            if sig is not None:
                entry["signature"] = sig
            entries[name] = entry
        surface[modname] = entries
    return surface


def canonical_json(surface: dict) -> str:
    return json.dumps(surface, indent=2, sort_keys=True) + "\n"


def _diff(old: dict, new: dict) -> list[str]:
    """Human-readable drift lines between two snapshots."""
    lines: list[str] = []
    for mod in sorted(set(old) | set(new)):
        o, n = old.get(mod), new.get(mod)
        if o is None:
            lines.append(f"+ module {mod} ({len(n)} names)")
            continue
        if n is None:
            lines.append(f"- module {mod} ({len(o)} names)")
            continue
        for name in sorted(set(o) | set(n)):
            eo, en = o.get(name), n.get(name)
            if eo is None:
                lines.append(f"+ {mod}.{name} {en.get('signature', '')}".rstrip())
            elif en is None:
                lines.append(f"- {mod}.{name}")
            elif eo != en:
                lines.append(
                    f"~ {mod}.{name}: {eo.get('signature', eo['kind'])} -> "
                    f"{en.get('signature', en['kind'])}"
                )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--check", action="store_true", help="fail if the surface drifted from the golden"
    )
    mode.add_argument(
        "--write", action="store_true", help="regenerate the golden from the current code"
    )
    args = ap.parse_args(argv)

    sys.path.insert(0, str(REPO / "src"))
    current = snapshot()
    text = canonical_json(current)

    if args.write:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(text)
        n = sum(len(v) for v in current.values())
        print(f"wrote {GOLDEN.relative_to(REPO)}: {len(current)} modules, {n} names")
        return 0

    if not GOLDEN.exists():
        print(f"FAIL: {GOLDEN.relative_to(REPO)} missing — run --write and commit it")
        return 1
    golden = json.loads(GOLDEN.read_text())
    if golden == current:
        n = sum(len(v) for v in current.values())
        print(f"OK: public API surface matches golden ({n} names)")
        return 0
    print("FAIL: public API surface drifted from tests/golden/api_surface.json")
    for line in _diff(golden, current):
        print("  " + line)
    print("review the change, then regenerate with: "
          "PYTHONPATH=src python tools/check_api_surface.py --write")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
