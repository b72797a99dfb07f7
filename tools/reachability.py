#!/usr/bin/env python
"""Reachability ratchet: list the public names that nothing but tests uses.

The public surface is :mod:`check_api_surface`'s ``PUBLIC_MODULES`` — every
name their ``__all__`` exports.  A name is *reached* when:

* it is referenced (as a name or an attribute, not in a string or a
  comment) in a ``.py`` file under ``src/``, ``benchmarks/``, ``examples/``
  or ``tools/``, other than its own module; a package ``__init__``'s
  re-export (its import line and its ``__all__`` entry) is not a reference;
* it is a class that a reached callable names in its signature or its
  annotations — a reached class's fields and public methods included —
  repeated until nothing changes;
* it is an exception.

Everything else is printed with its count.  ``--max N`` turns the report
into a ratchet: a count above ``N`` fails, so an unreached public name must
gain a non-test caller, become private, or go.

Usage::

    PYTHONPATH=src python tools/reachability.py            # report
    PYTHONPATH=src python tools/reachability.py --max 30   # gate (CI)

``--modules`` and ``root`` point the tool at another tree (its tests use a
synthetic one).
"""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

from check_api_surface import PUBLIC_MODULES, REPO

#: the trees whose code counts as a caller; ``tests/`` deliberately not.
CALLER_DIRS = ("src", "benchmarks", "examples", "tools")

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _identifiers(tree: ast.AST) -> set[str]:
    """Every name and attribute used."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _module_file(modname: str) -> Path:
    return Path(importlib.import_module(modname).__file__).resolve()


def _defining_file(modname: str, name: str) -> Path:
    """The file that binds ``name`` at module level, following re-exports."""
    path = _module_file(modname)
    for node in _parse(path).body:
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _defining_file(node.module, alias.name)
    return path


def _annotation_names(obj) -> set[str]:
    """Identifiers in ``obj``'s annotations (strings or live objects)."""
    found: set[str] = set()

    def add(ann) -> None:
        if ann is inspect.Parameter.empty:
            return
        text = ann if isinstance(ann, str) else getattr(ann, "__qualname__", str(ann))
        found.update(_IDENT.findall(text))

    targets = [obj]
    if inspect.isclass(obj):
        for klass in obj.__mro__[:-1]:
            for ann in vars(klass).get("__annotations__", {}).values():
                add(ann)
        targets = [obj.__init__] + [
            getattr(member, "fget", member)
            for attr, member in vars(obj).items()
            if not attr.startswith("_")
        ]
    for target in targets:
        for ann in getattr(target, "__annotations__", {}).values():
            add(ann)
    return found


def unreached(root: Path, modules: list[str]) -> list[tuple[str, str]]:
    """Every unreached (defining module path, name), sorted."""
    sys.path.insert(0, str(root / "src"))
    surface: dict[tuple[Path, str], object] = {}
    for modname in modules:
        mod = importlib.import_module(modname)
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.ismodule(obj) or name.startswith("__"):
                continue
            surface[(_defining_file(modname, name), name)] = obj

    files = sorted(
        p.resolve() for d in CALLER_DIRS if (root / d).is_dir()
        for p in (root / d).rglob("*.py")
    )
    used_in = {path: _identifiers(_parse(path)) for path in files}

    reached = set()
    for (home, name), obj in surface.items():
        if (
            any(name in used for path, used in used_in.items() if path != home)
            or (inspect.isclass(obj) and issubclass(obj, BaseException))
        ):
            reached.add((home, name))

    changed = True
    while changed:
        changed = False
        named = set()
        for key in reached:
            obj = surface[key]
            if callable(obj):
                named |= _annotation_names(obj)
        for key, obj in surface.items():
            if key not in reached and inspect.isclass(obj) and key[1] in named:
                reached.add(key)
                changed = True

    return sorted(
        (str(home.relative_to(root) if home.is_relative_to(root) else home), name)
        for home, name in surface
        if (home, name) not in reached
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max", type=int, default=None,
                    help="fail if more than this many public names are unreached")
    ap.add_argument("--modules", default=",".join(PUBLIC_MODULES),
                    help="comma-separated packages whose __all__ is public")
    ap.add_argument("root", nargs="?", default=str(REPO),
                    help="repository root holding src/ and the caller trees")
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    names = unreached(root, args.modules.split(","))
    for home, name in names:
        print(f"  {name}  ({home})")
    print(f"unreached public names: {len(names)}")
    if args.max is not None and len(names) > args.max:
        print(f"FAIL: above the --max {args.max} ratchet ceiling — give each "
              "name a non-test caller, make it private, or delete it")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
