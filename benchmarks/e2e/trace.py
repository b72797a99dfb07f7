"""Wall-clock spans recorded from the benchmark's own files.

A :class:`Tracer` temporarily replaces public entry points of ``repro`` with
timing wrappers (``src/`` is never edited) and restores the identical
original objects afterwards.  The benchmark is single-threaded, so one
stack gives every span its parent; a layer's *self* time is a span's
duration minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    """One timed call; ``parent`` indexes :attr:`Tracer.spans` (-1 = root)."""

    name: str
    start: float
    end: float
    parent: int
    iteration: int
    #: layer-specific amount of work (bytes, tasks, groups); 0 when unused.
    work: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder + reversible monkey-patcher."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.iteration = 0
        self._stack: list[int] = []
        #: (owner, attribute, original, had_own_attribute) per patched name.
        self._patched: list[tuple[object, str, object, bool]] = []

    # -------------------------------------------------------------- #
    # recording
    # -------------------------------------------------------------- #
    def timed(self, fn, name: str, work=None):
        """``fn`` wrapped to record one span per call.

        ``work(args, kwargs, result)`` — when given — sizes the call.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.iteration)
            spans.append(span)
            stack.append(idx)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if work is not None:
                span.work = float(work(args, kwargs, result))
            return result

        return wrapper

    # -------------------------------------------------------------- #
    # patching
    # -------------------------------------------------------------- #
    def wrap_attr(self, owner, attr: str, name: str, work=None) -> None:
        """Replace ``owner.attr`` (a class method or module function)."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        setattr(owner, attr, self.timed(original, name, work))
        self._patched.append((owner, attr, original, own))

    def wrap_function(self, fn, name: str, work=None) -> None:
        """Replace a module-level function everywhere ``repro`` bound it.

        ``from m import f`` copies the reference into the importer's
        namespace, so every loaded ``repro`` module holding the identical
        object is rebound to one shared wrapper.
        """
        wrapper = self.timed(fn, name, work)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, fn, True))

    def restore(self) -> None:
        """Put every original object back (identity, not a copy)."""
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) for every live patch."""
        return [(o, a, orig) for o, a, orig, _ in self._patched]


# ------------------------------------------------------------------ #
# analysis + export
# ------------------------------------------------------------------ #
def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the part its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def has_ancestor(spans: list[Span], idx: int, names) -> bool:
    """True when any proper ancestor of ``spans[idx]`` has a name in ``names``."""
    parent = spans[idx].parent
    while parent >= 0:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def write_jsonl(spans: list[Span], path) -> None:
    """One JSON object per span: name, layer, start, end, ids, iteration."""
    with open(path, "w") as fh:
        for idx, s in enumerate(spans):
            fh.write(
                json.dumps(
                    {
                        "name": s.name,
                        "layer": s.layer,
                        "start": s.start,
                        "end": s.end,
                        "span_id": idx,
                        "parent_id": s.parent,
                        "iteration": s.iteration,
                    }
                )
                + "\n"
            )


def write_chrome_trace(spans: list[Span], path) -> None:
    """Chrome-trace JSON (complete events, microseconds), Perfetto-loadable."""
    t0 = min((s.start for s in spans), default=0.0)
    events = [
        {
            "name": s.name,
            "cat": s.layer,
            "ph": "X",
            "ts": (s.start - t0) * 1e6,
            "dur": s.duration * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"span_id": idx, "parent_id": s.parent, "iteration": s.iteration},
        }
        for idx, s in enumerate(spans)
    ]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
