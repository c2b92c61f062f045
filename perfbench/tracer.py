"""In-memory spans around the program's layer entry points.

The benchmark never edits the program: :class:`Tracer` replaces a
module or class attribute (a function or method the program looks up at
call time) with a wrapper that records one span per call and restores
the original on :meth:`Tracer.close`.  A span is ``[name, start, end,
parent, thread, request]``; ``parent`` is the enclosing span on the same
thread and ``request`` is the request id tuple of the serving batch the
span belongs to (inherited from the parent when the hook names none).
Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, THREAD, REQUEST = range(6)


class Tracer:
    """Records spans from hooked entry points; one per traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.missing: List[str] = []
        self._local = threading.local()
        self._restore: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, request) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[REQUEST]
        span = [name, time.perf_counter(), 0.0, parent,
                threading.get_ident(), request]
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, request=None):
        """A span around a block of the benchmark's own code."""
        span = self._open(name, request)
        try:
            yield span
        finally:
            self._close(span)

    def hook(self, owner, attr: str, name: str,
             request_of: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` so every call records a span ``name``.

        ``request_of(args, kwargs)`` names the request ids of the call.
        A missing attribute is reported on stderr and skipped, so a
        renamed entry point reads as an unhooked layer, not a crash.
        """
        original = getattr(owner, attr, None)
        if not callable(original):
            label = getattr(owner, "__name__", repr(owner))
            self.missing.append(f"{label}.{attr}")
            print(f"[perfbench] cannot hook {label}.{attr}: not found",
                  file=sys.stderr)
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            request = request_of(args, kwargs) if request_of else None
            span = tracer._open(name, request)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(span)

        self._restore.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, traced)

    def close(self) -> None:
        """Put every hooked attribute back (in reverse hook order)."""
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def layer_table(self, t0: float, t1: float) -> Dict[str, dict]:
        """Per span name: calls, busy (outermost spans only) and self
        time, over spans that start inside ``[t0, t1]``."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            parent = span[PARENT]
            if parent is not None:
                key = id(parent)
                child_time[key] = (child_time.get(key, 0.0)
                                   + span[END] - span[START])
        table: Dict[str, dict] = {}
        for span in self.spans:
            if not t0 <= span[START] <= t1:
                continue
            row = table.setdefault(span[NAME],
                                   {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            duration = span[END] - span[START]
            row["calls"] += 1
            row["self_s"] += duration - child_time.get(id(span), 0.0)
            if not _nested_in_same(span):
                row["busy_s"] += duration
        return table

    def unattributed_share(self, t0: float, t1: float) -> float:
        """Share of ``[t0, t1]`` that no span on any thread covers."""
        intervals = sorted((max(s[START], t0), min(s[END], t1))
                           for s in self.spans
                           if s[END] > t0 and s[START] < t1)
        covered = 0.0
        cur_start = cur_end = None
        for start, end in intervals:
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        wall = t1 - t0
        return max(0.0, 1.0 - covered / wall) if wall > 0 else 0.0

    def dump(self, path, t0: float) -> None:
        """Write every span (times relative to ``t0``) as JSON."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        threads: Dict[int, int] = {}
        rows = []
        for span in self.spans:
            parent = span[PARENT]
            rows.append({
                "name": span[NAME],
                "start": span[START] - t0,
                "end": span[END] - t0,
                "parent": index[id(parent)] if parent is not None else None,
                "thread": threads.setdefault(span[THREAD], len(threads)),
                "request": list(span[REQUEST]) if span[REQUEST] else None,
            })
        with open(path, "w") as fh:
            json.dump({"spans": rows, "unhooked": self.missing}, fh)


def _nested_in_same(span: list) -> bool:
    parent = span[PARENT]
    while parent is not None:
        if parent[NAME] == span[NAME]:
            return True
        parent = parent[PARENT]
    return False


def format_layer_table(table: Dict[str, dict], wall: float,
                       unattributed: float) -> str:
    """The human-readable per-layer table (stderr)."""
    lines = [f"{'layer':32s} {'calls':>8s} {'busy s':>9s} {'self s':>9s} "
             f"{'busy %':>7s}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["busy_s"]):
        share = 100.0 * row["busy_s"] / wall if wall > 0 else 0.0
        lines.append(f"{name:32s} {row['calls']:8d} {row['busy_s']:9.3f} "
                     f"{row['self_s']:9.3f} {share:7.1f}")
    lines.append(f"{'(no span)':32s} {'':8s} {'':9s} {'':9s} "
                 f"{100.0 * unattributed:7.1f}")
    return "\n".join(lines)
