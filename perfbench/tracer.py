"""Wrapper-based tracer for the benchmark's traced run.

The tracer changes nothing under ``src/``.  It replaces attributes at the
call sites the package uses (names imported by value are patched in every
module that imported them) with thin wrappers, and restores the originals
on ``uninstall``.

Two kinds of wrapper:

* ``span``: per-request calls.  Each call records name, start, end, the
  enclosing span, the current request id, optional attributes taken from
  the arguments and the result, and the counter deltas accrued while it
  was open.
* ``count``: per-trial calls that run millions of times.  They add to
  aggregate counters (calls, summed seconds, items processed) and record
  no span.

Everything stays in memory until ``dump`` writes it as JSON lines.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: defaultdict = defaultdict(float)
        self.request_id: int | None = None
        self.kernel_depth = 0  # > 0 inside a Monte Carlo kernel call
        self.paused = False  # the benchmark's own checks are not traced
        self._stack: list[int] = []
        self._children: defaultdict = defaultdict(list)
        self._active: set[str] = set()  # counter names with a call in progress
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, describe=None, kernel: bool = False) -> None:
        """Wrap ``owner.attr`` so each call records one span."""
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            return tracer._call_span(name, fn, describe, kernel, args, kwargs)

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str, items=None, kernel_only: bool = False) -> None:
        """Wrap ``owner.attr`` with aggregate counters ``name.calls/.s/.items``.

        ``kernel_only`` counts only calls made inside a kernel span and
        not nested in another counted call of the same name (observables
        compose, e.g. a standardized power form calls the power form).
        """
        fn = getattr(owner, attr)
        counters = self.counters
        active = self._active
        tracer = self
        calls, secs, n_items = name + ".calls", name + ".s", name + ".items"

        def wrapper(*args, **kwargs):
            if tracer.paused or name in active or (kernel_only and tracer.kernel_depth == 0):
                return fn(*args, **kwargs)
            active.add(name)
            t0 = _now()
            try:
                out = fn(*args, **kwargs)
            finally:
                active.discard(name)
            counters[secs] += _now() - t0
            counters[calls] += 1
            if items is not None:
                counters[n_items] += items(args, out)
            return out

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- recording --------------------------------------------------------

    def _call_span(self, name, fn, describe, kernel, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": idx,
            "name": name,
            "start": _now(),
            "end": None,
            "parent": parent,
            "request": self.request_id,
        }
        before = dict(self.counters)
        self.spans.append(rec)
        self._children[parent].append(idx)
        self._stack.append(idx)
        self.kernel_depth += kernel
        try:
            out = fn(*args, **kwargs)
            if describe is not None:
                rec["attrs"] = describe(args, kwargs, out)
            return out
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            self.kernel_depth -= kernel
            self._stack.pop()
            rec["end"] = _now()
            rec["counts"] = {
                k: v - before.get(k, 0.0)
                for k, v in self.counters.items()
                if v != before.get(k, 0.0)
            }

    # -- queries ----------------------------------------------------------

    def named(self, name: str) -> list[dict]:
        """Spans of calls to ``name`` that returned normally."""
        return [s for s in self.spans if s["name"] == name and "error" not in s]

    def children(self, span: dict) -> list[dict]:
        return [self.spans[i] for i in self._children[span["id"]]]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, default=str) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]
