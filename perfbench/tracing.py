"""In-memory span tracer that times ffcac's layers from outside the program.

A wrap point replaces a module (or class) attribute with a timing wrapper.
It must be the attribute the caller looks up: ``sessions`` imports
``load_wav`` by name, so the frontend is wrapped as ``sessions.load_wav``;
``encoder`` calls ``ad.matmul`` through the module, so autodiff ops are
wrapped on ``autodiff``. ``restore()`` puts every original back.

Two kinds of wrapper:

* span: one record per call (id, name, start, end, parent, run id, self
  seconds, info, ok). Self time is the duration minus the time covered by
  child calls; calls on one thread nest, so children never overlap.
* leaf: calls, time and per-scope call counts aggregated by name, with no
  record per call. Autodiff ops run hundreds of thousands of times per
  protocol run, so per-call records would dominate memory and overhead.
  A leaf's time still counts as child time of the enclosing span. Leaves
  must not call other wrapped functions (autodiff ops do not).

Recording happens only while ``recording`` is true, so the benchmark's own
output checks, which call the same public functions, stay out of the trace.
Wrappers read the time from ``clock``, as it is when they are installed.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.leaves = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.scope_calls = defaultdict(int)  # scope -> leaf calls made inside it
        self.run_id = 0
        self.recording = False
        self.clock = time.perf_counter
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self._scopes: list[str] = []
        self._patched: list[tuple] = []
        self._next_id = 0

    # -- installing wrappers ------------------------------------------------

    def _patch(self, owner, attr: str, make):
        fn = getattr(owner, attr)  # a wrap point that has gone raises
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    def span(self, owner, attr: str, name: str, *, scope: str | None = None, info=None):
        """Wrap ``owner.attr`` as a span named ``name``.

        ``scope`` names a region whose leaf calls are counted; ``info(args,
        result)`` returns a number stored with the span (clips, bytes).
        """
        clock, stack, scopes, spans = self.clock, self._stack, self._scopes, self.spans

        def make(fn):
            def wrapper(*args, **kwargs):
                if not self.recording:
                    return fn(*args, **kwargs)
                sid = self._next_id
                self._next_id += 1
                parent = stack[-1][0] if stack else None
                frame = [sid, 0.0]
                stack.append(frame)
                if scope:
                    scopes.append(scope)
                ok, value = False, 0
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    ok = True
                finally:
                    end = clock()
                    if scope:
                        scopes.pop()
                    stack.pop()
                    dur = end - start
                    if stack:
                        stack[-1][1] += dur
                    if ok and info is not None:
                        value = info(args, result)
                    spans.append((sid, name, start, end, parent, self.run_id,
                                  dur - frame[1], value, ok))
                return result

            return wrapper

        self._patch(owner, attr, make)

    def leaf(self, owner, attr: str, name: str):
        """Wrap ``owner.attr`` as an aggregated leaf named ``name``."""
        clock, stack, scopes, scope_calls = (
            self.clock, self._stack, self._scopes, self.scope_calls)
        stat = self.leaves[name]

        def make(fn):
            def wrapper(*args, **kwargs):
                if not self.recording:
                    return fn(*args, **kwargs)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stat[0] += 1
                    stat[1] += dur
                    if stack:
                        stack[-1][1] += dur
                    for s in scopes:
                        scope_calls[s] += 1

            return wrapper

        self._patch(owner, attr, make)

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    @contextlib.contextmanager
    def paused(self):
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    # -- reading the trace --------------------------------------------------

    def spans_of(self, run_ids) -> list[tuple]:
        run_ids = set(run_ids)
        return [s for s in self.spans if s[5] in run_ids]

    def write_jsonl(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "run", "self_s", "info", "ok")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")
            for name, (calls, seconds) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": name, "calls": calls, "seconds": seconds}) + "\n")
            for scope, calls in sorted(self.scope_calls.items()):
                fh.write(json.dumps({"scope": scope, "leaf_calls": calls}) + "\n")


def under(spans: list[tuple], ancestor: str) -> set[int]:
    """Ids of the spans that have a span named ``ancestor`` above them."""
    by_id = {s[0]: s for s in spans}
    memo: dict[int, bool] = {}

    def inside(sid: int) -> bool:
        if sid not in memo:
            parent = by_id.get(by_id[sid][4])
            memo[sid] = parent is not None and (parent[1] == ancestor or inside(parent[0]))
        return memo[sid]

    return {s[0] for s in spans if inside(s[0])}
