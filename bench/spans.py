"""Span tracing of banglab's public functions, installed from outside.

`Tracer.patch(module, name, key)` replaces the function that `module` looks
up as `name` with a wrapper that records one span per call: its function
key (`layer.function`), start, end, parent span and the benchmark item it
belongs to.  Patching the caller's binding, not the defining module, keeps
recursive calls inside a function out of the trace.  Spans live in flat
arrays until the round ends; `layer_metrics` then derives counts, inclusive
times and each layer's self time (a span's duration minus the part of it
its child spans cover).
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

LAYERS = ("syntax", "reduction", "typesys", "inhabitation", "meaning", "cbnv", "bench")
ITEM = "bench.item"


class Tracer:
    def __init__(self):
        self.keys: list[str] = []
        self._code: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.fn = array("l")
        self.item = array("q")
        self.outermost = array("b")   # no enclosing span of the same function
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.item_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _code_of(self, key: str) -> int:
        if key not in self._code:
            self._code[key] = len(self.keys)
            self.keys.append(key)
            self._depth.append(0)
        return self._code[key]

    def _open(self, code: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.fn.append(code)
        self.item.append(self.item_id)
        self.outermost.append(self._depth[code] == 0)
        self._depth[code] += 1
        self._stack.append(sid)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int, code: int):
        self.end[sid] = time.perf_counter()
        self._depth[code] -= 1
        self._stack.pop()

    def wrap(self, fn, key: str, on_result=None):
        """`fn` recording a span per call; `on_result(args, result)` runs
        after the span closes."""
        code = self._code_of(key)

        def traced(*args, **kwargs):
            sid = self._open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, code)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def wrap_generator(self, fn, key: str):
        """`fn` returning a generator: one span per `next()`, so the span
        covers the work of producing each element, not the consumer's."""
        code = self._code_of(key)

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def spans():
                while True:
                    sid = self._open(code)
                    try:
                        element = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(sid, code)
                    self.counts[key + ".yielded"] += 1
                    yield element

            return spans()

        return traced

    def patch(self, module, name: str, key: str, on_result=None, generator=False):
        original = getattr(module, name)
        wrapped = (self.wrap_generator(original, key) if generator
                   else self.wrap(original, key, on_result))
        setattr(module, name, wrapped)
        self._patches.append((module, name, original))

    def restore(self):
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    # -- writing and deriving ----------------------------------------------

    def write(self, path):
        """One line per span: id, parent, item, function, start and end (s)."""
        with open(path, "w") as f:
            f.write("span\tparent\titem\tfunction\tstart_s\tend_s\n")
            for sid in range(len(self.start)):
                f.write(f"{sid}\t{self.parent[sid]}\t{self.item[sid]}\t"
                        f"{self.keys[self.fn[sid]]}\t{self.start[sid]:.9f}\t"
                        f"{self.end[sid]:.9f}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Calls and inclusive time per function key (outermost spans only,
        so a function nested in itself is not counted twice) and self time
        per layer."""
        n = len(self.start)
        covered = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                covered[p] += self.end[sid] - self.start[sid]
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for sid in range(n):
            key = self.keys[self.fn[sid]]
            duration = self.end[sid] - self.start[sid]
            calls[key] += 1
            if self.outermost[sid]:
                inclusive[key] += duration
            own[key.split(".", 1)[0]] += duration - covered[sid]
        out = {f"{layer}.self_s": s for layer, s in own.items()}
        out.update({f"{k}.calls": c for k, c in calls.items()})
        out.update({f"{k}.s": s for k, s in inclusive.items()})
        out["trace.spans"] = n
        return out
