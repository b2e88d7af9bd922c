"""Spans around the public names that orthogame's modules call through.

The tracer replaces a function by a timing wrapper in every orthogame
module namespace that binds it, so calls made inside the package (for
example `find_equilibria` calling `best_response_bob`) are recorded as
well as the benchmark's own calls.  Each span has a name, start, end,
parent span and operation id.  Per-name totals (calls, inclusive time,
self time) cover every span; raw spans are kept in memory for the first
`keep_ops` operations only, so a long run stays small, and are written
out by `dump` when the run ends.

Self time is a span's duration minus the time its child spans cover;
calls are single-threaded and nested, so that is the sum of the direct
children's durations.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# (module, attribute) pairs wrapped by the tracer; the span name is
# "<module>.<attribute>".
TRACED = (
    ("equilibrium", "find_equilibria"),
    ("equilibrium", "best_response_alice"),
    ("equilibrium", "best_response_bob"),
    ("equilibrium", "verify_equilibrium"),
    ("equilibrium", "reaction_curves"),
    ("quantum", "payoff_grid"),
    ("quantum", "amplitudes"),
    ("quantum", "payoff_closed_form"),
    ("quantum", "payoff_operator"),
    ("quantum", "expectation"),
    ("angles", "signed_delta"),
    ("angles", "wrap_half_turn"),
    ("angles", "wrapped_distance"),
    ("golden", "run_example"),
    ("classical", "solve_closed_form"),
    ("classical", "verify_nash"),
    ("lattice", "audit_laws"),
)


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Records spans while `active`; `op` marks one benchmark operation."""

    def __init__(self, keep_ops: int = 3):
        self.keep_ops = keep_ops
        self.active = False
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.ops = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    def _enter(self):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, parent, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame):
        end = time.perf_counter()
        self._stack.pop()
        span_id, parent, child_time, start = frame
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        st.calls += 1
        st.total += dur
        st.self_time += dur - child_time
        if self._stack:
            self._stack[-1][2] += dur
        if self.ops <= self.keep_ops:
            self.spans.append((span_id, parent, self.ops, name, start, end))

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    @contextmanager
    def op(self):
        """One benchmark operation: the root span of everything under it."""
        self.ops += 1
        self.active = True
        frame = self._enter()
        try:
            yield
        finally:
            self._exit("op", frame)
            self.active = False

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame)
            if hook is not None:
                hook(self, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self, hooks: dict) -> None:
        """Wrap every TRACED name in each orthogame module that binds it."""
        import orthogame
        modules = [m for n, m in sys.modules.items()
                   if n == "orthogame" or n.startswith("orthogame.")]
        for mod_name, attr in TRACED:
            original = getattr(getattr(orthogame, mod_name), attr)
            name = f"{mod_name}.{attr}"
            wrapper = self._wrap(name, original, hooks.get(name))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def dump(self, path) -> None:
        """Write the kept spans as JSON lines, times in seconds."""
        with open(path, "w") as fh:
            for span_id, parent, op_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op_id,
                                     "name": name, "start": start, "end": end}) + "\n")
