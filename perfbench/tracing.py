"""In-memory spans around calls into the library's public functions.

The tracer wraps every public function of superpatterns.patterns, .dfa,
.walks and .bounds, plus superpatterns.cli.main, and rebinds the wrapper
in every library namespace that holds the function. Calls the library
makes to its own public functions therefore nest as child spans, and a
layer's self time is its spans' time minus their children's. Nothing in
the library changes; uninstall() restores the originals.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

# Coercion and text helpers run inside nearly every call; spans there would
# cost more than the work they time.
UNTRACED = {"as_word", "as_permutation", "parse_word", "format_word", "parse_permutation", "format_permutation"}


class Tracer:
    def __init__(self, lib):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op id]
        self.op = None
        self._stack: list[int] = []
        self._namespaces = [lib.package, lib.patterns, lib.dfa, lib.walks, lib.bounds, lib.cli]
        wrapped = {}
        for mod in (lib.patterns, lib.dfa, lib.walks, lib.bounds):
            layer = mod.__name__.rsplit(".", 1)[1]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and name not in UNTRACED:
                    wrapped[fn] = self._wrap(fn, f"{layer}.{name}")
        wrapped[lib.cli.main] = self._wrap(lib.cli.main, "cli.main")
        self._wrapped = wrapped
        self._saved: list[tuple] = []

    def _wrap(self, fn, name: str):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter_ns(), 0, stack[-1] if stack else None, tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()

        return traced

    def begin(self, name: str, op) -> list:
        """Open an op's root span; library spans inside it become children."""
        self.op = op
        rec = [name, time.perf_counter_ns(), 0, None, op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()
        self.op = None

    def install(self) -> None:
        for ns in self._namespaces:
            for attr, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val in self._wrapped:
                    self._saved.append((ns, attr, val))
                    setattr(ns, attr, self._wrapped[val])

    def uninstall(self) -> None:
        for ns, attr, val in reversed(self._saved):
            setattr(ns, attr, val)
        self._saved.clear()


def self_times(spans) -> list[float]:
    """Self seconds of each span: its duration minus its children's."""
    own = [(s[2] - s[1]) / 1e9 for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= (s[2] - s[1]) / 1e9
    return own


def summarize(spans, ops) -> dict:
    """Self seconds and call counts per span name, over the spans of the
    given op ids."""
    own = self_times(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    for s, t in zip(spans, own):
        if s[4] in ops:
            total[s[0]] += t
            calls[s[0]] += 1
    return {"self_s": dict(total), "calls": dict(calls)}
