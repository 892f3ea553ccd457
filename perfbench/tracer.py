"""Span tracer that wraps lmcgnn functions from outside the package.

`from .kernels import aggregate` binds the function object into the
importing module, so wrapping `kernels.aggregate` alone would miss every
call made through that binding.  `Tracer.install` therefore replaces the
original object under every name that holds it in any loaded `lmcgnn`
module, and `Tracer.uninstall` puts each original back.

A span is `[name, start_ns, end_ns, parent_index]`.  Root spans (set-up,
step, evaluation) are opened by the benchmark with `Tracer.span`; traced
functions nest under whichever span is open when they are called.
"""
from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

PACKAGE = "lmcgnn"


class Tracer:
    def __init__(self, names, probes=None):
        """`names` are functions as `module.func` relative to the package,
        e.g. `kernels.aggregate`.  `probes` maps some of those names to
        `probe(args, kwargs, result) -> {count_name: amount}`; the amounts
        are added to `counts` after the span has closed."""
        self.names = tuple(names)
        self.probes = dict(probes or {})
        self.spans = []
        self.counts = {}
        self.missing = []
        self._stack = []
        self._patches = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        self.missing = []
        for name in self.names:
            modname, _, attr = name.rpartition(".")
            module = sys.modules.get(f"{PACKAGE}.{modname}")
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches = []

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        span = [name, time.perf_counter_ns(), 0,
                self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span) -> None:
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        probe = self.probes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if probe is not None:
                for key, amount in probe(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + amount
            return result

        return traced

    def take_spans(self) -> list:
        """Return the spans recorded since the last call and clear them."""
        if self._stack:
            raise RuntimeError("cannot take spans while one is open")
        spans, self.spans = self.spans, []
        return spans

    def take_counts(self) -> dict:
        """Return the probe counts gathered since the last call and clear
        them."""
        counts, self.counts = self.counts, {}
        return counts


def fold_spans(spans):
    """Per-(root name, span name) totals: calls, ns and self ns.

    Self time is a span's duration minus the durations of its direct
    children.  The root a span belongs to is the outermost span above it.
    Returns ({(root, name): [calls, ns, self_ns]}, {root: count}).
    """
    child_ns = [0] * len(spans)
    root_of = [0] * len(spans)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            root_of[i] = root_of[parent]
        else:
            root_of[i] = i
    totals = {}
    roots = {}
    for i, (name, start, end, parent) in enumerate(spans):
        root = spans[root_of[i]][0]
        if parent < 0:
            roots[root] = roots.get(root, 0) + 1
        row = totals.setdefault((root, name), [0, 0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_ns[i]
    return totals, roots
