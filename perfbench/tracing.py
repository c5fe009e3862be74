"""In-memory span tracing of impactreg, applied from outside the package.

A :class:`Tracer` wraps public functions of the package's modules.  Each
call becomes a span (name, start, end, parent span, op id, call number);
spans stay in memory and are written out as JSON lines once the run
ends.  Nothing under ``src/`` is edited: :func:`patched` rebinds every
name in every loaded ``impactreg`` module that refers to a wrapped
function, which also reaches the names modules imported from each other
(``from .regression import fit_ols``), and restores them on exit.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "parent", "op", "call", "start", "end",
                 "attrs")

    def __init__(self, id, name, parent, op, call, start):
        self.id = id
        self.name = name
        self.parent = parent
        self.op = op
        self.call = call
        self.start = start
        self.end = None
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    def as_dict(self):
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "op": self.op, "call": self.call, "start": self.start,
                "end": self.end, **self.attrs}


class Tracer:
    """Records nested spans in one thread.

    ``op`` is the id of the unit of work in progress (a replication index,
    replayable with ``generate_dataset(config, op)``, or a request number);
    ``call`` numbers the benchmark's traced calls, since replication
    indices repeat from one study to the next.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = None
        self.call = None

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, self.op, self.call,
                    self.clock())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def finish(self, span):
        span.end = self.clock()
        popped = self._stack.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.finish(s)

    def wrap(self, name, fn, on_call=None, on_return=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``on_call(tracer, args, kwargs)`` runs before the span opens (to set
        the op id); ``on_return(span, args, result)`` annotates the span.
        """
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            s = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(s)
            if on_return is not None:
                on_return(s, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def write_jsonl(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s.as_dict(), sort_keys=True) + "\n")


@contextmanager
def patched(tracer, targets, package="impactreg"):
    """Wrap ``(span name, module, attribute, on_call, on_return)`` targets.

    Every binding of the original function in a loaded module of
    ``package`` is replaced, and all are restored on exit.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package
                                     or name.startswith(package + "."))]
    saved = []
    try:
        for name, module, attr, on_call, on_return in targets:
            original = getattr(module, attr)
            wrapper = tracer.wrap(name, original, on_call, on_return)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        saved.append((mod, key, original))
        yield
    finally:
        for mod, key, original in reversed(saved):
            setattr(mod, key, original)


def self_times(spans):
    """Map span id -> duration minus the part of it that child spans cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = s.duration - covered
    return out


def tail(samples, beyond=10):
    """(percentile, value): the highest percentile with ``beyond`` samples
    above it, by nearest rank.

    When no percentile above p50 leaves that many samples beyond it (fewer
    than 21 samples), the median is reported as p50.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    for pct in range(99, 50, -1):
        rank = -(-pct * n // 100)  # ceil(pct * n / 100)
        if n - rank >= beyond:
            return pct, xs[rank - 1]
    return 50, statistics.median(xs)
