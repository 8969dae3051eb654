"""In-memory spans around the benchmark's calls into imuclr.

A span is (name, start, end, parent index). Spans stay in a list while the
run lasts and are written once, as JSON, when it ends. A layer's self time
is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    """Span recorder; a disabled tracer records nothing and costs one call."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent]
        self._open = []

    @contextlib.contextmanager
    def _span(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def span(self, name):
        """Context manager yielding the span's index, or None when disabled."""
        return self._span(name) if self.enabled else contextlib.nullcontext()

    def record(self, name, start, end, parent):
        """Add a span measured by other means (for example a backward segment)."""
        self.spans.append([name, start, end, parent])

    def self_times(self):
        """Per span index: duration minus the durations of its direct children."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def durations(self, root):
        """{name: summed duration} over the spans below span `root`, root included."""
        inside = {root}
        out = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if i == root or parent in inside:
                inside.add(i)
                out[name] += end - start
        return out

    def write(self, path):
        self_times = self.self_times()
        rows = [
            {"name": name, "start": start, "end": end, "parent": parent, "self": self_time}
            for (name, start, end, parent), self_time in zip(self.spans, self_times)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)
            fh.write("\n")

    def self_time_table(self):
        """{name: (summed self time, count)} over every span."""
        out = defaultdict(lambda: [0.0, 0])
        for (name, *_), self_time in zip(self.spans, self.self_times()):
            out[name][0] += self_time
            out[name][1] += 1
        return dict(out)


@contextlib.contextmanager
def op_spans(tracer, module, names):
    """Route module.<name> calls through forward spans while the block runs.

    Each routed op's output gets its backward closure wrapped so that the
    moment it starts is recorded. Yields a BackwardMarks that turns those
    moments into backward segments once loss.backward() has returned. Names
    the module no longer has are skipped; their metrics are then absent.
    """
    marks = BackwardMarks()
    originals = {name: getattr(module, name) for name in names if hasattr(module, name)}

    def routed(name, fn):
        def call(*args, **kwargs):
            with tracer.span(f"autodiff.{name}.fwd"):
                out = fn(*args, **kwargs)
            backward = getattr(out, "_backward", None)
            if backward is not None:

                def timed_backward(grad):
                    marks.starts.append((time.perf_counter(), name))
                    backward(grad)

                out._backward = timed_backward
            return out

        return call

    for name, fn in originals.items():
        setattr(module, name, routed(name, fn))
    try:
        yield marks
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


class BackwardMarks:
    """Start times of routed ops' backward closures, in the order they ran."""

    def __init__(self):
        self.starts = []

    def flush(self, tracer, parent, end):
        """Record one autodiff.<op>.bwd span per mark, each ending where the next begins.

        The encoder is a chain, so between one routed op's backward and the
        next run only the nodes that op created; the segment is its backward.
        """
        starts = sorted(self.starts)
        for (start, name), (stop, _) in zip(starts, starts[1:] + [(end, None)]):
            tracer.record(f"autodiff.{name}.bwd", start, stop, parent)
        self.starts.clear()
