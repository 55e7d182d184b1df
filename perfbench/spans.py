"""A small in-memory span recorder for the benchmark's traced run.

Spans nest on one stack (the benchmark drives every workload on a
single thread).  Each closed span adds its duration to its own name's
total and to its parent's child time, so a layer's *self time* is its
total minus the time its child spans covered.  Nothing is written while
the workload runs; the benchmark reads the aggregates once at the end.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator


class SpanRecorder:
    """Aggregates nested spans by name: calls, total and self time.

    Args:
        clock: nanosecond clock (injectable for tests).
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        # One frame per open span: [name, start_ns, child_ns].
        self._stack: list[list] = []
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        #: Free-standing counts recorded at layer boundaries (rows, evals).
        self.counts: Counter[str] = Counter()
        #: Per-call durations (ns) that a wrapper chose to keep.
        self.samples: defaultdict[str, list[int]] = defaultdict(list)

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    def begin(self, name: str) -> list:
        """Open a span; pass the returned frame to :meth:`end`."""
        frame = [name, self._clock(), 0]
        self._stack.append(frame)
        return frame

    def end(self, frame: list) -> int:
        """Close the innermost span (which must be ``frame``).

        Returns its duration in nanoseconds.
        """
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        self._stack.pop()
        name, start, child = frame
        duration = self._clock() - start
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as one ``name`` span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(frame)

        return traced

    def wrap_generator(self, fn: Callable[..., Iterator], name: str) -> Callable:
        """A generator function whose every resumption is one ``name`` span.

        Only the time spent *inside* the generator counts: whatever the
        consumer does between items runs outside the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    frame = self.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.end(frame)
                    yield item
            finally:
                inner.close()

        return traced

    def seconds(self, name: str, self_time: bool = False) -> float:
        """Total (or self) seconds recorded under ``name``."""
        table = self.self_ns if self_time else self.total_ns
        return table[name] / 1e9
