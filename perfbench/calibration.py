"""A fixed reference kernel that measures how fast this core is right now.

A shared host's cores change speed by a third or more over seconds to
minutes (another tenant on the sibling hyperthread, frequency changes), and
CPU time swings with wall time. The benchmark therefore times this kernel
between the benchmark's timed calls, and inside a long call between its
stages, and rescales each piece to the speed the kernel has on a quiet
core:

    normalised_s = measured_s * REFERENCE_S / kernel_s

where kernel_s is the mean of the kernel's times just before and just after
the piece. Pieces of about a second or less follow the host's speed; a
rescaled piece of several seconds does not, as the speed changes inside
it. The kernel is mostly a memory-bound sort, with interpreter loops,
dict and str work and small single-threaded GEMMs. It uses no langxfer
code, so a change to langxfer cannot move it.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np

# the kernel's median time on a quiet core: x86_64, 2 vCPUs, Python 3.11.7,
# numpy 2.4.6 with single-threaded scipy-openblas 0.3.31
REFERENCE_S = 0.050
RUNS = 3
MIN_SEGMENT_S = 0.3

_rng = np.random.default_rng(0)
_GEMM = _rng.random((96, 96))
_SORT = _rng.random(1_000_000)


def _kernel() -> None:
    x = 0
    for i in range(40_000):
        x += i % 7
    for _ in range(120):
        _GEMM @ _GEMM
    for _ in range(6):
        np.sort(_SORT)
    d = {}
    for i in range(20_000):
        d[i] = str(i)


def kernel_seconds() -> float:
    """The kernel's median time of RUNS runs, which skips a one-off interruption."""
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Clock:
    """Times the benchmark's top-level calls and rescales them to the quiet core.

    `tick()` once before the first timed call. Each call runs in its own
    span and is cut into segments: one ends when the call returns and, if
    `marks` names langxfer functions, at the entry of any of them once the
    segment has run MIN_SEGMENT_S. After every segment the kernel is timed
    (in a `bench.calibration` span), and the segment is rescaled by the mean
    of the kernel times just before and just after it; kernel time is never
    part of a segment. A failed call leaves no measurement, so the next
    segment's "before" is older.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.kernel_s: list[float] = []
        self.raw_s: list[float] = []  # every timed call's measured seconds

    def tick(self) -> None:
        with self.tracer.span("bench.calibration"):
            self.kernel_s.append(kernel_seconds())

    def _segment(self, seconds: float) -> float:
        self.tick()
        return seconds * REFERENCE_S / statistics.fmean(self.kernel_s[-2:])

    def __call__(self, span: str, fn, marks: tuple[tuple[object, str], ...] = ()):
        """(fn's result, its seconds at the quiet core's speed).

        `marks` lists (module or class, attribute name) pairs to cut at.
        """
        raw = normalised = 0.0
        start = 0.0

        def cut() -> None:
            nonlocal raw, normalised, start
            seconds = time.perf_counter() - start
            if seconds >= MIN_SEGMENT_S:
                raw += seconds
                normalised += self._segment(seconds)
                start = time.perf_counter()

        with _before_calls(marks, cut), self.tracer.span(span):
            start = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - start
        self.raw_s.append(raw + seconds)
        return result, normalised + self._segment(seconds)


@contextmanager
def _before_calls(marks, hook):
    """Make every call of the named functions run `hook()` first."""
    saved = []
    try:
        for owner, attr in marks:
            orig = vars(owner)[attr]

            def hooked(*args, _orig=orig, **kwargs):
                hook()
                return _orig(*args, **kwargs)

            saved.append((owner, attr, orig))
            setattr(owner, attr, hooked)
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
