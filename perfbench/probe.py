"""Measurement helpers shared by the workloads.

Everything here times the library from the outside: spans wrap calls into
public functions, and :meth:`Probe.wrapped` swaps a module attribute for a
timing wrapper only for the duration of a traced run.  Untraced runs never
touch a :class:`Probe`, so end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import math
import random
import resource
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Sequence, Tuple

from repro.perf import ArtifactCache


def derive_seed(seed: int, *tags) -> int:
    """A 32-bit seed that is a pure function of the run seed and *tags*.

    ``random.Random`` seeded with a string hashes it with SHA-512, so the
    result does not depend on ``PYTHONHASHSEED``.
    """
    label = "/".join(str(part) for part in (seed,) + tags)
    return random.Random(label).getrandbits(32)


class Probe:
    """Per-layer busy time (seconds) and work counters for one traced run."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(int)

    @contextmanager
    def span(self, layer: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[layer] += time.perf_counter() - t0

    def count(self, name: str, amount=1) -> None:
        self.counts[name] += amount

    @contextmanager
    def wrapped(self, module, name: str, layer: str):
        """Time every call to ``module.name`` into *layer* while active."""
        original = getattr(module, name)

        def timed_call(*args, **kwargs):
            with self.span(layer):
                return original(*args, **kwargs)

        setattr(module, name, timed_call)
        try:
            yield
        finally:
            setattr(module, name, original)


class TimedCache(ArtifactCache):
    """An :class:`ArtifactCache` that times its public ``lookup``/``put``.

    ``get_or_build`` goes through both, so stage-artifact traffic inside
    the pipeline is timed too.
    """

    def __init__(self, probe: Probe, **kwargs) -> None:
        super().__init__(**kwargs)
        self.probe = probe

    def lookup(self, stage, key_parts, tracer=None):
        with self.probe.span("perf.cache_lookup_s"):
            return super().lookup(stage, key_parts, tracer=tracer)

    def put(self, stage, key_parts, value) -> None:
        with self.probe.span("perf.cache_put_s"):
            super().put(stage, key_parts, value)


def nearest_rank(values: Sequence[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def tail_percentile(values: Sequence[float], min_beyond: int = 10
                    ) -> Tuple[float, float, int]:
    """``(percentile, value, samples)``: the highest of a fixed ladder of
    percentiles that leaves at least *min_beyond* samples above its
    nearest-rank position (the median when none does)."""
    n = len(values)
    for pct in (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0):
        if n - math.ceil(pct / 100.0 * n) >= min_beyond:
            return pct, nearest_rank(values, pct), n
    return 50.0, nearest_rank(values, 50.0), n


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def repeat_until(unit, seconds: float, min_reps: int
                 ) -> Tuple[List[float], object]:
    """Run *unit* at least *min_reps* times and until *seconds* of measured
    time have passed; returns every run's seconds and the last result.

    Each result is dropped before the next run starts, so peak RSS does
    not grow with the number of runs.  A unit that needs more of each run
    records it itself.
    """
    times, result = [], None
    while len(times) < min_reps or sum(times) < seconds:
        result = None
        elapsed, result = timed(unit)
        times.append(elapsed)
    return times, result
