"""Disk–region intersection areas and ε-centrality (Section II-B).

The paper's theoretical foundation rests on the intersection area
``λ(D_i(v, R)) = λ(D(v, R) ∩ D)`` of a disk with the deployment region, and
on the ε-centrality of a point — the average intersection area over an ε-disk
of centres (Definition 1).  Theorems 1–3 assert that skeleton points maximise
both quantities along their chords.

This module computes those quantities numerically so the theory can be
checked directly in tests and in the continuous-domain example:

* :func:`intersection_area` — λ(D_i(v, R)) by quasi-uniform disk sampling,
* :func:`epsilon_centrality` — Definition 1's double integral by averaging
  intersection areas over sampled centres in the ε-disk.

Both use deterministic low-discrepancy (sunflower) sampling so results are
reproducible without seeding.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from .polygon import Field
from .primitives import Point

__all__ = [
    "disk_samples",
    "intersection_area",
    "epsilon_centrality",
    "chord_points",
]

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def disk_samples(center: Point, radius: float, n: int = 512) -> List[Point]:
    """Quasi-uniform "sunflower" samples of the closed disk.

    Vogel's spiral places point *i* at radius ``r√(i/n)`` and angle
    ``i·golden_angle``, giving an even area coverage that converges faster
    than pseudorandom sampling for area estimates.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n <= 0:
        raise ValueError("n must be positive")
    pts = []
    for i in range(n):
        r = radius * math.sqrt((i + 0.5) / n)
        theta = i * _GOLDEN_ANGLE
        pts.append(Point(center.x + r * math.cos(theta), center.y + r * math.sin(theta)))
    return pts


def intersection_area(field: Field, center: Point, radius: float, n: int = 512) -> float:
    """Estimate λ(D_i(center, radius)) — the disk–region intersection area.

    The estimate is ``πR²`` times the fraction of disk samples inside the
    field.  Error shrinks as O(1/n) thanks to the low-discrepancy sampling.
    """
    samples = disk_samples(center, radius, n)
    inside = int(np.count_nonzero(field.contains_points(
        [p.x for p in samples], [p.y for p in samples]
    )))
    return math.pi * radius * radius * inside / n


def epsilon_centrality(
    field: Field,
    center: Point,
    radius: float,
    epsilon: float,
    centers: int = 64,
    samples_per_disk: int = 256,
) -> float:
    """Estimate the ε-centrality C_R^ε(center) of Definition 1.

    Averages ``λ(D_i(v, R))`` over quasi-uniform centre samples ``v`` in the
    ε-disk around *center*.  The paper requires the ε-neighbourhood to lie
    completely inside ``D``; callers violating that simply get the natural
    extension (intersection areas of exterior centres are smaller, which is
    exactly what the discrete analogue experiences near boundaries).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    total = 0.0
    for v in disk_samples(center, epsilon, centers):
        total += intersection_area(field, v, radius, samples_per_disk)
    return total / centers


def chord_points(start: Point, end: Point, count: int) -> List[Point]:
    """Evenly spaced points along the chord from *start* to *end* inclusive.

    Theorems 1–3 compare a skeleton point against other points on the chord
    it generates; this helper produces those comparison points.
    """
    if count < 2:
        raise ValueError("count must be at least 2")
    return [
        Point(
            start.x + (end.x - start.x) * i / (count - 1),
            start.y + (end.y - start.y) * i / (count - 1),
        )
        for i in range(count)
    ]
