"""Polygonal deployment fields with holes.

The paper deploys sensors inside irregular 2-D regions — possibly with holes
(obstacles) — and all of its theory is phrased against a bounded open set
``D`` with boundary ``∂D``.  :class:`Field` models such a region as one outer
simple polygon plus zero or more hole polygons, and provides the geometric
queries the rest of the library needs:

* membership (point-in-region, respecting holes), per point or for a
  numpy batch of points,
* distance to the boundary ``∂D`` (the Euclidean distance transform used by
  Theorems 1–3 and the medial-axis ground truth),
* uniform random sampling (sensor deployment),
* boundary sampling (for the ground-truth medial axis and for grading the
  boundary by-product).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .primitives import (
    BoundingBox,
    Point,
    point_segment_distance,
    polygon_centroid,
    polygon_signed_area,
)

__all__ = ["Ring", "Field"]

# Points closer than this to a ring edge skip the batch kernel and take the
# scalar test, whose own boundary tolerance is 1e-9.
_NEAR_EDGE = 1e-6
# Point x edge cells per numpy block in the batch kernel.
_BLOCK_CELLS = 1 << 16


class Ring:
    """A simple closed polygon, stored as an ordered vertex list.

    The ring does not close itself textually — the edge from the last vertex
    back to the first is implicit.  Orientation is normalised on demand via
    :meth:`oriented`.
    """

    def __init__(self, vertices: Sequence[Point]):
        if len(vertices) < 3:
            raise ValueError("a ring needs at least 3 vertices")
        self.vertices: List[Point] = list(vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    @property
    def signed_area(self) -> float:
        return polygon_signed_area(self.vertices)

    @property
    def area(self) -> float:
        return abs(self.signed_area)

    @property
    def centroid(self) -> Point:
        return polygon_centroid(self.vertices)

    @property
    def perimeter(self) -> float:
        total = 0.0
        n = len(self.vertices)
        for i in range(n):
            total += self.vertices[i].distance_to(self.vertices[(i + 1) % n])
        return total

    def edges(self) -> List[Tuple[Point, Point]]:
        """All edges as (start, end) pairs, including the closing edge."""
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    def oriented(self, counter_clockwise: bool = True) -> "Ring":
        """Return a copy with the requested orientation."""
        ccw = self.signed_area > 0
        if ccw == counter_clockwise:
            return Ring(self.vertices)
        return Ring(list(reversed(self.vertices)))

    def bounding_box(self) -> BoundingBox:
        return BoundingBox.of_points(self.vertices)

    def contains(self, p: Point) -> bool:
        """Even-odd point-in-polygon test (boundary points count as inside)."""
        inside = False
        n = len(self.vertices)
        j = n - 1
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[j]
            if (a.y > p.y) != (b.y > p.y):
                x_cross = (b.x - a.x) * (p.y - a.y) / (b.y - a.y) + a.x
                if p.x < x_cross:
                    inside = not inside
            j = i
        return inside or self.distance_to_boundary(p) < 1e-9

    def _parity_and_near(self, xs: np.ndarray,
                         ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Batch form of :meth:`contains`' crossing loop, plus a near flag.

        The parity repeats the scalar crossing formula operation for
        operation, so it matches :meth:`contains` bit for bit wherever the
        boundary tolerance does not decide; ``near`` marks the points within
        ``_NEAR_EDGE`` of an edge, where it may.
        """
        ax = np.array([v.x for v in self.vertices], dtype=float)
        ay = np.array([v.y for v in self.vertices], dtype=float)
        bx, by = np.roll(ax, 1), np.roll(ay, 1)  # edge i runs from i - 1 to i
        dx, dy = bx - ax, by - ay
        length_sq = dx * dx + dy * dy
        length_sq[length_sq == 0.0] = 1.0  # a zero-length edge: t = 0
        parity = np.zeros(len(xs), dtype=bool)
        near = np.zeros(len(xs), dtype=bool)
        step = max(1, _BLOCK_CELLS // len(ax))
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo in range(0, len(xs), step):
                px = xs[lo:lo + step, None]
                py = ys[lo:lo + step, None]
                straddles = (ay > py) != (by > py)
                x_cross = dx * (py - ay) / dy + ax
                parity[lo:lo + step] = (
                    np.count_nonzero(straddles & (px < x_cross), axis=1) & 1
                ).astype(bool)
                t = np.clip(((px - ax) * dx + (py - ay) * dy) / length_sq, 0.0, 1.0)
                gap_x = px - (ax + t * dx)
                gap_y = py - (ay + t * dy)
                near[lo:lo + step] = (
                    gap_x * gap_x + gap_y * gap_y < _NEAR_EDGE * _NEAR_EDGE
                ).any(axis=1)
        return parity, near

    def distance_to_boundary(self, p: Point) -> float:
        """Shortest distance from *p* to any edge of the ring."""
        return min(point_segment_distance(p, a, b) for a, b in self.edges())

    def sample_boundary(self, spacing: float) -> List[Point]:
        """Sample points along the ring roughly *spacing* apart.

        Every vertex is included; each edge is subdivided evenly so the gap
        between consecutive samples never exceeds *spacing*.
        """
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        samples: List[Point] = []
        for a, b in self.edges():
            length = a.distance_to(b)
            steps = max(1, int(math.ceil(length / spacing)))
            for s in range(steps):
                t = s / steps
                samples.append(Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t))
        return samples

    def scaled(self, factor: float, about: Optional[Point] = None) -> "Ring":
        """Return a copy scaled by *factor* about *about* (default centroid)."""
        c = about if about is not None else self.centroid
        return Ring(
            [Point(c.x + (v.x - c.x) * factor, c.y + (v.y - c.y) * factor) for v in self.vertices]
        )

    def translated(self, dx: float, dy: float) -> "Ring":
        return Ring([Point(v.x + dx, v.y + dy) for v in self.vertices])


@dataclass
class Field:
    """A bounded deployment region: an outer ring minus hole rings.

    This is the discrete stand-in for the paper's bounded open set ``D``;
    ``∂D`` is the union of the outer ring and all hole rings.
    """

    outer: Ring
    holes: List[Ring] = field(default_factory=list)
    name: str = "field"

    def __post_init__(self) -> None:
        self.outer = self.outer.oriented(counter_clockwise=True)
        self.holes = [h.oriented(counter_clockwise=False) for h in self.holes]

    # -- basic measures -------------------------------------------------

    @property
    def area(self) -> float:
        """Area of the region (outer area minus hole areas)."""
        return self.outer.area - sum(h.area for h in self.holes)

    @property
    def num_holes(self) -> int:
        return len(self.holes)

    def bounding_box(self) -> BoundingBox:
        return self.outer.bounding_box()

    def rings(self) -> List[Ring]:
        """All boundary rings, outer first."""
        return [self.outer] + list(self.holes)

    # -- membership and distances ---------------------------------------

    def contains(self, p: Point) -> bool:
        """True when *p* lies inside the region (and outside every hole)."""
        if not self.outer.contains(p):
            return False
        for hole in self.holes:
            if hole.contains(p) and hole.distance_to_boundary(p) > 1e-9:
                return False
        return True

    def contains_points(self, xs, ys) -> np.ndarray:
        """:meth:`contains` for a batch of points, as a boolean array.

        Away from the boundary the answer is the outer ring's crossing
        parity with every hole's parity removed; points within
        ``_NEAR_EDGE`` of any ring edge take the scalar :meth:`contains`,
        so every answer equals the scalar one.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        inside, near = self.outer._parity_and_near(xs, ys)
        for hole in self.holes:
            in_hole, near_hole = hole._parity_and_near(xs, ys)
            inside &= ~in_hole
            near |= near_hole
        for i in np.flatnonzero(near):
            inside[i] = self.contains(Point(float(xs[i]), float(ys[i])))
        return inside

    def distance_to_boundary(self, p: Point) -> float:
        """Distance from *p* to ``∂D`` — the Euclidean distance transform.

        Defined for any point; callers normally pass interior points.
        """
        return min(r.distance_to_boundary(p) for r in self.rings())

    def clearance(self, p: Point) -> float:
        """Radius of the largest disk centred at *p* inside the region.

        Zero for points outside the region.
        """
        if not self.contains(p):
            return 0.0
        return self.distance_to_boundary(p)

    # -- sampling --------------------------------------------------------

    def sample_boundary(self, spacing: float) -> List[Point]:
        """Samples along every boundary ring, roughly *spacing* apart."""
        samples: List[Point] = []
        for ring in self.rings():
            samples.extend(ring.sample_boundary(spacing))
        return samples

    def sample_uniform(self, n: int, rng: Optional[random.Random] = None) -> List[Point]:
        """Draw *n* points uniformly at random inside the region.

        Uses rejection sampling from the bounding box, matching the paper's
        "nodes are deployed uniformly at random in the field" assumption.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        rng = rng if rng is not None else random.Random()
        box = self.bounding_box()
        if box.area <= 0:
            raise ValueError("field bounding box has zero area")
        points: List[Point] = []
        attempts = 0
        max_attempts = max(10_000, 1000 * n)
        while len(points) < n:
            if attempts >= max_attempts:
                raise RuntimeError(
                    f"rejection sampling failed after {attempts + 1} attempts; "
                    "is the field area vanishingly small?"
                )
            # A batch never holds more candidates than points still missing,
            # so the draws (and the rng state afterwards) are exactly those
            # of testing one candidate at a time.
            batch = min(n - len(points), max_attempts - attempts)
            attempts += batch
            xs, ys = [], []
            for _ in range(batch):
                xs.append(rng.uniform(box.min_x, box.max_x))
                ys.append(rng.uniform(box.min_y, box.max_y))
            for i in np.flatnonzero(self.contains_points(xs, ys)):
                points.append(Point(xs[i], ys[i]))
        return points

    def sample_grid(self, spacing: float, jitter: float = 0.0,
                    rng: Optional[random.Random] = None) -> List[Point]:
        """Sample the region on a grid with optional uniform jitter.

        A perturbed grid is a common low-discrepancy stand-in for uniform
        deployment; it produces the steadier node densities seen in the
        paper's figures.
        """
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        rng = rng if rng is not None else random.Random()
        box = self.bounding_box()
        points: List[Point] = []
        y = box.min_y + spacing / 2
        while y <= box.max_y:
            x = box.min_x + spacing / 2
            while x <= box.max_x:
                px = x + (rng.uniform(-jitter, jitter) if jitter else 0.0)
                py = y + (rng.uniform(-jitter, jitter) if jitter else 0.0)
                p = Point(px, py)
                if self.contains(p):
                    points.append(p)
                x += spacing
            y += spacing
        return points

    # -- transformations --------------------------------------------------

    def scaled(self, factor: float) -> "Field":
        """Return a copy scaled by *factor* about the outer centroid."""
        c = self.outer.centroid
        return Field(
            outer=self.outer.scaled(factor, about=c),
            holes=[h.scaled(factor, about=c) for h in self.holes],
            name=self.name,
        )

    def is_boundary_point(self, p: Point, tolerance: float) -> bool:
        """True when *p* lies within *tolerance* of ``∂D``."""
        return self.distance_to_boundary(p) <= tolerance
