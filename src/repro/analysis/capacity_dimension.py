"""Largest capacity dimension estimation (Appendix A).

The oracle's complexity bounds are parameterised by β, the *largest
capacity dimension* of the POI set under the geodesic metric:

    β = max over balls B(p, r) of
        0.5 * log2( M(r/2, B(p, r)) / M(2r, B(p, r)) )

where ``M(r, S)`` is the r-packing number of ``S`` (the maximum size of
an r-separated subset).  Appendix A argues ``M(2r, B(p, r)) = 2`` and
measures β in [1.3, 1.5] on the benchmark terrains; we estimate packing
numbers with the standard greedy 2-approximation (greedy maximal
r-separated subsets), evaluated over sampled centres and a radius
ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..geodesic.engine import GeodesicEngine, PoiRow

__all__ = ["CapacityDimensionEstimate", "greedy_packing_number",
           "estimate_capacity_dimension"]


@dataclass
class CapacityDimensionEstimate:
    """Result of :func:`estimate_capacity_dimension`."""

    beta: float                       # the max over all probed balls
    per_ball: List[float]             # individual ball dimensions
    num_balls: int
    radii_probed: int

    def summary(self) -> str:
        if not self.per_ball:
            return "no balls probed"
        mean = sum(self.per_ball) / len(self.per_ball)
        return (f"beta={self.beta:.2f} (mean ball dimension {mean:.2f}, "
                f"{self.num_balls} balls)")


def greedy_packing_number(distance_of: Dict[int, float],
                          pairwise: Dict[int, Dict[int, float]],
                          members: Sequence[int],
                          separation: float) -> int:
    """Greedy maximal ``separation``-separated subset size of ``members``.

    ``pairwise[i][j]`` gives the geodesic distance between POIs; greedy
    insertion yields a maximal separated set, a 2-approximation of the
    packing number — sufficient for a log-scale dimension estimate.
    """
    chosen: List[int] = []
    for candidate in sorted(members, key=lambda m: distance_of[m]):
        if all(pairwise[candidate][existing] >= separation
               for existing in chosen):
            chosen.append(candidate)
    return len(chosen)


def estimate_capacity_dimension(engine: GeodesicEngine,
                                num_centers: int = 8,
                                radius_steps: int = 4,
                                seed: int = 0
                                ) -> CapacityDimensionEstimate:
    """Estimate β over sampled balls and a ladder of radii.

    For each sampled centre ``p`` and each radius ``r`` in a geometric
    ladder, compute the ball ``B(p, r)``, the packing numbers at
    separations ``r/2`` and ``2r``, and the Definition 1 dimension
    ``0.5 log2(M(r/2)/M(2r))``.  β is the maximum over all probes.
    """
    import random

    n = engine.num_pois
    if n < 3:
        raise ValueError("need at least 3 POIs to estimate a dimension")
    rng = random.Random(seed)
    centers = rng.sample(range(n), min(num_centers, n))

    # Full rows for every POI we will ever compare (centres + members).
    rows: Dict[int, PoiRow] = {}

    def row(poi: int) -> PoiRow:
        if poi not in rows:
            rows[poi] = engine.distances_from_poi(poi)
        return rows[poi]

    per_ball: List[float] = []
    probes = 0
    for center in centers:
        from_center = row(center)
        reach = float(from_center.dists.max())
        if reach <= 0:
            continue
        for step in range(1, radius_steps + 1):
            radius = reach * step / radius_steps
            members = from_center.ids[from_center.dists <= radius].tolist()
            if len(members) < 3:
                continue
            probes += 1
            for member in members:
                row(member)
            tight = greedy_packing_number(from_center, rows, members,
                                          radius / 2.0)
            loose = greedy_packing_number(from_center, rows, members,
                                          2.0 * radius)
            loose = max(loose, 1)
            if tight <= loose:
                continue
            per_ball.append(0.5 * math.log2(tight / loose))

    beta = max(per_ball) if per_ball else 0.0
    return CapacityDimensionEstimate(beta=beta, per_ball=per_ball,
                                     num_balls=len(centers),
                                     radii_probed=probes)
