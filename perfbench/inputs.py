"""Seeded inputs: terrains, POIs, DEM files and request streams.

The program only ever sees what these functions generate; the seed
stays on the benchmark side.  Terrains are gentle hills of fixed count
and width and POIs sit one per cell of a jittered grid, so a new seed
moves every hill and POI while the amount of work a workload does
stays about the same — the benchmark compares runs across seeds.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence, Tuple

import numpy as np


def heightfield(rng: np.random.Generator, size: int,
                relief: float, hills: int = 6) -> np.ndarray:
    """``size`` x ``size`` heights in metres, spanning ``relief``."""
    axis = np.linspace(0.0, 1.0, size)
    xx, yy = np.meshgrid(axis, axis)
    heights = np.zeros((size, size))
    for _ in range(hills):
        cx, cy = rng.random(2)
        heights += np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2)
                          / (2 * 0.15 ** 2))
    heights += 0.05 * rng.standard_normal((size, size))
    heights -= heights.min()
    return heights * (relief / heights.max())


def grid_mesh(heights: np.ndarray, extent: float):
    from repro.terrain.generation import heightfield_to_mesh

    return heightfield_to_mesh(heights, extent, extent)


def jittered_grid(rng: np.random.Generator, count: int
                  ) -> List[Tuple[float, float]]:
    """``count`` points in the unit square, one per grid cell (cells
    drawn without replacement), each jittered inside its cell."""
    side = math.ceil(math.sqrt(count))
    cells = rng.permutation(side * side)[:count]
    points = []
    for cell in cells.tolist():
        row, col = divmod(cell, side)
        u = (row + rng.uniform(0.1, 0.9)) / side
        v = (col + rng.uniform(0.1, 0.9)) / side
        # Keep clear of the boundary so every point locates a face.
        points.append((0.01 + 0.98 * u, 0.01 + 0.98 * v))
    return points


def surface_pois(mesh, extent: float, unit_points):
    """POIs above planar points given in unit-square coordinates."""
    from repro.terrain.poi import POI, POISet

    pois = []
    for index, (u, v) in enumerate(unit_points):
        x, y = u * extent, v * extent
        face = mesh.locate_face(x, y)
        if face < 0:
            raise ValueError(f"point ({x}, {y}) is off the terrain")
        position = mesh.project_onto_surface(x, y)
        pois.append(POI(index=index,
                        position=tuple(float(c) for c in position),
                        face_id=face))
    return POISet(pois)


def terrain(seed, size: int, extent: float, relief: float,
            num_pois: int):
    """(mesh, POISet) of one seeded synthetic terrain; ``seed`` is an
    int or a tuple of ints, as ``numpy.random.default_rng`` takes."""
    rng = np.random.default_rng(seed)
    mesh = grid_mesh(heightfield(rng, size, relief), extent)
    return mesh, surface_pois(mesh, extent, jittered_grid(rng, num_pois))


# ----------------------------------------------------------------------
# DEM files
# ----------------------------------------------------------------------
def write_asc(path: str, heights: np.ndarray, lat0: float, lon0: float,
              cell_deg: float) -> None:
    """An ESRI ASCII grid; rows run north to south, as the format."""
    rows, cols = heights.shape
    with open(path, "w") as handle:
        handle.write(f"ncols {cols}\nnrows {rows}\n"
                     f"xllcorner {lon0:.8f}\nyllcorner {lat0:.8f}\n"
                     f"cellsize {cell_deg:.8f}\nNODATA_value -9999\n")
        for row in heights[::-1]:
            handle.write(" ".join(f"{value:.2f}" for value in row))
            handle.write("\n")


# ----------------------------------------------------------------------
# request streams
# ----------------------------------------------------------------------
def point_pairs(seed: int, num_pois: int, count: int
                ) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return (rng.integers(0, num_pois, count),
            rng.integers(0, num_pois, count))


def query_lines(sources: Sequence[int], targets: Sequence[int],
                terrain_id: str) -> List[bytes]:
    """Pre-encoded ``query`` request lines, ``id`` = position."""
    from repro.serving import protocol

    return [protocol.encode(protocol.request(
        "query", request_id=index, terrain=terrain_id,
        source=int(source), target=int(target)))
        for index, (source, target) in enumerate(zip(sources, targets))]


def interleave(seed: int, streams: Dict[Tuple[str, str], List[dict]],
               per_cycle: Dict[Tuple[str, str], int], cycles: int
               ) -> List[Tuple[str, dict]]:
    """Fixed-composition cycles of (terrain, event), seeded order.

    Every cycle holds exactly ``per_cycle[key]`` events of each
    (terrain, op) stream, taken in stream order, so every trial of one
    cycle does the same mix of work.
    """
    rng = random.Random(seed)
    cursor = {key: 0 for key in per_cycle}
    out: List[Tuple[str, dict]] = []
    for _ in range(cycles):
        cycle = [key for key, count in sorted(per_cycle.items())
                 for _ in range(count)]
        rng.shuffle(cycle)
        for key in cycle:
            out.append((key[0], streams[key][cursor[key]]))
            cursor[key] += 1
    return out
