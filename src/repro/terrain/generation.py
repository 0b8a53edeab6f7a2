"""Synthetic terrain generation.

The paper evaluates on real DEM datasets (BearHead, EaglePeak, San
Francisco South from geocomm).  Those rasters are not redistributable,
so this module builds statistically similar triangulated terrains:

* :func:`diamond_square` — classic fractal heightfield (plasma
  terrain), giving the self-similar roughness of natural relief;
* :func:`gaussian_hills` — smooth mountain/valley mixtures;
* :func:`heightfield_to_mesh` — regular-grid triangulation (two
  triangles per raster cell, :func:`grid_faces`), matching how DEMs
  become TINs;
* :func:`make_terrain` — the one-stop constructor used by the dataset
  registry (fractal relief + hills, scaled to a target extent);
* :func:`refine_centroid` — the paper's "enlarged BH" construction:
  add a vertex at the geometric centre of every face plus three edges;
* :func:`simplify_grid` — vertex-clustering simplification used for
  the ``N``-sweep of Figure 10 (the paper uses [24]'s simplifier; any
  area-preserving decimation exercises the same code path).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .mesh import TriangleMesh

__all__ = [
    "diamond_square",
    "gaussian_hills",
    "grid_faces",
    "heightfield_to_mesh",
    "make_terrain",
    "refine_centroid",
    "simplify_grid",
]


def diamond_square(exponent: int, roughness: float = 0.5,
                   seed: int = 0) -> np.ndarray:
    """Generate a ``(2**exponent + 1)`` square fractal heightfield.

    Parameters
    ----------
    exponent:
        Grid size is ``2**exponent + 1`` per side.
    roughness:
        Amplitude decay per subdivision in ``(0, 1]``; higher is rougher.
    seed:
        RNG seed; the output is deterministic given the seed.

    Returns
    -------
    Heights in an unnormalised scale, shape ``(size, size)``.
    """
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    if not 0.0 < roughness <= 1.0:
        raise ValueError("roughness must be in (0, 1]")
    rng = np.random.default_rng(seed)
    size = (1 << exponent) + 1
    grid = np.zeros((size, size))
    grid[0, 0], grid[0, -1], grid[-1, 0], grid[-1, -1] = rng.normal(0, 1, 4)

    step = size - 1
    amplitude = 1.0
    while step > 1:
        half = step // 2
        # Diamond step: centres of squares.
        for i in range(half, size, step):
            for j in range(half, size, step):
                corners = (grid[i - half, j - half] + grid[i - half, j + half]
                           + grid[i + half, j - half] + grid[i + half, j + half])
                grid[i, j] = corners / 4.0 + rng.normal(0, amplitude)
        # Square step: edge midpoints.
        for i in range(0, size, half):
            start = half if (i // half) % 2 == 0 else 0
            for j in range(start, size, step):
                total = 0.0
                count = 0
                for di, dj in ((-half, 0), (half, 0), (0, -half), (0, half)):
                    ni, nj = i + di, j + dj
                    if 0 <= ni < size and 0 <= nj < size:
                        total += grid[ni, nj]
                        count += 1
                grid[i, j] = total / count + rng.normal(0, amplitude)
        step = half
        amplitude *= roughness
    return grid


def gaussian_hills(size: int, num_hills: int = 6, seed: int = 0,
                   width_range: Tuple[float, float] = (0.08, 0.25)) -> np.ndarray:
    """A ``(size, size)`` heightfield of random Gaussian bumps.

    Hill centres are uniform in the unit square; widths are relative to
    the grid extent; signs alternate to create valleys as well.
    """
    if size < 2:
        raise ValueError("size must be >= 2")
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, size)
    grid_x, grid_y = np.meshgrid(xs, xs, indexing="ij")
    heights = np.zeros((size, size))
    for hill in range(num_hills):
        cx, cy = rng.uniform(0.1, 0.9, 2)
        width = rng.uniform(*width_range)
        magnitude = rng.uniform(0.4, 1.0) * (1 if hill % 2 == 0 else -0.6)
        heights += magnitude * np.exp(
            -((grid_x - cx) ** 2 + (grid_y - cy) ** 2) / (2 * width**2)
        )
    return heights


def grid_faces(vertex_id: np.ndarray) -> np.ndarray:
    """The triangles of a raster grid: int64 ``(num_faces, 3)`` over a
    ``(rows, cols)`` grid of vertex ids, ``-1`` marking nodata.

    Cells are taken in row-major order, two triangles each, with the
    diagonal alternating to avoid directional artefacts: with corners
    ``a = (i, j)``, ``b = (i+1, j)``, ``c = (i+1, j+1)`` and
    ``d = (i, j+1)``, cell ``(i, j)`` gives ``(a, b, c), (a, c, d)``
    when ``i + j`` is even and ``(a, b, d), (b, c, d)`` when it is odd.
    Every triangle with a ``-1`` corner is dropped.
    """
    ids = np.asarray(vertex_id, dtype=np.int64)
    a, b, c, d = ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:], ids[:-1, 1:]
    rows, cols = a.shape
    even = np.add.outer(np.arange(rows), np.arange(cols)) % 2 == 0
    first = np.stack([a, b, np.where(even, c, d)], -1)
    second = np.stack([np.where(even, a, b), c, d], -1)
    faces = np.stack([first, second], axis=2).reshape(-1, 3)
    return faces[(faces >= 0).all(axis=1)]


def heightfield_to_mesh(heights: np.ndarray,
                        extent_x: float,
                        extent_y: float,
                        z_scale: float = 1.0) -> TriangleMesh:
    """Triangulate a raster heightfield into a TIN.

    Each raster cell becomes two triangles (:func:`grid_faces`), the
    standard DEM-to-TIN conversion.  Vertex ``(i, j)`` sits at planar
    position ``(i * dx, j * dy)`` with height ``heights[i, j] *
    z_scale``.
    """
    heights = np.asarray(heights, dtype=float)
    if heights.ndim != 2 or heights.shape[0] < 2 or heights.shape[1] < 2:
        raise ValueError(f"heights must be a 2D grid, got {heights.shape}")
    rows, cols = heights.shape
    dx = extent_x / (rows - 1)
    dy = extent_y / (cols - 1)
    ii, jj = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    vertices = np.column_stack([
        (ii * dx).ravel(), (jj * dy).ravel(), (heights * z_scale).ravel()
    ])
    return TriangleMesh(vertices, grid_faces(ii * cols + jj))


def make_terrain(grid_exponent: int = 5,
                 extent: Tuple[float, float] = (14_000.0, 10_000.0),
                 relief: float = 900.0,
                 roughness: float = 0.55,
                 hill_fraction: float = 0.5,
                 seed: int = 0) -> TriangleMesh:
    """Build a BH/EP/SF-style synthetic terrain.

    Combines a diamond-square fractal with Gaussian hills, normalises to
    ``[0, 1]`` and scales to ``relief`` metres of vertical range over
    the requested planar ``extent``.  This is the generator behind the
    dataset registry in :mod:`repro.experiments.datasets`.
    """
    fractal = diamond_square(grid_exponent, roughness=roughness, seed=seed)
    size = fractal.shape[0]
    hills = gaussian_hills(size, num_hills=5, seed=seed + 1)

    def normalise(grid: np.ndarray) -> np.ndarray:
        span = grid.max() - grid.min()
        if span < 1e-12:
            return np.zeros_like(grid)
        return (grid - grid.min()) / span

    heights = ((1.0 - hill_fraction) * normalise(fractal)
               + hill_fraction * normalise(hills))
    return heightfield_to_mesh(heights * relief, extent[0], extent[1])


def refine_centroid(mesh: TriangleMesh) -> TriangleMesh:
    """Subdivide every face at its geometric centre (1 face -> 3 faces).

    This is the paper's enlargement recipe for the Figure 10 N-sweep:
    "On each face of BH, we added a new vertex on its geometric center
    and add a new edge between the new vertex and each of the three
    vertices on the face."
    """
    old_count = mesh.num_vertices
    centroids = mesh.vertices[mesh.faces].mean(axis=1)
    vertices = np.vstack([mesh.vertices, centroids])
    faces = []
    for face_id, (a, b, c) in enumerate(mesh.faces):
        center = old_count + face_id
        faces.append((a, b, center))
        faces.append((b, c, center))
        faces.append((c, a, center))
    return TriangleMesh(vertices, np.asarray(faces, dtype=np.int64))


def simplify_grid(mesh: TriangleMesh, target_vertices: int,
                  seed: int = 0) -> TriangleMesh:
    """Vertex-clustering simplification down to ~``target_vertices``.

    Snap vertices to a uniform planar grid sized so that roughly
    ``target_vertices`` clusters are occupied; each cluster is replaced
    by its average vertex and faces are re-indexed, dropping collapsed
    (degenerate) triangles.  The simplified surface covers the same
    region as the original, the property the Figure 10 sweep relies on.
    """
    if target_vertices < 4:
        raise ValueError("target_vertices must be at least 4")
    if target_vertices >= mesh.num_vertices:
        return mesh
    low, high = mesh.bounding_box()
    width = max(high[0] - low[0], 1e-12)
    height = max(high[1] - low[1], 1e-12)
    # Occupied-cell count tracks cells along each axis; aim slightly high
    # and shrink until under target.
    cells = max(2, int(math.sqrt(target_vertices)))
    for _ in range(32):
        cluster_of = _assign_clusters(mesh.vertices, low, width, height, cells)
        unique = len(set(cluster_of))
        if unique <= target_vertices:
            break
        cells = max(2, int(cells * math.sqrt(target_vertices / unique)))
        if cells == 2:
            break
        cells -= 1
    cluster_of = _assign_clusters(mesh.vertices, low, width, height, cells)

    order: dict = {}
    for cluster in cluster_of:
        if cluster not in order:
            order[cluster] = len(order)
    new_ids = np.array([order[cluster] for cluster in cluster_of])
    new_vertices = np.zeros((len(order), 3))
    counts = np.zeros(len(order))
    np.add.at(new_vertices, new_ids, mesh.vertices)
    np.add.at(counts, new_ids, 1.0)
    new_vertices /= counts[:, None]

    remapped = new_ids[mesh.faces]
    keep = (
        (remapped[:, 0] != remapped[:, 1])
        & (remapped[:, 1] != remapped[:, 2])
        & (remapped[:, 0] != remapped[:, 2])
    )
    new_faces = remapped[keep]
    # Drop duplicate faces (same vertex set) that clustering can create.
    seen = set()
    unique_faces = []
    for face in new_faces:
        key = tuple(sorted(int(v) for v in face))
        if key not in seen:
            seen.add(key)
            unique_faces.append(face)
    return TriangleMesh(new_vertices, np.asarray(unique_faces, dtype=np.int64))


def _assign_clusters(vertices: np.ndarray, low: np.ndarray,
                     width: float, height: float, cells: int) -> list:
    cell_x = np.minimum(((vertices[:, 0] - low[0]) / width * cells).astype(int),
                        cells - 1)
    cell_y = np.minimum(((vertices[:, 1] - low[1]) / height * cells).astype(int),
                        cells - 1)
    return list(zip(cell_x.tolist(), cell_y.tolist()))
