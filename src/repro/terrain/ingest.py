"""Real-DEM ingestion: elevation rasters -> TIN -> placed POIs.

Every dataset the oracle had ever been built on was synthetic
(:mod:`repro.terrain.generation`).  This module ingests *real* digital
elevation models without any new dependencies:

* :func:`read_asc` — ESRI ASCII grid (``.asc``), the interchange format
  most public DEM portals (USGS, SRTM re-exports) can emit;
* :func:`read_geotiff` — a minimal uncompressed single-band GeoTIFF
  subset (strip-organised, no compression, int/uint/float samples),
  parsed directly from the TIFF structure with :mod:`struct`;
* :func:`dem_to_mesh` — raster -> TIN with nodata-cell handling and
  optional decimation, projecting geographic grids onto a local
  metric plane (:class:`LocalProjection`) so edge lengths are metres;
* :func:`place_pois` — lat/lon POIs -> projected surface points, with
  out-of-extent detection;
* :func:`haversine_m` / :func:`haversine_gate` — the physical-sanity
  cross-check: a geodesic distance measured *on* the surface can never
  undercut the great-circle distance between the same two geographic
  points (beyond the oracle's ε and the projection's small-area
  distortion), in the spirit of osmfast's haversine routing tests.

The readers normalise everything into one :class:`DEMGrid`: heights as
a float array with ``NaN`` marking nodata cells, rows ordered
north-to-south, plus per-row/-column cell-centre coordinates.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .generation import grid_faces
from .mesh import TriangleMesh
from .poi import POI, POISet

__all__ = [
    "EARTH_RADIUS_M",
    "IngestError",
    "DEMGrid",
    "LocalProjection",
    "read_asc",
    "read_geotiff",
    "read_dem",
    "dem_to_mesh",
    "read_poi_csv",
    "place_pois",
    "sample_poi_latlons",
    "haversine_m",
    "haversine_gate",
]

PathLike = Union[str, os.PathLike]

#: IUGG mean Earth radius, metres — shared by projection and haversine.
EARTH_RADIUS_M = 6_371_008.8


class IngestError(ValueError):
    """Raised for malformed, truncated or unusable DEM/POI input."""


# ----------------------------------------------------------------------
# the normalised raster
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DEMGrid:
    """A parsed DEM raster, normalised across input formats.

    Attributes
    ----------
    heights:
        ``(nrows, ncols)`` float array; ``NaN`` marks nodata cells.
        Row 0 is the northernmost row.
    lats / lons:
        Cell-centre coordinates per row / column (degrees for
        geographic grids, metres for projected ones).
    source:
        Originating file path (diagnostics only).
    """

    heights: np.ndarray
    lats: np.ndarray
    lons: np.ndarray
    source: str = ""

    @property
    def shape(self) -> Tuple[int, int]:
        return self.heights.shape  # type: ignore[return-value]

    @property
    def num_valid(self) -> int:
        return int(np.isfinite(self.heights).sum())

    @property
    def valid_fraction(self) -> float:
        return self.num_valid / self.heights.size if self.heights.size else 0.0

    @property
    def is_geographic(self) -> bool:
        """Heuristic: coordinates that fit degrees are degrees.

        Real projected DEMs carry coordinates in the 10^5-10^6 m range;
        geographic ones sit inside [-180, 180] x [-90, 90] with
        sub-degree cell sizes.  The two regimes do not overlap for any
        terrain bigger than a parking lot.
        """
        if self.lats.size == 0 or self.lons.size == 0:
            return False
        return bool(
            np.abs(self.lats).max() <= 90.0
            and np.abs(self.lons).max() <= 360.0
        )

    def decimate(self, factor: int) -> "DEMGrid":
        """Every ``factor``-th row and column (``factor`` = 1 is a no-op)."""
        if factor < 1:
            raise IngestError(f"decimation factor must be >= 1, got {factor}")
        if factor == 1:
            return self
        return DEMGrid(
            heights=self.heights[::factor, ::factor],
            lats=self.lats[::factor],
            lons=self.lons[::factor],
            source=self.source,
        )


@dataclass(frozen=True)
class LocalProjection:
    """Equirectangular projection about a reference point.

    Good to well under 0.1% over the few-kilometre extents a terrain
    oracle serves; the haversine gate's slack absorbs the residual.
    ``x`` grows east, ``y`` grows north, both in metres.
    """

    lat0: float
    lon0: float

    def to_xy(self, lat: float, lon: float) -> Tuple[float, float]:
        x = (
            EARTH_RADIUS_M
            * math.radians(lon - self.lon0)
            * math.cos(math.radians(self.lat0))
        )
        y = EARTH_RADIUS_M * math.radians(lat - self.lat0)
        return x, y

    def to_latlon(self, x: float, y: float) -> Tuple[float, float]:
        lat = self.lat0 + math.degrees(y / EARTH_RADIUS_M)
        lon = self.lon0 + math.degrees(
            x / (EARTH_RADIUS_M * math.cos(math.radians(self.lat0)))
        )
        return lat, lon


# ----------------------------------------------------------------------
# ESRI ASCII grid
# ----------------------------------------------------------------------
_ASC_HEADER_KEYS = (
    "ncols",
    "nrows",
    "xllcorner",
    "xllcenter",
    "yllcorner",
    "yllcenter",
    "cellsize",
    "nodata_value",
)


def read_asc(path: PathLike) -> DEMGrid:
    """Read an ESRI ASCII grid (``.asc``).

    Header keys are case-insensitive; both ``xllcorner`` (cell edge)
    and ``xllcenter`` conventions are supported and normalised to
    cell-centre coordinates.  Data rows run north to south, matching
    the format.  Truncated or over-full data sections raise
    :class:`IngestError` rather than mis-shaping silently.
    """
    header: dict = {}
    data_tokens: List[str] = []
    with open(path) as handle:
        for raw in handle:
            tokens = raw.split()
            if not tokens:
                continue
            key = tokens[0].lower()
            if not data_tokens and key in _ASC_HEADER_KEYS:
                if len(tokens) != 2:
                    raise IngestError(f"{path}: malformed header line {raw!r}")
                header[key] = float(tokens[1])
            else:
                data_tokens.extend(tokens)

    for required in ("ncols", "nrows", "cellsize"):
        if required not in header:
            raise IngestError(f"{path}: missing header key {required!r}")
    if "xllcorner" not in header and "xllcenter" not in header:
        raise IngestError(f"{path}: missing xllcorner/xllcenter")
    if "yllcorner" not in header and "yllcenter" not in header:
        raise IngestError(f"{path}: missing yllcorner/yllcenter")

    ncols = int(header["ncols"])
    nrows = int(header["nrows"])
    cellsize = header["cellsize"]
    if ncols < 2 or nrows < 2:
        raise IngestError(f"{path}: grid must be at least 2x2, got {nrows}x{ncols}")
    if cellsize <= 0:
        raise IngestError(f"{path}: cellsize must be positive, got {cellsize}")
    if len(data_tokens) != nrows * ncols:
        raise IngestError(
            f"{path}: expected {nrows * ncols} height values, "
            f"got {len(data_tokens)} (truncated or over-full grid)"
        )
    try:
        heights = np.asarray([float(token) for token in data_tokens])
    except ValueError as error:
        raise IngestError(f"{path}: non-numeric height value: {error}") from None
    heights = heights.reshape(nrows, ncols)
    if "nodata_value" in header:
        heights = np.where(heights == header["nodata_value"], np.nan, heights)

    if "xllcenter" in header:
        x0 = header["xllcenter"]
    else:
        x0 = header["xllcorner"] + 0.5 * cellsize
    if "yllcenter" in header:
        y0 = header["yllcenter"]
    else:
        y0 = header["yllcorner"] + 0.5 * cellsize
    lons = x0 + cellsize * np.arange(ncols)
    # Row 0 of the data section is the northernmost row.
    lats = y0 + cellsize * (nrows - 1 - np.arange(nrows))
    return DEMGrid(heights=heights, lats=lats, lons=lons, source=str(path))


# ----------------------------------------------------------------------
# minimal GeoTIFF subset
# ----------------------------------------------------------------------
_TIFF_TYPE_SIZES = {
    1: 1,  # BYTE
    2: 1,  # ASCII
    3: 2,  # SHORT
    4: 4,  # LONG
    5: 8,  # RATIONAL
    6: 1,  # SBYTE
    8: 2,  # SSHORT
    9: 4,  # SLONG
    11: 4,  # FLOAT
    12: 8,  # DOUBLE
}
_TIFF_TYPE_FORMATS = {
    1: "B",
    3: "H",
    4: "I",
    6: "b",
    8: "h",
    9: "i",
    11: "f",
    12: "d",
}

_TAG_WIDTH = 256
_TAG_LENGTH = 257
_TAG_BITS_PER_SAMPLE = 258
_TAG_COMPRESSION = 259
_TAG_STRIP_OFFSETS = 273
_TAG_SAMPLES_PER_PIXEL = 277
_TAG_ROWS_PER_STRIP = 278
_TAG_STRIP_BYTE_COUNTS = 279
_TAG_SAMPLE_FORMAT = 339
_TAG_MODEL_PIXEL_SCALE = 33550
_TAG_MODEL_TIEPOINT = 33922
_TAG_GDAL_NODATA = 42113

_SAMPLE_DTYPES = {
    (1, 8): "u1",
    (1, 16): "u2",
    (1, 32): "u4",
    (2, 16): "i2",
    (2, 32): "i4",
    (3, 32): "f4",
    (3, 64): "f8",
}


def _read_tiff_tags(data: bytes, path: PathLike) -> Tuple[dict, str]:
    """Parse the first IFD into ``{tag: (values tuple)}``."""
    if len(data) < 8:
        raise IngestError(f"{path}: truncated TIFF header")
    if data[:2] == b"II":
        endian = "<"
    elif data[:2] == b"MM":
        endian = ">"
    else:
        raise IngestError(f"{path}: not a TIFF file (bad byte-order mark)")
    magic, ifd_offset = struct.unpack(endian + "HI", data[2:8])
    if magic != 42:
        raise IngestError(f"{path}: not a TIFF file (magic {magic} != 42)")
    if ifd_offset + 2 > len(data):
        raise IngestError(f"{path}: truncated TIFF (IFD offset out of range)")
    (entry_count,) = struct.unpack_from(endian + "H", data, ifd_offset)
    tags: dict = {}
    for index in range(entry_count):
        base = ifd_offset + 2 + 12 * index
        if base + 12 > len(data):
            raise IngestError(f"{path}: truncated TIFF IFD")
        tag, type_id, count = struct.unpack_from(endian + "HHI", data, base)
        size = _TIFF_TYPE_SIZES.get(type_id)
        if size is None:
            continue  # unknown value type; skip the tag
        total = size * count
        if total <= 4:
            offset = base + 8
        else:
            (offset,) = struct.unpack_from(endian + "I", data, base + 8)
        if offset + total > len(data):
            raise IngestError(f"{path}: truncated TIFF (tag {tag} data)")
        if type_id == 2:  # ASCII, NUL-terminated
            raw = data[offset : offset + count]
            tags[tag] = (raw.split(b"\x00", 1)[0].decode("ascii", "replace"),)
        else:
            fmt = _TIFF_TYPE_FORMATS[type_id]
            if type_id == 5:  # RATIONAL -> float
                pairs = struct.unpack_from(endian + "II" * count, data, offset)
                tags[tag] = tuple(
                    pairs[i] / pairs[i + 1] if pairs[i + 1] else float("nan")
                    for i in range(0, 2 * count, 2)
                )
            else:
                tags[tag] = struct.unpack_from(endian + fmt * count, data, offset)
    return tags, endian


def read_geotiff(path: PathLike) -> DEMGrid:
    """Read a minimal uncompressed single-band GeoTIFF.

    Supported subset: strip-organised, ``Compression == 1`` (none),
    one sample per pixel, 8/16/32-bit integer or 32/64-bit float
    samples, georeferenced by ``ModelPixelScale`` + ``ModelTiepoint``,
    with GDAL's ASCII nodata tag honoured.  Anything else raises
    :class:`IngestError` naming the unsupported feature — better a
    typed refusal than a silently garbled terrain.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    tags, endian = _read_tiff_tags(data, path)

    def require(tag: int, name: str):
        if tag not in tags:
            raise IngestError(f"{path}: missing required TIFF tag {name}")
        return tags[tag]

    width = int(require(_TAG_WIDTH, "ImageWidth")[0])
    length = int(require(_TAG_LENGTH, "ImageLength")[0])
    compression = int(tags.get(_TAG_COMPRESSION, (1,))[0])
    if compression != 1:
        raise IngestError(
            f"{path}: compression {compression} unsupported "
            "(only uncompressed strips)"
        )
    samples = int(tags.get(_TAG_SAMPLES_PER_PIXEL, (1,))[0])
    if samples != 1:
        raise IngestError(f"{path}: {samples} samples/pixel unsupported")
    bits = int(tags.get(_TAG_BITS_PER_SAMPLE, (32,))[0])
    sample_format = int(tags.get(_TAG_SAMPLE_FORMAT, (1,))[0])
    dtype_suffix = _SAMPLE_DTYPES.get((sample_format, bits))
    if dtype_suffix is None:
        raise IngestError(
            f"{path}: sample format {sample_format} at {bits} bits unsupported"
        )
    offsets = require(_TAG_STRIP_OFFSETS, "StripOffsets")
    byte_counts = require(_TAG_STRIP_BYTE_COUNTS, "StripByteCounts")
    if len(offsets) != len(byte_counts):
        raise IngestError(f"{path}: StripOffsets/StripByteCounts mismatch")
    raw = bytearray()
    for offset, count in zip(offsets, byte_counts):
        if offset + count > len(data):
            raise IngestError(f"{path}: truncated TIFF strip data")
        raw += data[offset : offset + count]
    expected = width * length * (bits // 8)
    if len(raw) < expected:
        raise IngestError(
            f"{path}: strip data holds {len(raw)} bytes, "
            f"needs {expected} for {length}x{width}x{bits}bit"
        )
    heights = (
        np.frombuffer(bytes(raw[:expected]), dtype=endian + dtype_suffix)
        .reshape(length, width)
        .astype(float)
    )
    if _TAG_GDAL_NODATA in tags:
        try:
            nodata = float(tags[_TAG_GDAL_NODATA][0].strip())
        except ValueError:
            nodata = None
        if nodata is not None:
            heights = np.where(heights == nodata, np.nan, heights)

    scale = require(_TAG_MODEL_PIXEL_SCALE, "ModelPixelScale")
    tiepoint = require(_TAG_MODEL_TIEPOINT, "ModelTiepoint")
    if len(scale) < 2 or len(tiepoint) < 6:
        raise IngestError(f"{path}: malformed GeoTIFF georeferencing tags")
    scale_x, scale_y = float(scale[0]), float(scale[1])
    raster_i, raster_j = float(tiepoint[0]), float(tiepoint[1])
    model_x, model_y = float(tiepoint[3]), float(tiepoint[4])
    if scale_x <= 0 or scale_y <= 0:
        raise IngestError(f"{path}: non-positive pixel scale")
    # Tiepoint maps raster (i, j) to model (x, y); pixel centres sit
    # half a cell in from the pixel corner, rows running southward.
    lons = model_x + (0.5 - raster_i + np.arange(width)) * scale_x
    lats = model_y - (0.5 - raster_j + np.arange(length)) * scale_y
    return DEMGrid(heights=heights, lats=lats, lons=lons, source=str(path))


def read_dem(path: PathLike) -> DEMGrid:
    """Dispatch on file extension (``.asc`` / ``.tif`` / ``.tiff``)."""
    suffix = str(path).rsplit(".", 1)[-1].lower()
    if suffix == "asc":
        return read_asc(path)
    if suffix in ("tif", "tiff"):
        return read_geotiff(path)
    raise IngestError(f"unsupported DEM format: .{suffix} (use .asc or .tif)")


# ----------------------------------------------------------------------
# raster -> TIN
# ----------------------------------------------------------------------
def dem_to_mesh(
    grid: DEMGrid,
    decimate: int = 1,
    z_scale: float = 1.0,
) -> Tuple[TriangleMesh, Optional[LocalProjection]]:
    """Triangulate a DEM into a TIN, skipping nodata cells.

    Geographic grids are projected onto a local metric plane about the
    grid centre (the returned :class:`LocalProjection`; ``None`` for
    already-projected grids).  Each 2x2 cell block contributes up to
    two triangles with an alternating diagonal (:func:`~repro.terrain.
    generation.grid_faces`); a triangle is emitted only when all three
    of its corners carry valid heights, so nodata holes become holes
    in the mesh instead of fabricated elevations.
    """
    grid = grid.decimate(decimate)
    heights = grid.heights
    nrows, ncols = heights.shape
    valid = np.isfinite(heights)
    if not valid.any():
        raise IngestError(f"{grid.source or 'DEM'}: every cell is nodata")

    projection: Optional[LocalProjection] = None
    if grid.is_geographic:
        projection = LocalProjection(
            lat0=float(grid.lats.mean()), lon0=float(grid.lons.mean())
        )
        xs = (
            EARTH_RADIUS_M
            * np.radians(grid.lons - projection.lon0)
            * math.cos(math.radians(projection.lat0))
        )
        ys = EARTH_RADIUS_M * np.radians(grid.lats - projection.lat0)
    else:
        xs = grid.lons.astype(float)
        ys = grid.lats.astype(float)

    vertex_id = np.full((nrows, ncols), -1, dtype=np.int64)
    vertex_id[valid] = np.arange(int(valid.sum()))
    grid_x, grid_y = np.meshgrid(xs, ys)  # (nrows, ncols) each
    vertices = np.column_stack(
        [
            grid_x[valid],
            grid_y[valid],
            heights[valid] * z_scale,
        ]
    )

    faces = grid_faces(vertex_id)
    if not len(faces):
        raise IngestError(
            f"{grid.source or 'DEM'}: no triangulatable 2x2 block of valid "
            "cells (grid too sparse after nodata masking/decimation)"
        )
    return TriangleMesh(vertices, faces), projection


# ----------------------------------------------------------------------
# POI placement
# ----------------------------------------------------------------------
def read_poi_csv(path: PathLike) -> Tuple[List[str], List[Tuple[float, float]]]:
    """Read ``name,lat,lon`` lines (header line and comments tolerated)."""
    names: List[str] = []
    latlons: List[Tuple[float, float]] = []
    with open(path) as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [part.strip() for part in line.split(",")]
            if len(parts) != 3:
                raise IngestError(
                    f"{path}:{line_no}: expected 'name,lat,lon', got {line!r}"
                )
            try:
                lat, lon = float(parts[1]), float(parts[2])
            except ValueError:
                if line_no == 1:
                    continue  # header row
                raise IngestError(
                    f"{path}:{line_no}: non-numeric lat/lon in {line!r}"
                ) from None
            if not (-90.0 <= lat <= 90.0):
                raise IngestError(f"{path}:{line_no}: latitude {lat} out of range")
            names.append(parts[0])
            latlons.append((lat, lon))
    if not latlons:
        raise IngestError(f"{path}: no POI records")
    return names, latlons


def place_pois(
    mesh: TriangleMesh,
    projection: Optional[LocalProjection],
    latlons: Sequence[Tuple[float, float]],
) -> POISet:
    """Project geographic POIs onto the ingested surface.

    Each (lat, lon) is mapped to local metres, located on the TIN and
    lifted to the surface height.  Points outside the DEM extent (or
    inside a nodata hole) raise :class:`IngestError` naming the
    offender; a surface-proximity index built over silently dropped
    POIs would answer with shifted ids.
    """
    if projection is None:
        raise IngestError(
            "POI placement by lat/lon needs a geographic DEM "
            "(projected grids carry no geographic reference)"
        )
    pois: List[POI] = []
    for index, (lat, lon) in enumerate(latlons):
        x, y = projection.to_xy(lat, lon)
        face_id = mesh.locate_face(x, y)
        if face_id < 0:
            raise IngestError(
                f"POI {index} at ({lat:.6f}, {lon:.6f}) falls outside the "
                "DEM extent (or inside a nodata hole)"
            )
        position = mesh.project_onto_surface(x, y)
        if position is None:  # pragma: no cover - locate_face already gated
            raise IngestError(f"POI {index} could not be lifted to the surface")
        pois.append(
            POI(
                index=index,
                position=tuple(float(value) for value in position),
                face_id=face_id,
            )
        )
    result = POISet(pois)
    if len(result) != len(latlons):
        raise IngestError(
            f"{len(latlons) - len(result)} duplicate POI position(s) after "
            "surface projection; de-duplicate the POI list"
        )
    return result


def sample_poi_latlons(
    mesh: TriangleMesh,
    projection: LocalProjection,
    count: int,
    seed: int = 0,
) -> List[Tuple[float, float]]:
    """Seeded uniform surface sample, reported as geographic POIs."""
    from .poi import sample_uniform

    sampled = sample_uniform(mesh, count, seed=seed)
    return [projection.to_latlon(poi.x, poi.y) for poi in sampled]


# ----------------------------------------------------------------------
# haversine sanity gate
# ----------------------------------------------------------------------
def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in metres."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def haversine_gate(
    index,
    latlons: Sequence[Tuple[float, float]],
    epsilon: float,
    slack: float = 0.05,
) -> dict:
    """Cross-check oracle distances against the great-circle lower bound.

    A path along the terrain surface is at least as long as the
    straight planar segment between its endpoints, which the haversine
    distance approximates to well under ``slack`` over oracle-sized
    extents.  The oracle itself may sit up to ``epsilon`` below the
    true geodesic, so the gate requires::

        d_oracle(i, j) >= haversine(i, j) * (1 - epsilon - slack)

    for every distinct POI pair.  Returns a report dict with the
    minimum observed ratio and the failing pairs (empty when ``ok``).
    """
    count = len(latlons)
    if count != index.num_pois:
        raise IngestError(
            f"haversine gate: {count} geographic POIs vs "
            f"{index.num_pois} oracle POIs"
        )
    matrix = index.query_matrix()
    floor = 1.0 - epsilon - slack
    failures: List[dict] = []
    min_ratio = math.inf
    pairs_checked = 0
    for i in range(count):
        lat1, lon1 = latlons[i]
        for j in range(i + 1, count):
            lower = haversine_m(lat1, lon1, latlons[j][0], latlons[j][1])
            if lower <= 0.0:
                continue
            pairs_checked += 1
            ratio = float(matrix[i, j]) / lower
            if ratio < min_ratio:
                min_ratio = ratio
            if ratio < floor:
                failures.append(
                    {
                        "source": i,
                        "target": j,
                        "oracle_m": float(matrix[i, j]),
                        "haversine_m": lower,
                        "ratio": ratio,
                    }
                )
    return {
        "pairs_checked": pairs_checked,
        "min_ratio": min_ratio if pairs_checked else math.inf,
        "floor": floor,
        "failures": failures,
        "ok": not failures,
    }
