"""Geodesic substrate: Steiner graphs and SSAD shortest-path search."""

from .dijkstra import (
    DijkstraResult,
    dijkstra,
    dijkstra_reference,
)
from .engine import EngineSnapshot, GeodesicEngine
from .graph import GeodesicGraph
from .steiner import SteinerPlacement, place_steiner_points
from .weights import (
    ElevationGainWeight,
    SlopePenaltyWeight,
    WeightFunction,
    euclidean_weight,
)

__all__ = [
    "WeightFunction",
    "euclidean_weight",
    "SlopePenaltyWeight",
    "ElevationGainWeight",
    "DijkstraResult",
    "dijkstra",
    "dijkstra_reference",
    "EngineSnapshot",
    "GeodesicEngine",
    "GeodesicGraph",
    "SteinerPlacement",
    "place_steiner_points",
]
