"""Multi-drone survey mission planning and deterministic flight simulation.

Plans photographic coverage of a polygonal region (waypoint grid, per-agent
routes, exact references) and simulates the flights, producing
geo-referenced observation logs with inverse-square radiation readings.
"""

from .config import ConfigError, MissionConfig, parse_mission_config, serialize_mission_config
from .geodesy import (
    EnuOffset,
    FlatPlaneWarning,
    GeoPoint,
    distance_m,
    gps_difference,
    gps_offset,
    meters_per_degree,
)
from .geojson_io import dumps_geojson, export_geojson, write_observation_log
from .grid import (
    CameraModel,
    CircumRectangle,
    EmptyGridWarning,
    PolygonRegion,
    Waypoint,
    WaypointGrid,
    bounding_rectangle,
    footprint_width,
    generate_lattice,
    generate_waypoints,
    grid_spacing,
    point_in_polygon,
)
from .radiation import NoiseSpec, RadiationSource, field_levels, sample_reading, strength_at
from .routing import (
    Agent,
    brute_force_mtsp,
    makespan,
    mtsp_lower_bound,
    plan_routes,
    route_length,
    tsp_optimal,
)
from .sim import Event, EventLog, simulate

__version__ = "0.1.0"

__all__ = [
    "Agent",
    "CameraModel",
    "CircumRectangle",
    "ConfigError",
    "EmptyGridWarning",
    "EnuOffset",
    "Event",
    "EventLog",
    "FlatPlaneWarning",
    "GeoPoint",
    "MissionConfig",
    "NoiseSpec",
    "PolygonRegion",
    "RadiationSource",
    "Waypoint",
    "WaypointGrid",
    "bounding_rectangle",
    "brute_force_mtsp",
    "distance_m",
    "dumps_geojson",
    "export_geojson",
    "field_levels",
    "footprint_width",
    "generate_lattice",
    "generate_waypoints",
    "gps_difference",
    "gps_offset",
    "grid_spacing",
    "makespan",
    "meters_per_degree",
    "mtsp_lower_bound",
    "parse_mission_config",
    "plan_routes",
    "point_in_polygon",
    "route_length",
    "sample_reading",
    "serialize_mission_config",
    "simulate",
    "strength_at",
    "tsp_optimal",
    "write_observation_log",
    "__version__",
]
