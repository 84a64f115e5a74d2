"""Multi-drone survey mission planning and deterministic flight simulation.

Plans photographic coverage of a polygonal region (waypoint grid, per-agent
routes, lower-bound evaluation) and simulates the flights, producing
geo-referenced observation logs with inverse-square radiation readings.
"""

from .config import ConfigError, MissionConfig, parse_mission_config, serialize_mission_config
from .geodesy import (
    EnuOffset,
    FlatPlaneWarning,
    GeoPoint,
    NedCm,
    distance_m,
    gps_difference,
    gps_offset,
    meters_per_degree,
    to_engine_ned,
)
from .geojson_io import dumps_geojson, export_geojson, write_observation_log
from .grid import (
    CameraModel,
    CircumRectangle,
    DegenerateGridWarning,
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
from .radiation import (
    NoiseSpec,
    RadiationSource,
    sample_reading,
    strength_at,
    total_intensity,
)
from .routing import (
    Agent,
    RoutePlan,
    brute_force_mtsp,
    makespan,
    mtsp_lower_bound,
    plan_routes,
    route_length,
    tsp_optimal,
)
from .sim import CameraMeta, Event, EventLog, ObservationRecord, leg_duration, simulate

__version__ = "0.1.0"

__all__ = [
    "Agent",
    "CameraMeta",
    "CameraModel",
    "CircumRectangle",
    "ConfigError",
    "DegenerateGridWarning",
    "EmptyGridWarning",
    "EnuOffset",
    "Event",
    "EventLog",
    "FlatPlaneWarning",
    "GeoPoint",
    "MissionConfig",
    "NedCm",
    "NoiseSpec",
    "ObservationRecord",
    "PolygonRegion",
    "RadiationSource",
    "RoutePlan",
    "Waypoint",
    "WaypointGrid",
    "bounding_rectangle",
    "brute_force_mtsp",
    "distance_m",
    "dumps_geojson",
    "export_geojson",
    "footprint_width",
    "generate_lattice",
    "generate_waypoints",
    "gps_difference",
    "gps_offset",
    "grid_spacing",
    "leg_duration",
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
    "to_engine_ned",
    "total_intensity",
    "tsp_optimal",
    "write_observation_log",
    "__version__",
]
