"""Geodesy conversions: degree scales, offsets, distance."""

from __future__ import annotations

import dataclasses
import math
import random
from functools import partial

import pytest

import uavsurvey
from uavsurvey import (
    Agent,
    CameraModel,
    EnuOffset,
    FlatPlaneWarning,
    GeoPoint,
    MissionConfig,
    NoiseSpec,
    PolygonRegion,
    RadiationSource,
    Waypoint,
    distance_m,
    generate_lattice,
    gps_difference,
    gps_offset,
    meters_per_degree,
    mtsp_lower_bound,
    simulate,
)
from uavsurvey.grid import CircumRectangle

# pi * 6378137 / 180 evaluated at 40 decimal digits, rounded to float64.
M_PER_DEG_ORACLE = 111319.49079327357


class TestGeoPoint:
    def test_latitude_range_enforced(self):
        with pytest.raises(ValueError, match="lat_deg"):
            GeoPoint(90.0001, 0.0)
        with pytest.raises(ValueError, match="lat_deg"):
            GeoPoint(-91.0, 0.0)

    def test_longitude_normalized(self):
        assert GeoPoint(0.0, 180.0).lon_deg == -180.0
        assert GeoPoint(0.0, 181.0).lon_deg == -179.0
        assert GeoPoint(0.0, 190.0).lon_deg == -170.0
        assert GeoPoint(0.0, -180.0).lon_deg == -180.0
        assert GeoPoint(0.0, 540.0).lon_deg == -180.0
        assert GeoPoint(0.0, -540.0).lon_deg == -180.0
        # -180 less one ulp wraps exactly, not by rounding up to 180
        assert GeoPoint(0.0, -180.00000000000003).lon_deg == 179.99999999999997
        # in-range longitudes pass through untouched
        assert GeoPoint(0.0, 179.9999).lon_deg == 179.9999

    def test_negative_altitude_rejected(self):
        with pytest.raises(ValueError, match="alt_m"):
            GeoPoint(0.0, 0.0, -1.0)

    @pytest.mark.parametrize("field", ["lat_deg", "lon_deg", "alt_m"])
    def test_bool_coordinate_rejected(self, field):
        # A bool would be written as an RFC 7946 position of true/false.
        coords = {"lat_deg": 1, "lon_deg": 2, "alt_m": 3}
        for value in (True, False):
            with pytest.raises(ValueError, match=f"^{field} must be a number, got bool$"):
                GeoPoint(**{**coords, field: value})
        assert GeoPoint(**coords) == GeoPoint(1.0, 2.0, 3.0)  # ints stay accepted

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            GeoPoint(math.nan, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, math.inf)
        with pytest.raises(ValueError):
            EnuOffset(math.nan, 0.0, 0.0)

    # Coordinates at and just past the edges of the float fast path, with
    # what GeoPoint stores (a float as float.hex, an int as itself) or the
    # error it raises. RULES below holds the non-finite ones.
    @pytest.mark.parametrize(
        "args, expected",
        [
            ((90.0, 0.0), ("0x1.6800000000000p+6", "0x0.0p+0", "0x0.0p+0")),
            ((-90.0, 0.0), ("-0x1.6800000000000p+6", "0x0.0p+0", "0x0.0p+0")),
            ((90.00000000000001, 0.0), "lat_deg must be within [-90, 90], got 90.00000000000001"),
            ((-90.00000000000001, 0.0), "lat_deg must be within [-90, 90], got -90.00000000000001"),
            ((0.0, -180.0), ("0x0.0p+0", "-0x1.6800000000000p+7", "0x0.0p+0")),
            ((0.0, 180.0), ("0x0.0p+0", "-0x1.6800000000000p+7", "0x0.0p+0")),
            ((0.0, 179.99999999999997), ("0x0.0p+0", "0x1.67fffffffffffp+7", "0x0.0p+0")),
            ((0.0, -180.00000000000003), ("0x0.0p+0", "0x1.67fffffffffffp+7", "0x0.0p+0")),
            ((0.0, 0.0, -0.0), ("0x0.0p+0", "0x0.0p+0", "-0x0.0p+0")),
            ((-0.0, -0.0, 0.0), ("-0x0.0p+0", "-0x0.0p+0", "0x0.0p+0")),
            ((0.0, 0.0, 5e-324), ("0x0.0p+0", "0x0.0p+0", "0x0.0000000000001p-1022")),
            ((0.0, 0.0, -5e-324), "alt_m must be >= 0, got -5e-324"),
            ((0.0, 0.0, 1.7976931348623157e308), ("0x0.0p+0", "0x0.0p+0", "0x1.fffffffffffffp+1023")),
            ((0, 0, 0), (0, 0, 0)),
            ((90, 180, 5), (90, "-0x1.6800000000000p+7", 5)),
            ((-90, -180, 0), (-90, -180, 0)),
            ((1, 2.5, 3), (1, "0x1.4000000000000p+1", 3)),
            ((91, 0), "lat_deg must be within [-90, 90], got 91"),
            ((0, 0, -1), "alt_m must be >= 0, got -1"),
            ((True, 0.0), "lat_deg must be a number, got bool"),
            ((0.0, False), "lon_deg must be a number, got bool"),
            ((0.0, 0.0, True), "alt_m must be a number, got bool"),
        ],
        ids=repr,
    )
    def test_stored_values_and_errors(self, args, expected):
        if isinstance(expected, str):
            with pytest.raises(ValueError) as caught:
                GeoPoint(*args)
            assert str(caught.value) == expected
        else:
            p = GeoPoint(*args)
            stored = tuple(v.hex() if type(v) is float else v for v in (p.lat_deg, p.lon_deg, p.alt_m))
            assert stored == expected
            assert [type(v) for v in stored] == [type(v) for v in expected]


BEYOND_FLOAT = 10**400
# Past the 4,300 digits Python prints by default, so a message that shows it
# shows a placeholder instead.
TOO_LONG = 10**5000
SHOWN = "<int too large to print>"
ORIGIN = GeoPoint(0.0, 0.0)
RECT = CircumRectangle(0.0, 0.001, 0.0, 0.001)


def _mission(dwell_s):
    region = PolygonRegion((GeoPoint(53.0, -9.0), GeoPoint(53.001, -9.0), GeoPoint(53.001, -9.002)))
    return MissionConfig(region=region, fleet=(Agent("a", GeoPoint(53.0, -9.0), 5.0),), dwell_s=dwell_s)


# The table of geodesy._check_number's rule: a row per number field of a
# public class, per numeric parameter and per position field. A row holds the
# field (class.field or function.parameter), the name its refusals give, a
# call that passes it x, the rule as "{name} must {rule}" reads (None for a
# position, which must be a GeoPoint) and one value outside the rule.
RULES = {
    "lat_deg": ("GeoPoint.lat_deg", "lat_deg", lambda x: GeoPoint(x, 0.0), "be within [-90, 90]", 90.5),
    "lon_deg": ("GeoPoint.lon_deg", "lon_deg", lambda x: GeoPoint(0.0, x), "be finite", -math.inf),
    "alt_m": ("GeoPoint.alt_m", "alt_m", lambda x: GeoPoint(0.0, 0.0, x), "be >= 0", -math.inf),
    "east_m": ("EnuOffset.east_m", "east_m", lambda x: EnuOffset(x, 0.0), "be finite", -math.inf),
    "north_m": ("EnuOffset.north_m", "north_m", lambda x: EnuOffset(0.0, x), "be finite", -math.inf),
    "up_m": ("EnuOffset.up_m", "up_m", lambda x: EnuOffset(0.0, 0.0, x), "be finite", -math.inf),
    "min_lat": ("CircumRectangle.min_lat", "min_lat", lambda x: CircumRectangle(x, 1.0, 0.0, 1.0), "be finite", -math.inf),
    "max_lat": ("CircumRectangle.max_lat", "max_lat", lambda x: CircumRectangle(0.0, x, 0.0, 1.0), "be finite", -math.inf),
    "min_lon": ("CircumRectangle.min_lon", "min_lon", lambda x: CircumRectangle(0.0, 1.0, x, 1.0), "be finite", -math.inf),
    "max_lon": ("CircumRectangle.max_lon", "max_lon", lambda x: CircumRectangle(0.0, 1.0, 0.0, x), "be finite", -math.inf),
    "velocity_mps": (
        "Agent.velocity_mps", "velocity_mps", lambda x: Agent("a", ORIGIN, x), "be positive and finite", 0.0
    ),
    "sigma": ("RadiationSource.sigma", "sigma", lambda x: RadiationSource(ORIGIN, x), "be finite and >= 0", -1.0),
    "relative_sd": (
        "NoiseSpec.relative_sd", "relative_sd", lambda x: NoiseSpec("gaussian", x), "be finite and >= 0", -0.5
    ),
    "half_fov_deg": (
        "CameraModel.half_fov_deg", "half_fov_deg", lambda x: CameraModel(half_fov_deg=x), "be within (0, 90)", 90.0
    ),
    "overlap_fraction": (
        "CameraModel.overlap_fraction", "overlap_fraction", lambda x: CameraModel(overlap_fraction=x),
        "satisfy 0 <= overlap_fraction < 1", 1.0,
    ),
    "altitude_m": ("CameraModel.altitude_m", "altitude_m", lambda x: CameraModel(altitude_m=x), "be > 0", 0.0),
    "mission_dwell_s": ("MissionConfig.dwell_s", "dwell_s", _mission, "be finite and >= 0", -1.0),
    "dwell_s": (
        "simulate.dwell_s", "dwell_s", lambda x: simulate({}, [Agent("a", ORIGIN, 5.0)], camera=CameraModel(), dwell_s=x),
        "be finite and >= 0", -1.0,
    ),
    "spacing_m": ("generate_lattice.spacing_m", "spacing_m", lambda x: generate_lattice(RECT, x, 0.0), "be > 0", 0.0),
    "n_agents": ("mtsp_lower_bound.n_agents", "n_agents", lambda x: mtsp_lower_bound([], x), "be >= 1", 0),
    "latitude": ("meters_per_degree.lat_deg", "lat_deg", meters_per_degree, "be within [-90, 90]", -90.5),
    "home": ("Agent.home", "home", lambda x: Agent("a", x, 8.0), None, (53.0, -9.0)),
    "point": ("Waypoint.point", "point", lambda x: Waypoint(x, (0, 0)), None, (53.0, -9.0)),
    "position": ("RadiationSource.position", "position", lambda x: RadiationSource(x, 1.0), None, (53.0, -9.0)),
    "vertices": (
        "PolygonRegion.vertices", "vertices[2]", lambda x: PolygonRegion((ORIGIN, GeoPoint(0.0, 0.001), x)), None,
        (0.001, 0.0),
    ),
}
# Output records, filled from checked inputs by simulate and generate_waypoints.
UNCHECKED = {"Event.t", "Event.radiation_usv_s", "WaypointGrid.spacing_m"}


def _raises(make, message: str) -> None:
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value) == message


def _refused(row, value) -> str:
    """Check that the row's call refuses ``value`` with the message of the
    rule's form, and return it: "{name} must be a number, got {type}" (a
    GeoPoint, for a position) for a value of another type, else
    "{name} must {rule}, got {value}"."""
    _, name, make, rule, _ = RULES[row]
    if rule is None:
        message = f"{name} must be a GeoPoint, got {type(value).__name__}"
    elif type(value) is bool or not isinstance(value, (int, float)):
        message = f"{name} must be a number, got {type(value).__name__}"
    else:
        message = f"{name} must {rule}, got {SHOWN if abs(value) == TOO_LONG else value}"
    _raises(partial(make, value), message)
    return message


def test_every_number_and_position_field_is_in_the_table():
    public = [getattr(uavsurvey, name) for name in uavsurvey.__all__]
    fields = {
        f"{cls.__name__}.{f.name}"
        for cls in public if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        for f in dataclasses.fields(cls)
        if f.type in ("float", "float | None", "GeoPoint", "tuple[GeoPoint, ...]")
    }
    assert fields - {row[0] for row in RULES.values()} == UNCHECKED


# The tests below cross RULES with True, False, "7", None, 2**53 + 1, 10**400,
# +-10**5000, nan, inf and each row's value outside the rule, one test per kind
# of value. A bool is refused as a number, as the parser refuses it, so no
# value built in code serializes to a document the parser refuses.
@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("row", RULES)
def test_bool_is_refused_as_a_number(row, flag):
    assert _refused(row, flag).endswith(" got bool")


# A str, None, or an int that would serialize as itself and parse back as the
# nearest float: a ValueError naming the field, not the TypeError a
# comparison or math.isfinite raises for a str or None.
@pytest.mark.parametrize("odd", ["7", None, 2**53 + 1], ids=repr)
@pytest.mark.parametrize("row", RULES)
def test_value_no_float_equals_is_refused_naming_its_field(row, odd):
    _refused(row, odd)


# An int too large for a float is not finite: ValueError, not OverflowError.
# One too long to print is shown as a placeholder, so the message still names
# its field; so are refused ids, noise kinds and lattice indexes.
@pytest.mark.parametrize(
    "check",
    [
        pytest.param(partial(_refused, row, value), id=row + suffix)
        for row in RULES
        for suffix, value in (("", BEYOND_FLOAT), ("_too_long", TOO_LONG), ("_too_long_negative", -TOO_LONG))
    ] + [
        pytest.param(partial(_raises, partial(make, value), message), id=name + suffix)
        for name, make, message in (
            ("id", lambda x: Agent(x, ORIGIN, 5.0), f"agent id must be a string, got {SHOWN}"),
            ("kind", NoiseSpec, f"noise kind must be 'none' or 'gaussian', got {SHOWN}"),
            ("index", lambda x: Waypoint(ORIGIN, (0, x, 0)), f"lattice index must be a pair of ints, got {SHOWN}"),
        )
        for suffix, value in (("_too_long", TOO_LONG), ("_too_long_negative", -TOO_LONG))
    ],
)
def test_int_beyond_the_float_range_is_refused_with_value_error(check):
    check()


@pytest.mark.parametrize("kind", ["nan", "inf", "outside"])
@pytest.mark.parametrize("row", RULES)
def test_non_finite_or_outside_the_rule_is_refused(row, kind):
    _refused(row, {"nan": math.nan, "inf": math.inf}.get(kind, RULES[row][4]))


class TestMetersPerDegree:
    def test_equator(self):
        m_lat, m_lon = meters_per_degree(0.0)
        assert m_lat == pytest.approx(M_PER_DEG_ORACLE, rel=1e-12)
        assert m_lon == pytest.approx(M_PER_DEG_ORACLE, rel=1e-12)

    def test_pole_longitude_vanishes(self):
        _, m_lon = meters_per_degree(90.0)
        assert m_lon == pytest.approx(0.0, abs=1e-8)

    def test_sixty_degrees_halves_longitude(self):
        m_lat, m_lon = meters_per_degree(60.0)
        assert m_lon == pytest.approx(m_lat / 2.0, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="lat_deg"):
            meters_per_degree(90.5)

    def test_longitude_scale_monotone_in_abs_latitude(self):
        lats = [k * 0.9 for k in range(101)]  # 0 .. 90
        scales = [meters_per_degree(lat)[1] for lat in lats]
        assert all(a > b for a, b in zip(scales, scales[1:]))
        for lat in (3.0, 17.0, 55.0, 89.0):
            assert meters_per_degree(-lat)[1] == meters_per_degree(lat)[1]


class TestGpsDifference:
    def test_identity(self):
        p = GeoPoint(12.0, 34.0, 5.0)
        d = gps_difference(p, p)
        assert (d.east_m, d.north_m, d.up_m) == (0.0, 0.0, 0.0)

    def test_one_degree_east_at_equator(self):
        d = gps_difference(GeoPoint(0.0, 0.0, 0.0), GeoPoint(0.0, 1.0, 0.0))
        assert d.east_m == pytest.approx(M_PER_DEG_ORACLE, rel=1e-12)
        assert d.north_m == 0.0

    def test_one_degree_north_with_climb(self):
        d = gps_difference(GeoPoint(0.0, 0.0, 0.0), GeoPoint(1.0, 0.0, 32.0))
        assert d.north_m == pytest.approx(M_PER_DEG_ORACLE, rel=1e-12)
        assert d.up_m == 32.0

    def test_wide_span_warns(self):
        with pytest.warns(FlatPlaneWarning):
            gps_difference(GeoPoint(0.0, 0.0), GeoPoint(0.0, 2.5))

    def test_antimeridian_measures_short_way(self):
        d = gps_difference(GeoPoint(0.0, 179.5), GeoPoint(0.0, -179.5))
        assert d.east_m == pytest.approx(M_PER_DEG_ORACLE, rel=1e-9)


class TestGpsOffset:
    def test_zero_offset(self):
        p = GeoPoint(45.0, -120.0, 7.0)
        assert gps_offset(p, EnuOffset(0.0, 0.0, 0.0)) == p

    def test_one_degree_east_inverse(self):
        p = gps_offset(GeoPoint(0.0, 0.0, 0.0), EnuOffset(M_PER_DEG_ORACLE, 0.0, 0.0))
        assert p.lon_deg == pytest.approx(1.0, abs=1e-9)

    def test_latitude_overflow_rejected(self):
        with pytest.raises(ValueError, match="lat_deg"):
            gps_offset(GeoPoint(89.9999, 0.0), EnuOffset(0.0, 50_000.0, 0.0))

    def test_round_trip_property(self):
        rng = random.Random(1081)
        for _ in range(500):
            origin = GeoPoint(rng.uniform(-80.0, 80.0), rng.uniform(-180.0, 180.0), rng.uniform(0.0, 100.0))
            offset = EnuOffset(
                rng.uniform(-10_000.0, 10_000.0),
                rng.uniform(-10_000.0, 10_000.0),
                rng.uniform(0.0, 200.0),
            )
            target = gps_offset(origin, offset)
            back = gps_difference(origin, target)
            restored = gps_offset(origin, back)
            assert restored.lat_deg == pytest.approx(target.lat_deg, abs=1e-9)
            assert restored.lon_deg == pytest.approx(target.lon_deg, abs=1e-9)
            assert restored.alt_m == pytest.approx(target.alt_m, abs=1e-6)


class TestDistance:
    def test_coincident(self):
        p = GeoPoint(10.0, 20.0, 30.0)
        assert distance_m(p, p) == 0.0

    def test_one_degree_at_equator(self):
        assert distance_m(GeoPoint(0.0, 0.0, 0.0), GeoPoint(0.0, 1.0, 0.0)) == pytest.approx(
            M_PER_DEG_ORACLE, rel=1e-12
        )

    def test_vertical_component_included(self):
        a = GeoPoint(0.0, 0.0, 0.0)
        b = GeoPoint(0.0, 0.0, 32.0)
        assert distance_m(a, b) == 32.0

    def test_symmetry_exact(self):
        rng = random.Random(55)
        for _ in range(300):
            origin = GeoPoint(rng.uniform(-70.0, 70.0), rng.uniform(-180.0, 180.0), rng.uniform(0.0, 50.0))
            a = gps_offset(origin, EnuOffset(rng.uniform(-5e3, 5e3), rng.uniform(-5e3, 5e3), rng.uniform(0, 100)))
            b = gps_offset(origin, EnuOffset(rng.uniform(-5e3, 5e3), rng.uniform(-5e3, 5e3), rng.uniform(0, 100)))
            assert distance_m(a, b) == distance_m(b, a)

    def test_triangle_inequality(self):
        rng = random.Random(56)
        for _ in range(300):
            origin = GeoPoint(rng.uniform(-70.0, 70.0), rng.uniform(-180.0, 180.0), rng.uniform(0.0, 50.0))
            a, b, c = (
                gps_offset(origin, EnuOffset(rng.uniform(-5e3, 5e3), rng.uniform(-5e3, 5e3), rng.uniform(0, 100)))
                for _ in range(3)
            )
            direct = distance_m(a, c)
            assert distance_m(a, b) + distance_m(b, c) >= direct * (1.0 - 1e-9)

