"""Geodesy conversions: degree scales, offsets, distance."""

from __future__ import annotations

import math
import random

import pytest

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
)
from uavsurvey.grid import CircumRectangle
from uavsurvey.sim import _check_dwell

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
    # error it raises.
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
            ((0.0, 0.0, math.inf), "alt_m must be finite"),
            ((0.0, 0.0, -math.inf), "alt_m must be finite"),
            ((0.0, 0.0, math.nan), "alt_m must be finite"),
            ((math.nan, 0.0), "lat_deg must be finite"),
            ((math.inf, 0.0), "lat_deg must be finite"),
            ((0.0, math.nan), "lon_deg must be finite"),
            ((0.0, -math.inf), "lon_deg must be finite"),
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


# Every value-class number check, given an int too large to convert to a
# float: each refuses it with ValueError, as a non-finite value. Every check
# that shows the refused value still names its field for an int too long to
# print.
@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: GeoPoint(BEYOND_FLOAT, 0.0), "lat_deg must be finite"),
        (lambda: GeoPoint(0.0, -BEYOND_FLOAT), "lon_deg must be finite"),
        (lambda: GeoPoint(0.0, 0.0, BEYOND_FLOAT), "alt_m must be finite"),
        (lambda: EnuOffset(BEYOND_FLOAT, 0.0), "east_m must be finite"),
        (lambda: EnuOffset(0.0, -BEYOND_FLOAT), "north_m must be finite"),
        (lambda: EnuOffset(0.0, 0.0, BEYOND_FLOAT), "up_m must be finite"),
        (lambda: Agent("a", GeoPoint(0.0, 0.0), BEYOND_FLOAT), "velocity_mps must be positive and finite, got 1000"),
        (lambda: RadiationSource(GeoPoint(0.0, 0.0), BEYOND_FLOAT), "sigma must be finite and >= 0, got 1000"),
        (lambda: NoiseSpec("gaussian", BEYOND_FLOAT), "relative_sd must be finite and >= 0, got 1000"),
        (lambda: CameraModel(half_fov_deg=BEYOND_FLOAT), "half_fov_deg must be within (0, 90), got 1000"),
        (
            lambda: CameraModel(overlap_fraction=-BEYOND_FLOAT),
            "overlap_fraction must satisfy 0 <= overlap_fraction < 1, got -1000",
        ),
        (lambda: CameraModel(altitude_m=BEYOND_FLOAT), "altitude_m must be > 0, got 1000"),
        (lambda: _check_dwell(BEYOND_FLOAT), "dwell_s: expected a finite number, got 1000"),
        (lambda: Agent(TOO_LONG, ORIGIN, 5.0), f"agent id must be a string, got {SHOWN}"),
        (lambda: Agent(-TOO_LONG, ORIGIN, 5.0), f"agent id must be a string, got {SHOWN}"),
        (lambda: Agent("a", ORIGIN, TOO_LONG), f"velocity_mps must be positive and finite, got {SHOWN}"),
        (lambda: Agent("a", ORIGIN, -TOO_LONG), f"velocity_mps must be positive and finite, got {SHOWN}"),
        (lambda: RadiationSource(ORIGIN, TOO_LONG), f"sigma must be finite and >= 0, got {SHOWN}"),
        (lambda: RadiationSource(ORIGIN, -TOO_LONG), f"sigma must be finite and >= 0, got {SHOWN}"),
        (lambda: NoiseSpec(TOO_LONG), f"noise kind must be 'none' or 'gaussian', got {SHOWN}"),
        (lambda: NoiseSpec(-TOO_LONG), f"noise kind must be 'none' or 'gaussian', got {SHOWN}"),
        (lambda: NoiseSpec("gaussian", TOO_LONG), f"relative_sd must be finite and >= 0, got {SHOWN}"),
        (lambda: NoiseSpec("gaussian", -TOO_LONG), f"relative_sd must be finite and >= 0, got {SHOWN}"),
        (lambda: CameraModel(half_fov_deg=TOO_LONG), f"half_fov_deg must be within (0, 90), got {SHOWN}"),
        (lambda: CameraModel(half_fov_deg=-TOO_LONG), f"half_fov_deg must be within (0, 90), got {SHOWN}"),
        (
            lambda: CameraModel(overlap_fraction=TOO_LONG),
            f"overlap_fraction must satisfy 0 <= overlap_fraction < 1, got {SHOWN}",
        ),
        (
            lambda: CameraModel(overlap_fraction=-TOO_LONG),
            f"overlap_fraction must satisfy 0 <= overlap_fraction < 1, got {SHOWN}",
        ),
        (lambda: CameraModel(altitude_m=TOO_LONG), f"altitude_m must be > 0, got {SHOWN}"),
        (lambda: CameraModel(altitude_m=-TOO_LONG), f"altitude_m must be > 0, got {SHOWN}"),
        (lambda: _check_dwell(TOO_LONG), f"dwell_s: expected a finite number, got {SHOWN}"),
        (lambda: _check_dwell(-TOO_LONG), f"dwell_s: expected a finite number, got {SHOWN}"),
        (lambda: Waypoint(ORIGIN, (TOO_LONG,)), f"lattice index must be a pair of ints, got {SHOWN}"),
        (lambda: Waypoint(ORIGIN, (0, -TOO_LONG, 0)), f"lattice index must be a pair of ints, got {SHOWN}"),
        (
            lambda: generate_lattice(CircumRectangle(0.0, 0.001, 0.0, 0.001), -TOO_LONG, 0.0),
            f"spacing_m must be > 0, got {SHOWN}",
        ),
        (lambda: mtsp_lower_bound([], -TOO_LONG), f"n_agents must be >= 1, got {SHOWN}"),
        (
            lambda: generate_lattice(CircumRectangle(0.0, 0.001, 0.0, 0.001), BEYOND_FLOAT, 0.0),
            "spacing_m must be finite, got 1000",
        ),
        (
            lambda: generate_lattice(CircumRectangle(0.0, 0.001, 0.0, 0.001), TOO_LONG, 0.0),
            f"spacing_m must be finite, got {SHOWN}",
        ),
        (
            lambda: generate_lattice(CircumRectangle(0.0, 0.001, 0.0, 0.001), math.inf, 0.0),
            "spacing_m must be finite, got inf",
        ),
        (lambda: mtsp_lower_bound([], BEYOND_FLOAT), "n_agents must be finite, got 1000"),
        (lambda: mtsp_lower_bound([], TOO_LONG), f"n_agents must be finite, got {SHOWN}"),
        (lambda: meters_per_degree(TOO_LONG), f"latitude out of range [-90, 90]: {SHOWN}"),
        (lambda: meters_per_degree(-TOO_LONG), f"latitude out of range [-90, 90]: {SHOWN}"),
    ],
    ids=[
        "lat_deg", "lon_deg", "alt_m", "east_m", "north_m", "up_m", "velocity_mps", "sigma", "relative_sd",
        "half_fov_deg", "overlap_fraction", "altitude_m", "dwell_s",
        "id_too_long", "id_too_long_negative", "velocity_mps_too_long", "velocity_mps_too_long_negative",
        "sigma_too_long", "sigma_too_long_negative", "kind_too_long", "kind_too_long_negative",
        "relative_sd_too_long", "relative_sd_too_long_negative", "half_fov_deg_too_long",
        "half_fov_deg_too_long_negative", "overlap_fraction_too_long", "overlap_fraction_too_long_negative",
        "altitude_m_too_long", "altitude_m_too_long_negative", "dwell_s_too_long", "dwell_s_too_long_negative",
        "index_too_long", "index_too_long_negative", "spacing_m_too_long_negative", "n_agents_too_long_negative",
        "spacing_m_beyond_float", "spacing_m_too_long", "spacing_m_infinite",
        "n_agents_beyond_float", "n_agents_too_long",
        "latitude_too_long", "latitude_too_long_negative",
    ],
)
def test_int_beyond_the_float_range_is_refused_with_value_error(make, message):
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value).startswith(message)


def _mission(dwell_s):
    region = PolygonRegion((GeoPoint(53.0, -9.0), GeoPoint(53.001, -9.0), GeoPoint(53.001, -9.002)))
    return MissionConfig(region=region, fleet=(Agent("a", GeoPoint(53.0, -9.0), 5.0),), dwell_s=dwell_s)


# Every value-class number field given a bool: each refuses it, as the parser
# does, so no value built in code serializes to a document the parser refuses
# with "expected a number, got bool". GeoPoint names the bool; "{}" in a
# message stands for the bool shown.
@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize(
    "make, message",
    [
        (lambda b: GeoPoint(b, 0.0), "lat_deg must be a number, got bool"),
        (lambda b: GeoPoint(0.0, b), "lon_deg must be a number, got bool"),
        (lambda b: GeoPoint(0.0, 0.0, b), "alt_m must be a number, got bool"),
        (lambda b: EnuOffset(b, 0.0), "east_m must be finite"),
        (lambda b: EnuOffset(0.0, b), "north_m must be finite"),
        (lambda b: EnuOffset(0.0, 0.0, b), "up_m must be finite"),
        (lambda b: Agent("a", ORIGIN, b), "velocity_mps must be positive and finite, got {}"),
        (lambda b: RadiationSource(ORIGIN, b), "sigma must be finite and >= 0, got {}"),
        (lambda b: NoiseSpec("gaussian", b), "relative_sd must be finite and >= 0, got {}"),
        (lambda b: CameraModel(half_fov_deg=b), "half_fov_deg must be within (0, 90), got {}"),
        (
            lambda b: CameraModel(overlap_fraction=b),
            "overlap_fraction must satisfy 0 <= overlap_fraction < 1, got {}",
        ),
        (lambda b: CameraModel(altitude_m=b), "altitude_m must be > 0, got {}"),
        (_mission, "dwell_s: expected a finite number, got {}"),
    ],
    ids=[
        "lat_deg", "lon_deg", "alt_m", "east_m", "north_m", "up_m", "velocity_mps", "sigma", "relative_sd",
        "half_fov_deg", "overlap_fraction", "altitude_m", "dwell_s",
    ],
)
def test_bool_is_refused_as_a_number(make, message, flag):
    with pytest.raises(ValueError) as caught:
        make(flag)
    assert str(caught.value) == message.format(flag)


# Every value-class number field and numeric parameter, given a value no
# float equals: a str, None, or an int that would serialize as itself and
# parse back as the nearest float. Each refuses it with ValueError, not the
# TypeError a comparison or math.isfinite raises for a str or None, and the
# message starts with its name.
@pytest.mark.parametrize("odd", ["7", None, 2**53 + 1], ids=repr)
@pytest.mark.parametrize(
    "name, make",
    [
        ("lat_deg", lambda x: GeoPoint(x, 0.0)),
        ("lon_deg", lambda x: GeoPoint(0.0, x)),
        ("alt_m", lambda x: GeoPoint(0.0, 0.0, x)),
        ("east_m", lambda x: EnuOffset(x, 0.0)),
        ("north_m", lambda x: EnuOffset(0.0, x)),
        ("up_m", lambda x: EnuOffset(0.0, 0.0, x)),
        ("velocity_mps", lambda x: Agent("a", ORIGIN, x)),
        ("sigma", lambda x: RadiationSource(ORIGIN, x)),
        ("relative_sd", lambda x: NoiseSpec("gaussian", x)),
        ("half_fov_deg", lambda x: CameraModel(half_fov_deg=x)),
        ("overlap_fraction", lambda x: CameraModel(overlap_fraction=x)),
        ("altitude_m", lambda x: CameraModel(altitude_m=x)),
        ("dwell_s", _check_dwell),
        ("dwell_s", _mission),
        ("spacing_m", lambda x: generate_lattice(CircumRectangle(0.0, 0.001, 0.0, 0.001), x, 0.0)),
        ("n_agents", lambda x: mtsp_lower_bound([], x)),
        ("latitude", meters_per_degree),
    ],
    ids=[
        "lat_deg", "lon_deg", "alt_m", "east_m", "north_m", "up_m", "velocity_mps", "sigma", "relative_sd",
        "half_fov_deg", "overlap_fraction", "altitude_m", "check_dwell", "mission_dwell_s", "spacing_m",
        "n_agents", "latitude",
    ],
)
def test_value_no_float_equals_is_refused_naming_its_field(name, make, odd):
    with pytest.raises(ValueError) as caught:
        make(odd)
    assert str(caught.value).startswith(name)


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
        with pytest.raises(ValueError, match="latitude"):
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

