"""Inverse-square radiation field and noisy sampling."""

from __future__ import annotations

import math
import random

import pytest

from helpers import loop_total_intensity
from uavsurvey import (
    Agent,
    CameraModel,
    EnuOffset,
    GeoPoint,
    NoiseSpec,
    PolygonRegion,
    RadiationSource,
    generate_waypoints,
    gps_offset,
    plan_routes,
    sample_reading,
    strength_at,
)
from uavsurvey.radiation import GAUSS_MAX_Z, MIN_DISTANCE_M, field_levels

ORIGIN = GeoPoint(0.0, 0.0, 0.0)


def at_distance(d: float) -> GeoPoint:
    return gps_offset(ORIGIN, EnuOffset(d, 0.0, 0.0))


class TestStrengthAt:
    def test_sigma_definition_at_one_meter(self):
        src = RadiationSource(ORIGIN, 100.0)
        assert strength_at(src, at_distance(1.0)) == pytest.approx(100.0, rel=1e-12)

    def test_ten_meters(self):
        src = RadiationSource(ORIGIN, 100.0)
        assert strength_at(src, at_distance(10.0)) == pytest.approx(1.0, rel=1e-12)

    def test_double_distance_quarters(self):
        src = RadiationSource(ORIGIN, 100.0)
        assert strength_at(src, at_distance(2.0)) == pytest.approx(25.0, rel=1e-12)

    def test_inverse_square_property(self):
        rng = random.Random(21)
        for _ in range(200):
            sigma = rng.uniform(0.0, 1e4)
            d = rng.uniform(MIN_DISTANCE_M, 5e3)
            k = rng.uniform(1.0, 10.0)
            src = RadiationSource(ORIGIN, sigma)
            near = strength_at(src, at_distance(d))
            far = strength_at(src, at_distance(k * d))
            assert far == pytest.approx(near / (k * k), rel=1e-9)

    def test_clamp_below_min_distance(self):
        src = RadiationSource(ORIGIN, 100.0)
        ceiling = 100.0 / (MIN_DISTANCE_M * MIN_DISTANCE_M)
        assert strength_at(src, ORIGIN) == ceiling
        assert strength_at(src, at_distance(0.01)) == ceiling
        assert strength_at(src, at_distance(MIN_DISTANCE_M)) == pytest.approx(ceiling, rel=1e-9)

    def test_conservation_form(self):
        # sigma * 4pi spread over a sphere of area 4pi d^2 cancels to sigma/d^2.
        rng = random.Random(22)
        for _ in range(100):
            sigma = rng.uniform(0.0, 1e3)
            d = rng.uniform(MIN_DISTANCE_M, 1e3)
            literal = (sigma * 4.0 * math.pi) / (d * d * 4.0 * math.pi)
            assert literal == pytest.approx(sigma / (d * d), rel=1e-15)

    def test_monotone_in_distance(self):
        src = RadiationSource(ORIGIN, 50.0)
        readings = [strength_at(src, at_distance(d)) for d in (0.01, 0.1, 0.5, 1, 5, 50, 500)]
        assert all(a >= b for a, b in zip(readings, readings[1:]))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            RadiationSource(ORIGIN, -1.0)


class TestTotalIntensity:
    def test_empty(self):
        assert field_levels([], [ORIGIN])[0] == 0.0

    def test_single_source_matches_strength(self):
        src = RadiationSource(ORIGIN, 42.0)
        p = at_distance(7.0)
        assert field_levels([src], [p])[0] == strength_at(src, p)

    def test_two_sources_at_ten_meters(self):
        left = RadiationSource(at_distance(-10.0), 100.0)
        right = RadiationSource(at_distance(10.0), 100.0)
        assert field_levels([left, right], [ORIGIN])[0] == pytest.approx(2.0, rel=1e-9)

    def test_superposition_over_concatenation(self):
        rng = random.Random(23)
        sources_a = [RadiationSource(at_distance(rng.uniform(1, 100)), rng.uniform(0, 100)) for _ in range(4)]
        sources_b = [RadiationSource(at_distance(rng.uniform(1, 100)), rng.uniform(0, 100)) for _ in range(3)]
        p = at_distance(55.0)
        assert field_levels(sources_a + sources_b, [p])[0] == pytest.approx(
            field_levels(sources_a, [p])[0] + field_levels(sources_b, [p])[0], rel=1e-12
        )


    def test_many_sources_add_left_to_right(self):
        # Python 3.12's sum() compensates float rounding; readings must keep
        # the plain left-to-right bits on every version.
        rng = random.Random(24)
        for _ in range(200):
            center = GeoPoint(rng.uniform(-60.0, 60.0), rng.uniform(-170.0, 170.0))
            sources = [
                RadiationSource(
                    gps_offset(center, EnuOffset(rng.uniform(-300, 300), rng.uniform(-300, 300), 0.0)),
                    rng.uniform(10.0, 500.0),
                )
                for _ in range(100)
            ]
            p = gps_offset(center, EnuOffset(rng.uniform(-200, 200), rng.uniform(-200, 200), 32.0))
            assert field_levels(sources, [p])[0] == loop_total_intensity(sources, p)


class TestFieldLevels:
    """field_levels equals a per-source strength_at loop at every point, bit for bit."""

    @staticmethod
    def assert_matches(sources, points):
        assert field_levels(sources, points) == [loop_total_intensity(sources, p) for p in points]

    @staticmethod
    def lattice(lat0, lon0, rows, cols, step_deg=1e-4, alt=32.0):
        return [GeoPoint(lat0 + i * step_deg, lon0 + j * step_deg, alt) for i in range(rows) for j in range(cols)]

    @staticmethod
    def sources_near(rng, p, n, span_m=200.0):
        return [
            RadiationSource(
                gps_offset(p, EnuOffset(rng.uniform(-span_m, span_m), rng.uniform(-span_m, span_m), -p.alt_m)),
                rng.uniform(0.0, 500.0),
            )
            for _ in range(n)
        ]

    def test_no_sources(self):
        points = self.lattice(53.3, -9.0, 3, 4)
        assert field_levels([], points) == [0.0] * len(points)
        assert field_levels(self.sources_near(random.Random(1), points[0], 5), []) == []

    def test_rows_in_route_order(self):
        rng = random.Random(25)
        points = self.lattice(53.3, -9.0, 6, 7)
        rng.shuffle(points)
        self.assert_matches(self.sources_near(rng, points[0], 70), points)

    def test_source_at_a_waypoint_clamps(self):
        rng = random.Random(26)
        points = self.lattice(-33.9, 151.2, 4, 5)
        sources = self.sources_near(rng, points[0], 20)
        sources += [RadiationSource(points[7], 50.0), RadiationSource(points[7], 80.0)]
        sources.append(RadiationSource(gps_offset(points[12], EnuOffset(0.05, 0.0, 0.0)), 10.0))
        levels = field_levels(sources, points)
        self.assert_matches(sources, points)
        assert levels[7] >= 130.0 / (MIN_DISTANCE_M * MIN_DISTANCE_M)

    def test_antimeridian(self):
        rng = random.Random(27)
        points = [GeoPoint(lat, lon, 32.0) for lat in (12.0, 12.0001) for lon in (179.9998, 179.9999, -180.0, -179.9999, -179.9998)]
        sources = [
            RadiationSource(GeoPoint(12.0 + rng.uniform(-1e-3, 1e-3), rng.choice([1, -1]) * rng.uniform(179.998, 180.0)), rng.uniform(1.0, 100.0))
            for _ in range(40)
        ]
        self.assert_matches(sources, points)

    def test_distinct_latitudes(self):
        rng = random.Random(28)
        center = GeoPoint(48.1, 11.6, 32.0)
        points = [gps_offset(center, EnuOffset(rng.uniform(-300, 300), rng.uniform(-300, 300), 0.0)) for _ in range(60)]
        assert len({p.lat_deg for p in points}) == len(points)
        self.assert_matches(self.sources_near(rng, center, 90), points)

    def test_mixed_altitudes_in_one_row(self):
        rng = random.Random(29)
        points = [GeoPoint(0.5, 0.5 + 1e-4 * j, alt) for j in range(4) for alt in (0.0, 32.0, 100.0)]
        self.assert_matches(self.sources_near(rng, points[0], 30), points)

    def test_random_rows(self):
        rng = random.Random(808)
        for _ in range(300):
            a = GeoPoint(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0), rng.uniform(0.0, 100.0))
            points = []
            for _ in range(rng.randint(1, 4)):
                lat = rng.choice([a.lat_deg, rng.uniform(-90.0, 90.0), max(-90.0, min(90.0, a.lat_deg + 1e-4))])
                alt = rng.choice([0.0, a.alt_m, 32.0])
                points += [GeoPoint(lat, rng.uniform(-180.0, 180.0), alt) for _ in range(rng.randint(0, 5))]
            self.assert_matches([RadiationSource(a, rng.uniform(0.0, 500.0))], points)

    def test_antimeridian_and_poles(self):
        sources = [
            RadiationSource(a, sigma)
            for a, sigma in zip(
                (GeoPoint(10.0, 179.9999, 5.0), GeoPoint(-10.0, -179.9999), GeoPoint(90.0, 0.0), GeoPoint(-90.0, 45.0)),
                (1.0, 20.0, 300.0, 4000.0),
            )
        ]
        for s in sources:
            points = [
                GeoPoint(lat, lon, 32.0)
                for lat in (s.position.lat_deg, 10.00001, -10.0, 90.0, -90.0)
                for lon in (179.99995, -180.0, -179.99995, 0.0, s.position.lon_deg)
            ]
            self.assert_matches([s], points)
            self.assert_matches(sources, points)

    def test_point_on_a_source(self):
        p = GeoPoint(53.3, -9.0, 32.0)
        assert field_levels([RadiationSource(p, 7.0)], [p]) == [7.0 / (MIN_DISTANCE_M * MIN_DISTANCE_M)]

    def test_same_point_twice(self):
        points = self.lattice(53.3, -9.0, 3, 3)
        points.insert(5, points[1])
        points.append(points[1])
        sources = self.sources_near(random.Random(30), points[0], 40)
        levels = field_levels(sources, points)
        assert levels[1] == levels[5] == levels[-1]
        self.assert_matches(sources, points)

    def test_non_convex_rows_with_gaps_in_route_order(self):
        # Rows of a U-shaped region are cut in two by the notch; the planner
        # visits them interleaved across agents, as simulate reads them.
        region = PolygonRegion(tuple(GeoPoint(53.27 + 1e-3 * lat, -9.06 + 1e-3 * lon) for lat, lon in (
            (0, 0), (0, 4), (3, 4), (3, 3), (1, 3), (1, 1), (3, 1), (3, 0),
        )))
        grid = generate_waypoints(region, CameraModel(altitude_m=20.0))
        fleet = [Agent(f"rav-{k}", GeoPoint(53.269, -9.061), 5.0) for k in range(3)]
        route_order = [w for route in plan_routes(fleet, grid.points).values() for w in route]
        columns = {}
        for w in route_order:
            columns.setdefault(w.index[0], []).append(w.index[1])
        assert any(len(js) < max(js) - min(js) + 1 for js in columns.values())  # a row with a gap
        points = [w.point for w in route_order]
        self.assert_matches(self.sources_near(random.Random(31), points[0], 64), points)

    def test_one_source_over_five_thousand_points(self):
        # The shape of the large survey: one source, a lattice of thousands.
        points = self.lattice(53.27, -9.065, 50, 100, step_deg=5e-5)
        self.assert_matches(self.sources_near(random.Random(32), points[0], 1, span_m=50.0), points)


class TestSampleReading:
    def test_noise_none_is_identity(self):
        assert sample_reading(5.0, NoiseSpec()) == 5.0
        assert sample_reading(0.123456789, NoiseSpec("none")) == 0.123456789

    def test_zero_sd_is_identity(self):
        rng = random.Random(0)
        assert sample_reading(5.0, NoiseSpec("gaussian", 0.0), rng) == 5.0

    def test_seeded_reproducibility(self):
        noise = NoiseSpec("gaussian", 0.1)
        a = sample_reading(5.0, noise, random.Random(77))
        b = sample_reading(5.0, noise, random.Random(77))
        assert a == b
        assert a != 5.0

    def test_clamped_at_zero(self):
        noise = NoiseSpec("gaussian", 10.0)
        rng = random.Random(13)
        readings = [sample_reading(1.0, noise, rng) for _ in range(200)]
        assert all(r >= 0.0 for r in readings)
        assert any(r == 0.0 for r in readings)

    def test_largest_gaussian_draw_is_below_the_stated_bound(self):
        """random.gauss's largest |z| comes from its two uniforms at their
        extremes: the angle at 0 and 1 - u at 2^-53. The config's reading
        bound rests on it staying below GAUSS_MAX_Z on this Python."""

        class Extreme(random.Random):
            def __init__(self, draws):
                super().__init__(0)
                self.draws = iter(draws)

            def random(self):
                return next(self.draws)

        top = 1.0 - 2.0 ** -53
        for draws in ([0.0, top], [0.5, top]):
            z = Extreme(draws).gauss(0.0, 1.0)
            assert 8.5 < abs(z) < GAUSS_MAX_Z
        noise = NoiseSpec("gaussian", 1e300)
        assert sample_reading(1e7, noise, Extreme([0.0, top])) <= 1e7 * (1.0 + GAUSS_MAX_Z * 1e300)

    def test_gaussian_requires_rng(self):
        with pytest.raises(ValueError, match="rng|generator"):
            sample_reading(1.0, NoiseSpec("gaussian", 0.1))

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            NoiseSpec("poisson")
        with pytest.raises(ValueError, match="relative_sd"):
            NoiseSpec("gaussian", -0.5)
