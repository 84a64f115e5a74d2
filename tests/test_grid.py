"""Survey grid: bounding rectangle, spacing formula, lattice, ray-cast filter."""

from __future__ import annotations

import json
import math
import random
import warnings
from fractions import Fraction

import pytest

from helpers import (
    REPO_CONFIG,
    convex_contains,
    pairwise_first_crossing,
    random_convex_polygon,
    random_star_polygon,
    ray_cast_point_in_polygon,
    winding_number_inside,
)
from uavsurvey import (
    CameraModel,
    CircumRectangle,
    EmptyGridWarning,
    EnuOffset,
    FlatPlaneWarning,
    GeoPoint,
    PolygonRegion,
    Waypoint,
    bounding_rectangle,
    footprint_width,
    generate_lattice,
    generate_waypoints,
    gps_difference,
    gps_offset,
    grid_spacing,
    meters_per_degree,
    parse_mission_config,
    point_in_polygon,
)
from uavsurvey import grid


def poly(*lat_lon: tuple[float, float]) -> PolygonRegion:
    return PolygonRegion(tuple(GeoPoint(lat, lon) for lat, lon in lat_lon))


def collinear_triangle(vertices) -> bool:
    """Three vertices on one line, by an exact rational cross product."""
    if len(vertices) != 3:
        return False
    (ay, ax), (by, bx), (cy, cx) = [(Fraction(v.lat_deg), Fraction(v.lon_deg)) for v in vertices]
    return (bx - ax) * (cy - ay) == (by - ay) * (cx - ax)


def sawtooth_comb_sides() -> tuple[list, list]:
    """The west and east sides, as (lat, lon) lists, of a zigzag band of 40
    teeth on quarter-degree latitudes, 0.25 degrees of longitude wide."""
    west = [(k / 4, 10.0 if k % 2 else 0.0) for k in range(81)]
    return west, [(lat, lon + 0.25) for lat, lon in reversed(west)]


def quarter_grid_polygons(rng: random.Random, count: int) -> list[PolygonRegion]:
    """``count`` simple polygons of 3-12 vertices on the quarter-unit grid
    over [0, 2] x [0, 2]: collinear and horizontal edges are common."""
    regions = []
    while len(regions) < count:
        vertices = [GeoPoint(rng.randint(0, 8) / 4, rng.randint(0, 8) / 4)]
        for _ in range(rng.randint(2, 11)):
            v = GeoPoint(rng.randint(0, 8) / 4, rng.randint(0, 8) / 4)
            if v != vertices[-1]:
                vertices.append(v)
        try:
            regions.append(PolygonRegion(tuple(vertices)))
        except ValueError:
            continue
    return regions


# U-shaped region: two prongs pointing north, notch between longitudes 1 and 3.
U_NOTCH = poly(
    (0.0, 0.0), (0.0, 4.0), (3.0, 4.0), (3.0, 3.0),
    (1.0, 3.0), (1.0, 1.0), (3.0, 1.0), (3.0, 0.0),
)

UNIT_SQUARE = poly((0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0))


class TestPolygonRegion:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError, match="at least 3"):
            poly((0.0, 0.0), (0.0, 1.0))

    def test_rejects_repeated_consecutive_vertex(self):
        with pytest.raises(ValueError, match="repeated"):
            poly((0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (1.0, 0.0))

    def test_rejects_longitude_span_of_half_the_globe(self):
        poly((0.0, -89.95), (1.0, -89.95), (1.0, 90.0))  # 179.95 degrees: accepted
        with pytest.raises(ValueError, match="span 180.0 degrees"):
            poly((0.0, -90.0), (1.0, -90.0), (1.0, 90.0))

    def test_rejects_self_intersection(self):
        # bowtie
        with pytest.raises(ValueError, match="intersect"):
            poly((0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0))

    @pytest.mark.parametrize(
        "lat_lon",
        [
            ((0.0, 0.0), (0.002, 0.0), (0.001, 0.0)),
            ((0.0, 0.0), (0.0, 0.002), (0.0, 0.001)),
            ((0.0, 0.0), (0.001, 0.001), (0.002, 0.002)),
            ((53.25, -9.0), (53.5, -9.25), (53.375, -9.125)),
        ],
        ids=["meridian", "parallel", "diagonal", "diagonal-fold-back"],
    )
    def test_rejects_a_zero_area_triangle(self, lat_lon):
        # A triangle has no non-adjacent edge pair, so only its area shows
        # that its vertices lie on one line.
        with pytest.raises(ValueError, match=r"^polygon's 3 vertices are collinear; region must have nonzero area$"):
            poly(*lat_lon)

    def test_accepts_a_near_collinear_sliver(self):
        region = poly((0.0, 0.0), (0.0, 0.002), (1e-9, 0.001))
        assert len(region.vertices) == 3


class TestSimplicityMatchesPairwise:
    """The edge sweep reports the first crossing pair the all-pairs loop finds."""

    @staticmethod
    def assert_same_pair(vertices) -> bool:
        """True if the polygon is simple. A triangle of collinear vertices,
        which has no edge pair to check, is refused for its zero area."""
        expected = pairwise_first_crossing(vertices)
        if expected is None and collinear_triangle(vertices):
            with pytest.raises(ValueError, match="^polygon's 3 vertices are collinear"):
                PolygonRegion(vertices)
            return False
        if expected is None:
            PolygonRegion(vertices)
        else:
            i, j = expected
            with pytest.raises(ValueError, match=rf"^polygon edges {i} and {j} intersect; region must be simple$"):
                PolygonRegion(vertices)
        return expected is None

    def test_random_stars_with_swapped_vertices(self):
        rng = random.Random(4250)
        simple = 0
        for _ in range(200):
            center = GeoPoint(rng.uniform(-60.0, 60.0), rng.uniform(-170.0, 170.0))
            vertices = list(random_star_polygon(rng, center, rng.randint(4, 128), 40.0, 300.0).vertices)
            for _ in range(rng.randint(0, 2)):
                a, b = rng.randrange(len(vertices)), rng.randrange(len(vertices))
                vertices[a], vertices[b] = vertices[b], vertices[a]
            simple += self.assert_same_pair(tuple(vertices))
        assert 0 < simple < 200

    def test_quarter_grid_polygons(self):
        # Vertices on a coarse grid of exact binary fractions: collinear
        # edges, edges meeting at a vertex, and overlapping edges are common.
        rng = random.Random(4251)
        simple = tried = 0
        while tried < 1500:
            vertices = [GeoPoint(rng.randint(0, 8) / 4, rng.randint(0, 8) / 4)]
            for _ in range(rng.randint(2, 11)):
                v = GeoPoint(rng.randint(0, 8) / 4, rng.randint(0, 8) / 4)
                if v != vertices[-1]:
                    vertices.append(v)
            if len(vertices) < 3 or vertices[0] == vertices[-1]:
                continue
            tried += 1
            simple += self.assert_same_pair(tuple(vertices))
        assert 0 < simple < tried

    def test_sawtooth_comb(self):
        # A zigzag band of 40 teeth: every edge's longitude range overlaps
        # every other's, so only the latitude test prunes pairs.
        west, east = sawtooth_comb_sides()
        assert self.assert_same_pair(tuple(GeoPoint(lat, lon) for lat, lon in west + east))
        for k, lon in ((41, 10.5), (41, 10.25), (7, 10.5), (79, 10.25), (12, 0.5)):
            bent = west[:k] + [(k / 4, lon)] + west[k + 1:]
            assert not self.assert_same_pair(tuple(GeoPoint(lat, lon) for lat, lon in bent + east))
        touch = east[:30] + [(east[30][0], east[30][1] - 0.25)] + east[31:]
        assert not self.assert_same_pair(tuple(GeoPoint(lat, lon) for lat, lon in west + touch))


class TestBoundingRectangle:
    def test_triangle(self):
        rect = bounding_rectangle(poly((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)))
        assert (rect.min_lat, rect.max_lat, rect.min_lon, rect.max_lon) == (0.0, 1.0, 0.0, 1.0)

    def test_square_is_its_own_bound(self):
        rect = bounding_rectangle(UNIT_SQUARE)
        assert (rect.min_lat, rect.max_lat, rect.min_lon, rect.max_lon) == (0.0, 1.0, 0.0, 1.0)

    def test_mixed_signs(self):
        rect = bounding_rectangle(poly((-1.0, 2.0), (3.0, -4.0), (0.0, 0.0)))
        assert (rect.min_lat, rect.max_lat, rect.min_lon, rect.max_lon) == (-1.0, 3.0, -4.0, 2.0)

    def test_rect_invariant(self):
        with pytest.raises(ValueError):
            CircumRectangle(1.0, 0.0, 0.0, 1.0)


class TestGridSpacing:
    def test_zero_overlap_full_footprint(self):
        cam = CameraModel(half_fov_deg=45.0, overlap_fraction=0.0, altitude_m=1.0)
        assert grid_spacing(cam) == pytest.approx(2.0, rel=1e-12)

    def test_survey_defaults(self):
        # 2 * 32 * tan(45 deg) * 0.8 / 1.2, high-precision value 42.666...
        cam = CameraModel(half_fov_deg=45.0, overlap_fraction=0.2, altitude_m=32.0)
        assert grid_spacing(cam) == pytest.approx(42.666666666666664, rel=1e-9)

    def test_near_total_overlap_shrinks_spacing(self):
        cam = CameraModel(half_fov_deg=45.0, overlap_fraction=0.999, altitude_m=32.0)
        expected = 2.0 * 32.0 * math.tan(math.radians(45.0)) * (0.001 / 1.999)
        assert grid_spacing(cam) == pytest.approx(expected, rel=1e-12)
        with pytest.raises(ValueError, match="overlap_fraction"):
            CameraModel(half_fov_deg=45.0, overlap_fraction=1.0, altitude_m=32.0)

    def test_camera_invariants(self):
        with pytest.raises(ValueError, match="half_fov_deg"):
            CameraModel(half_fov_deg=90.0)
        with pytest.raises(ValueError, match="altitude_m"):
            CameraModel(altitude_m=0.0)
        # The footprint 2 * h * tan(half FOV) must not overflow to inf.
        with pytest.raises(ValueError, match="footprint width"):
            CameraModel(altitude_m=1e308)
        with pytest.raises(ValueError, match="footprint width"):
            CameraModel(half_fov_deg=89.99, altitude_m=1e305)
        assert math.isfinite(footprint_width(CameraModel(half_fov_deg=89.9, altitude_m=1e305)))

    def test_overlap_identity(self):
        rng = random.Random(99)
        for _ in range(300):
            cam = CameraModel(
                half_fov_deg=rng.uniform(5.0, 85.0),
                overlap_fraction=rng.uniform(0.0, 0.95),
                altitude_m=rng.uniform(1.0, 200.0),
            )
            w = grid_spacing(cam)
            big_w = footprint_width(cam)
            assert (big_w - w) / (big_w + w) == pytest.approx(cam.overlap_fraction, abs=1e-12)


class TestGenerateLattice:
    def test_exact_two_spacings_gives_three_per_axis(self):
        spacing = 42.666666666666664
        m_lat, m_lon = meters_per_degree(0.0)
        rect = CircumRectangle(0.0, 2.0 * (spacing / m_lat), 0.0, 2.0 * (spacing / m_lon))
        points = generate_lattice(rect, spacing, 32.0)
        assert len(points) == 9
        assert {wp.index for wp in points} == {(i, j) for i in range(3) for j in range(3)}

    def test_zero_area_rect_single_point(self):
        rect = CircumRectangle(10.0, 10.0, 20.0, 20.0)
        points = generate_lattice(rect, 5.0, 32.0)
        assert len(points) == 1
        assert points[0].point == GeoPoint(10.0, 20.0, 32.0)
        assert points[0].index == (0, 0)

    def test_hundred_meter_rect_overhangs(self):
        # ceil(100 / 42.667) + 1 = 4 per axis; last row/column overhangs.
        spacing = 42.666666666666664
        m_lat, m_lon = meters_per_degree(0.0)
        rect = CircumRectangle(0.0, 100.0 / m_lat, 0.0, 100.0 / m_lon)
        points = generate_lattice(rect, spacing, 32.0)
        assert len(points) == 16
        assert max(wp.index[0] for wp in points) == 3
        assert max(wp.index[1] for wp in points) == 3

    def test_row_major_order(self):
        spacing = 50.0
        m_lat, m_lon = meters_per_degree(0.0)
        rect = CircumRectangle(0.0, 60.0 / m_lat, 0.0, 60.0 / m_lon)
        points = generate_lattice(rect, spacing, 10.0)
        assert [wp.index for wp in points] == sorted(wp.index for wp in points)

    def test_bad_spacing(self):
        rect = CircumRectangle(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="spacing_m"):
            generate_lattice(rect, 0.0, 32.0)

    def test_lattice_over_the_ceiling_refused_before_it_is_built(self, monkeypatch):
        def no_point(*args):
            raise AssertionError("a lattice point was built")

        monkeypatch.setattr(grid, "Waypoint", no_point)
        rect = CircumRectangle(53.0, 53.01, -9.0, -8.99)  # about 1113 m x 670 m
        assert grid.MAX_LATTICE_POINTS == 1_000_000
        with pytest.raises(ValueError, match=r"^grid spacing 0\.5 m over a 1113 m x 670 m rectangle gives more than 1000000 lattice points$"):
            generate_lattice(rect, 0.5, 32.0)
        with pytest.raises(ValueError, match="more than 1000000"):
            generate_lattice(rect, 5e-324, 32.0)

    @pytest.mark.parametrize("lat, steps, size", [(16.0, 2.0, 9), (0.0, 2.34375, 16)])
    def test_ceiling_is_the_exact_lattice_size(self, lat, steps, size, monkeypatch):
        # Two degree steps north of 16 N span 2.000000000005 spacings in
        # meters, so ceil(span / spacing) + 1 is 4 rows while 3 are built.
        spacing = 42.666666666666664
        m_lat, m_lon = meters_per_degree(lat)
        rect = CircumRectangle(lat, lat + steps * (spacing / m_lat), 0.0, steps * (spacing / m_lon))
        monkeypatch.setattr(grid, "MAX_LATTICE_POINTS", size)
        assert len(generate_lattice(rect, spacing, 32.0)) == size

        def no_point(*args):
            raise AssertionError("a lattice point was built")

        monkeypatch.setattr(grid, "MAX_LATTICE_POINTS", size - 1)
        monkeypatch.setattr(grid, "Waypoint", no_point)
        with pytest.raises(ValueError, match=f"gives more than {size - 1} lattice points$"):
            generate_lattice(rect, spacing, 32.0)

    def test_degenerate_config_parses_without_warning(self):
        # The campus at 100 km: a 133 km spacing over a 480 m rectangle.
        doc = json.loads(REPO_CONFIG.read_text(encoding="utf-8"))
        doc["camera"]["altitude_m"] = 1e5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = parse_mission_config(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            survey = generate_waypoints(config.region, config.camera)
        # The only lattice point in the rectangle is its SW corner, outside the campus.
        assert [w.category for w in caught] == [EmptyGridWarning]
        assert survey.points == ()

    @pytest.mark.parametrize("seed", range(3))
    def test_spacing_past_ten_rectangles_keeps_at_most_the_sw_corner(self, seed):
        # Small regions under a spacing over 10x their rectangle on both
        # axes: the one lattice rule puts every point but the SW corner past
        # the north or east edge, so the grid is that corner where the
        # region holds it and empty, with EmptyGridWarning alone, elsewhere.
        rng = random.Random(seed)
        found = {True: 0, False: 0}
        for _ in range(60):
            lat, lon = rng.uniform(-60.0, 60.0), rng.uniform(-170.0, 170.0)
            if rng.random() < 0.3:
                dlat, dlon = rng.uniform(1e-6, 1e-3), rng.uniform(1e-6, 1e-3)
                region = poly((lat, lon), (lat + dlat, lon), (lat + dlat, lon + dlon), (lat, lon + dlon))
            else:
                region = random_star_polygon(rng, GeoPoint(lat, lon), rng.randint(3, 9), 1.0, rng.uniform(2.0, 500.0))
            rect = bounding_rectangle(region)
            m_lat, m_lon = meters_per_degree(rect.min_lat)
            span_m = max((rect.max_lat - rect.min_lat) * m_lat, (rect.max_lon - rect.min_lon) * m_lon)
            camera = CameraModel(altitude_m=span_m * rng.uniform(7.6, 1000.0))
            assert grid_spacing(camera) > 10.0 * span_m
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                points = generate_waypoints(region, camera).points
            corner = GeoPoint(rect.min_lat, rect.min_lon, camera.altitude_m)
            held = point_in_polygon(corner, region)
            found[held] += 1
            if held:
                assert points == (Waypoint(corner, (0, 0)),)
                assert caught == []
            else:
                assert points == ()
                assert [w.category for w in caught] == [EmptyGridWarning]
        assert min(found.values()) > 5, found

    def test_altitude_applied(self):
        rect = CircumRectangle(0.0, 0.001, 0.0, 0.001)
        for wp in generate_lattice(rect, 40.0, 32.0):
            assert wp.point.alt_m == 32.0

    def test_row_past_north_pole_refused(self):
        # The overhang row above 89.99995 N would sit at 90.0000833 N. The
        # region spans 10 degrees of longitude, so it also strains the flat plane.
        region = poly((89.9997, 0.0), (89.99995, 0.0), (89.99995, 10.0))
        with pytest.raises(ValueError, match=r"passes the north pole.*\(42\.667 m\)"):
            with pytest.warns(FlatPlaneWarning, match=r"span of \(0\.000, 10\.000\) degrees"):
                generate_waypoints(region, CameraModel())


class TestPointInPolygon:
    def test_square_center_inside(self):
        assert point_in_polygon(GeoPoint(0.5, 0.5), UNIT_SQUARE)

    def test_beyond_edge_outside(self):
        assert not point_in_polygon(GeoPoint(0.5, 1.5), UNIT_SQUARE)

    def test_u_notch_point_outside(self):
        # Inside the notch: an eastward ray crosses the boundary twice.
        assert not point_in_polygon(GeoPoint(2.0, 2.0), U_NOTCH)

    def test_u_prong_point_inside(self):
        assert point_in_polygon(GeoPoint(1.5, 0.5), U_NOTCH)
        assert point_in_polygon(GeoPoint(2.5, 3.5), U_NOTCH)

    def test_boundary_counts_as_inside(self):
        assert point_in_polygon(GeoPoint(0.0, 0.5), UNIT_SQUARE)  # edge midpoint
        assert point_in_polygon(GeoPoint(1.0, 1.0), UNIT_SQUARE)  # corner
        assert point_in_polygon(GeoPoint(0.5, 0.0), UNIT_SQUARE)  # west edge

    def test_ray_through_vertex_not_double_counted(self):
        diamond = poly((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
        assert not point_in_polygon(GeoPoint(0.0, -2.0), diamond)
        assert point_in_polygon(GeoPoint(0.0, 0.0), diamond)

    def test_matches_winding_oracle(self):
        rng = random.Random(424)
        center = GeoPoint(48.0, 11.0)
        for _ in range(250):
            region = random_star_polygon(rng, center, rng.randint(3, 12), 50.0, 400.0)
            rect = bounding_rectangle(region)
            for _ in range(4):
                lat = rng.uniform(rect.min_lat - 0.001, rect.max_lat + 0.001)
                lon = rng.uniform(rect.min_lon - 0.001, rect.max_lon + 0.001)
                p = GeoPoint(lat, lon)
                assert point_in_polygon(p, region) == winding_number_inside(lat, lon, region.vertices)

    def test_matches_convex_oracle(self):
        rng = random.Random(425)
        center = GeoPoint(-33.0, 151.0)
        for _ in range(100):
            region = random_convex_polygon(rng, center, rng.randint(3, 10), 300.0)
            rect = bounding_rectangle(region)
            for _ in range(5):
                lat = rng.uniform(rect.min_lat - 0.001, rect.max_lat + 0.001)
                lon = rng.uniform(rect.min_lon - 0.001, rect.max_lon + 0.001)
                p = GeoPoint(lat, lon)
                assert point_in_polygon(p, region) == convex_contains(lat, lon, region.vertices)


class TestGenerateWaypoints:
    CAM = CameraModel(half_fov_deg=45.0, overlap_fraction=0.2, altitude_m=32.0)

    def square_region(self, side_m: float) -> PolygonRegion:
        m_lat, m_lon = meters_per_degree(0.0)
        return poly((0.0, 0.0), (0.0, side_m / m_lon), (side_m / m_lat, side_m / m_lon), (side_m / m_lat, 0.0))

    def test_rectangle_region_keeps_interior_lattice(self):
        # Side an exact multiple of the spacing: no lattice overhang survives
        # construction, so the filter removes nothing.
        spacing = grid_spacing(self.CAM)
        region = self.square_region(2.0 * spacing)
        grid = generate_waypoints(region, self.CAM)
        lattice = generate_lattice(bounding_rectangle(region), grid.spacing_m, self.CAM.altitude_m)
        assert len(grid.points) == len(lattice) == 9

    def test_hundred_meter_square_mission(self):
        # 4x4 lattice; the overhanging row and column fall outside the polygon
        # and are filtered, leaving the 3x3 interior.
        grid = generate_waypoints(self.square_region(100.0), self.CAM)
        assert len(grid.points) == 9
        assert {wp.index for wp in grid.points} == {(i, j) for i in range(3) for j in range(3)}

    def test_triangle_filters_and_survivors_pass(self):
        m_lat, m_lon = meters_per_degree(0.0)
        region = poly((0.0, 0.0), (0.0, 100.0 / m_lon), (100.0 / m_lat, 0.0))
        grid = generate_waypoints(region, self.CAM)
        lattice = generate_lattice(bounding_rectangle(region), grid.spacing_m, self.CAM.altitude_m)
        assert 0 < len(grid.points) < len(lattice)
        for wp in grid.points:
            assert point_in_polygon(wp.point, region)

    def test_filter_soundness_and_completeness(self):
        rng = random.Random(777)
        center = GeoPoint(53.3, -9.0)
        for _ in range(25):
            region = random_star_polygon(rng, center, rng.randint(4, 10), 60.0, 300.0)
            grid = generate_waypoints(region, self.CAM)
            lattice = generate_lattice(bounding_rectangle(region), grid.spacing_m, self.CAM.altitude_m)
            expected = [wp for wp in lattice if point_in_polygon(wp.point, region)]
            assert list(grid.points) == expected

    def test_thin_polygon_empty_grid_warns(self):
        m_lat, m_lon = meters_per_degree(0.0)
        # An anti-diagonal sliver under a meter wide: its bounding rectangle
        # spans 100 m so the lattice is real, but no lattice point hits the
        # strip ((i + j) * 42.67 m never lands in [100, 100.7]).
        region = poly(
            (0.0, 100.0 / m_lon),
            (0.0, 100.7 / m_lon),
            (100.0 / m_lat, 0.7 / m_lon),
            (100.0 / m_lat, 0.0),
        )
        with pytest.warns(EmptyGridWarning):
            grid = generate_waypoints(region, self.CAM)
        assert grid.points == ()

    def test_wide_region_warns_flat_plane(self):
        # 1.5 x 1.5 degrees seen from 20 km: a 26.7 km spacing leaves 49 waypoints.
        region = poly((0.0, 0.0), (0.0, 1.5), (1.5, 1.5), (1.5, 0.0))
        with pytest.warns(FlatPlaneWarning, match=r"span of \(1\.500, 1\.500\) degrees exceeds 1\.0"):
            grid = generate_waypoints(region, CameraModel(altitude_m=20000.0))
        assert len(grid.points) == 49

    def test_campus_region_raises_no_warning(self):
        config = parse_mission_config(REPO_CONFIG.read_text(encoding="utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = generate_waypoints(config.region, config.camera)
        assert grid.points

    def test_lattice_regularity(self):
        # East coordinates measured from the SW corner step by one spacing
        # along each row.
        region = random_star_polygon(random.Random(31), GeoPoint(53.3, -9.0), 8, 100.0, 350.0)
        grid = generate_waypoints(region, self.CAM)
        rect = bounding_rectangle(region)
        sw = GeoPoint(rect.min_lat, rect.min_lon, self.CAM.altitude_m)
        east = {wp.index: gps_difference(sw, wp.point).east_m for wp in grid.points}
        rows: dict[int, list[tuple[int, float]]] = {}
        for (i, j), e in east.items():
            rows.setdefault(i, []).append((j, e))
        checked = 0
        for cells in rows.values():
            cells.sort()
            for (j1, e1), (j2, e2) in zip(cells, cells[1:]):
                if j2 == j1 + 1:
                    assert e2 - e1 == pytest.approx(grid.spacing_m, abs=1e-6)
                    checked += 1
        assert checked > 0


class TestRowFilterMatchesRayCast:
    """The row filter keeps exactly the lattice points the per-edge ray cast keeps."""

    CAM = CameraModel(half_fov_deg=45.0, overlap_fraction=0.2, altitude_m=16.0)

    def assert_same_as_ray_cast(self, region, cam):
        """The region's waypoints are the lattice points the ray cast keeps;
        returns the lattice and those points."""
        survey = generate_waypoints(region, cam)
        lattice = generate_lattice(bounding_rectangle(region), survey.spacing_m, cam.altitude_m)
        expected = tuple(wp for wp in lattice if ray_cast_point_in_polygon(wp.point, region))
        assert survey.points == expected
        return lattice, expected

    def test_star_polygons(self):
        rng = random.Random(4242)
        for _ in range(20):
            center = GeoPoint(rng.uniform(-60.0, 60.0), rng.uniform(-170.0, 170.0))
            region = random_star_polygon(rng, center, rng.randint(8, 96), 40.0, 300.0)
            self.assert_same_as_ray_cast(region, self.CAM)

    def test_convex_polygons(self):
        rng = random.Random(4243)
        for _ in range(20):
            center = GeoPoint(rng.uniform(-60.0, 60.0), rng.uniform(-170.0, 170.0))
            region = random_convex_polygon(rng, center, rng.randint(3, 40), 300.0)
            self.assert_same_as_ray_cast(region, self.CAM)

    def test_single_points_at_vertices_and_edges(self):
        rng = random.Random(4244)
        for _ in range(30):
            region = random_star_polygon(rng, GeoPoint(48.0, 11.0), rng.randint(3, 24), 50.0, 400.0)
            v = region.vertices
            probes = list(v)
            probes += [GeoPoint(0.5 * (a.lat_deg + b.lat_deg), 0.5 * (a.lon_deg + b.lon_deg)) for a, b in zip(v, v[1:])]
            probes += [GeoPoint(a.lat_deg, b.lon_deg) for a, b in zip(v, v[1:])]
            for p in probes:
                assert point_in_polygon(p, region) == ray_cast_point_in_polygon(p, region)

    def test_rectangles_with_first_row_and_column_on_the_boundary(self):
        # As in the benchmark's bound runs: the lattice starts at the SW
        # corner, so row 0 runs along the south edge and column 0 along the
        # west edge; the far edges sit half a spacing past the last ones.
        rng = random.Random(4245)
        for _ in range(60):
            cam = CameraModel(rng.uniform(30.0, 60.0), rng.uniform(0.1, 0.6), rng.uniform(5.0, 60.0))
            spacing = grid_spacing(cam)
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            lat, lon = rng.uniform(-60.0, 60.0), rng.uniform(-170.0, 170.0)
            m_lat, m_lon = meters_per_degree(lat)
            top, east = lat + (rows - 0.5) * spacing / m_lat, lon + (cols - 0.5) * spacing / m_lon
            region = poly((lat, lon), (lat, east), (top, east), (top, lon))
            _, kept = self.assert_same_as_ray_cast(region, cam)
            assert len(kept) == rows * cols

    @pytest.mark.parametrize("step_deg", [1.0, 0.5, 0.25])
    def test_u_notch_rows_through_vertices_and_horizontal_edges(self, step_deg, monkeypatch):
        # At latitude 0 the spacing step_deg * m_lat is exactly step_deg
        # degrees on both axes, so rows 0, 1 and 3 run along the polygon's
        # horizontal edges and through its vertices.
        spacing = step_deg * meters_per_degree(0.0)[0]
        monkeypatch.setattr(grid, "grid_spacing", lambda camera: spacing)
        with pytest.warns(FlatPlaneWarning):  # the U spans 4 degrees
            lattice, kept = self.assert_same_as_ray_cast(U_NOTCH, self.CAM)
        assert {wp.point.lat_deg for wp in lattice} >= {0.0, 1.0, 3.0}
        kept = {(wp.point.lat_deg, wp.point.lon_deg) for wp in kept}
        assert {(0.0, 2.0), (1.0, 2.0), (3.0, 0.0), (3.0, 1.0), (3.0, 3.0), (3.0, 4.0)} <= kept
        assert (2.0, 2.0) not in kept


def sweep_star(rng: random.Random, n_vertices: int) -> tuple[PolygonRegion, float]:
    """A star like the benchmark sweep's: jittered angles, radii alternating
    between 80-160 m and 0.55-0.85 of that. Returns it and its area in m^2."""
    center = GeoPoint(rng.uniform(-60.0, 60.0), rng.uniform(-170.0, 170.0))
    r_out, inner = rng.uniform(80.0, 160.0), rng.uniform(0.55, 0.85)
    pts = []
    for k in range(n_vertices):
        theta = 2.0 * math.pi * (k + rng.uniform(-0.3, 0.3)) / n_vertices
        r = r_out * (1.0 if k % 2 == 0 else inner) * rng.uniform(0.95, 1.05)
        pts.append((r * math.cos(theta), r * math.sin(theta)))
    area = 0.0
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        area += 0.5 * (x1 * y2 - x2 * y1)
    return PolygonRegion(tuple(gps_offset(center, EnuOffset(e, n, 0.0)) for e, n in pts)), area


class TestScanlineMatchesRayCast:
    """``_rows_inside`` gives every point the bool of the per-edge ray cast,
    and the same mask for a row whether it runs alone or among all rows."""

    @staticmethod
    def assert_rows_match(region, lats, lons):
        edges = grid._edges(region)
        masks = list(grid._rows_inside(edges, lats, lons))
        assert masks == [next(grid._rows_inside(edges, (lat,), lons)) for lat in lats]
        expected = [[ray_cast_point_in_polygon(GeoPoint(lat, lon), region) for lon in lons] for lat in lats]
        assert masks == expected
        return masks

    def test_dense_stars_like_the_sweep(self):
        rng = random.Random(4260)
        for _ in range(12):
            region, area = sweep_star(rng, rng.randint(96, 128))
            spacing = math.sqrt(area / rng.uniform(100.0, 330.0))
            fov, overlap = rng.uniform(30.0, 60.0), rng.uniform(0.1, 0.6)
            altitude = spacing * (1.0 + overlap) / ((1.0 - overlap) * 2.0 * math.tan(math.radians(fov)))
            cam = CameraModel(fov, overlap, altitude)
            survey = generate_waypoints(region, cam)
            lats, lons = grid._lattice_axes(bounding_rectangle(region), survey.spacing_m)
            masks = self.assert_rows_match(region, lats, lons)
            kept = [(i, j) for i, mask in enumerate(masks) for j, inside in enumerate(mask) if inside]
            assert [wp.index for wp in survey.points] == kept
            assert 90 <= len(kept) <= 400

    def test_columns_on_the_computed_crossings(self):
        # Columns exactly on a row's crossings as the filter computes them,
        # and one float either side: a crossing is counted only strictly
        # east of a column, and a column on an edge is inside whatever its
        # parity, so those columns decide the runs' ends.
        rng = random.Random(4261)
        for _ in range(30):
            region, _ = sweep_star(rng, rng.randint(8, 128))
            edges = grid._edges(region)
            lats = sorted({v.lat_deg for v in region.vertices})
            lats = sorted(lats + [0.5 * (a + b) for a, b in zip(lats, lats[1:])])[::3]
            for lat in lats:
                crossings = [
                    alon + (lat - alat) * (blon - alon) / (blat - alat)
                    for alat, alon, blat, blon in edges
                    if (alat > lat) != (blat > lat)
                ]
                lons = sorted({y for x in crossings for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))})
                self.assert_rows_match(region, [lat], lons)

    def test_quarter_grid_polygons(self):
        # Rows and columns on every eighth: through every vertex, along every
        # horizontal edge, on every edge's north and south end.
        axis = [k / 8 for k in range(-1, 18)]
        for region in quarter_grid_polygons(random.Random(4262), 120):
            self.assert_rows_match(region, axis, axis)

    def test_sawtooth_comb(self):
        west, east = sawtooth_comb_sides()
        region = poly(*(west + east))
        self.assert_rows_match(region, [k / 8 for k in range(-1, 163)], [k / 4 for k in range(-1, 43)])

    def test_rows_on_an_edge_end(self):
        # A row through a vertex that is the north end of both its edges
        # (the apex), the south end of both (the foot), or the north end of
        # one and the south end of the other (a flank vertex).
        kite = poly((0.0, 1.0), (1.0, 2.0), (3.0, 1.0), (1.0, 0.0))
        masks = self.assert_rows_match(kite, [0.0, 1.0, 2.0, 3.0], [-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
        assert masks[0] == [False, False, False, True, False, False, False]
        assert masks[1] == [False, True, True, True, True, True, False]
        assert masks[3] == [False, False, False, True, False, False, False]
        flank = poly((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (2.0, 3.0), (0.0, 3.0))
        masks = self.assert_rows_match(flank, [0.0, 1.0, 2.0], [0.0, 0.5, 1.0, 2.0, 3.0, 3.5])
        assert masks[1] == [False, False, True, True, True, False]
