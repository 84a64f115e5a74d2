"""Mission simulation: event timeline, observations, determinism."""

from __future__ import annotations

import hashlib
import random

import pytest

from helpers import random_points
from uavsurvey import (
    Agent,
    CameraModel,
    EnuOffset,
    GeoPoint,
    NoiseSpec,
    RadiationSource,
    Waypoint,
    brute_force_mtsp,
    gps_offset,
    leg_duration,
    makespan,
    plan_routes,
    route_length,
    simulate,
    total_intensity,
    write_observation_log,
)
from uavsurvey.sim import ROUTE_COMPLETE, TAKEOFF, WAYPOINT_REACHED

HOME = GeoPoint(0.0, 0.0, 0.0)
CAM = CameraModel(half_fov_deg=45.0, overlap_fraction=0.2, altitude_m=32.0)


def fleet_of(n: int, velocity: float = 5.0) -> list[Agent]:
    return [Agent(f"rav-{k}", HOME, velocity) for k in range(n)]


class TestLegDuration:
    def test_zero_leg(self):
        assert leg_duration(HOME, HOME, 3.0) == 0.0

    def test_hundred_meters_at_five(self):
        p = gps_offset(HOME, EnuOffset(100.0, 0.0, 0.0))
        assert leg_duration(HOME, p, 5.0) == pytest.approx(20.0, rel=1e-9)

    def test_velocity_scaling(self):
        p = gps_offset(HOME, EnuOffset(60.0, 80.0, 0.0))
        assert leg_duration(HOME, p, 10.0) == pytest.approx(leg_duration(HOME, p, 5.0) / 2.0, rel=1e-12)

    def test_bad_velocity(self):
        with pytest.raises(ValueError, match="velocity"):
            leg_duration(HOME, HOME, 0.0)


class TestSimulate:
    def test_empty_plan_has_only_bookend_events(self):
        fleet = fleet_of(2)
        log = simulate(plan_routes(fleet, []), fleet)
        assert [(e.agent_id, e.kind) for e in log.events] == [
            ("rav-0", TAKEOFF),
            ("rav-0", ROUTE_COMPLETE),
            ("rav-1", TAKEOFF),
            ("rav-1", ROUTE_COMPLETE),
        ]
        assert all(e.t == 0.0 for e in log.events)
        assert log.observations == []

    def test_single_waypoint_timing(self):
        fleet = fleet_of(1, velocity=5.0)
        wp = gps_offset(HOME, EnuOffset(100.0, 0.0, 0.0))
        log = simulate(plan_routes(fleet, [wp]), fleet)
        obs = log.observations
        assert len(obs) == 1
        assert obs[0].t == pytest.approx(20.0, rel=1e-9)
        assert obs[0].position == wp

    def test_reading_above_source(self):
        fleet = [Agent("rav-0", HOME, 5.0)]
        wp = GeoPoint(0.0, 0.0, 32.0)
        source = RadiationSource(GeoPoint(0.0, 0.0, 0.0), 100.0)
        log = simulate(plan_routes(fleet, [wp]), fleet, [source])
        assert log.observations[0].radiation_usv_s == pytest.approx(100.0 / 32.0**2, rel=1e-12)

    def test_deterministic_event_log(self):
        rng = random.Random(30)
        fleet = fleet_of(3, velocity=4.0)
        pts = random_points(rng, HOME, 15, 300.0, alt_m=32.0)
        plan = plan_routes(fleet, pts)
        sources = [RadiationSource(HOME, 80.0)]
        noise = NoiseSpec("gaussian", 0.05)
        a = simulate(plan, fleet, sources, noise, seed=9, camera=CAM)
        b = simulate(plan, fleet, sources, noise, seed=9, camera=CAM)
        assert a == b

    def test_noise_draws_keyed_by_agent_not_fleet_order(self):
        rng = random.Random(31)
        fleet = fleet_of(2)
        pts = random_points(rng, HOME, 8, 200.0, alt_m=32.0)
        plan = plan_routes(fleet, pts)
        sources = [RadiationSource(HOME, 50.0)]
        noise = NoiseSpec("gaussian", 0.1)
        forward = simulate(plan, fleet, sources, noise, seed=3)
        reversed_fleet = list(reversed(fleet))
        backward = simulate(plan, reversed_fleet, sources, noise, seed=3)
        assert {(o.agent_id, o.t, o.radiation_usv_s) for o in forward.observations} == {
            (o.agent_id, o.t, o.radiation_usv_s) for o in backward.observations
        }

    def test_completeness(self):
        rng = random.Random(32)
        fleet = fleet_of(4)
        pts = random_points(rng, HOME, 23, 400.0, alt_m=32.0)
        plan = plan_routes(fleet, pts)
        log = simulate(plan, fleet)
        observed = [(o.position.lat_deg, o.position.lon_deg) for o in log.observations]
        assert len(observed) == len(pts)
        assert set(observed) == {(p.lat_deg, p.lon_deg) for p in pts}

    def test_timing_consistency_with_makespan(self):
        rng = random.Random(33)
        fleet = fleet_of(3, velocity=6.0)
        pts = random_points(rng, HOME, 17, 500.0, alt_m=32.0)
        plan = plan_routes(fleet, pts)
        log = simulate(plan, fleet)
        finals = {
            aid: max((e.t for e in log.events if e.agent_id == aid), default=0.0)
            for aid in plan.routes
        }
        for aid, route in plan.routes.items():
            expected = route_length(HOME, route)
            assert finals[aid] * 6.0 == pytest.approx(expected, rel=1e-9)
        assert max(finals.values()) == pytest.approx(makespan(plan, fleet), rel=1e-9)

    def test_radiation_matches_field_when_noise_none(self):
        rng = random.Random(34)
        fleet = fleet_of(2)
        pts = random_points(rng, HOME, 9, 250.0, alt_m=32.0)
        sources = [
            RadiationSource(gps_offset(HOME, EnuOffset(30.0, -20.0, 0.0)), 120.0),
            RadiationSource(gps_offset(HOME, EnuOffset(-60.0, 90.0, 0.0)), 40.0),
        ]
        log = simulate(plan_routes(fleet, pts), fleet, sources)
        for obs in log.observations:
            assert obs.radiation_usv_s == total_intensity(sources, obs.position)

    def test_events_globally_ordered(self):
        rng = random.Random(35)
        fleet = fleet_of(3)
        pts = random_points(rng, HOME, 12, 350.0, alt_m=32.0)
        log = simulate(plan_routes(fleet, pts), fleet)
        keys = [(e.t, e.agent_id) for e in log.events]
        assert keys == sorted(keys)
        for aid in {e.agent_id for e in log.events}:
            times = [e.t for e in log.events if e.agent_id == aid]
            assert times == sorted(times)

    def test_camera_metadata(self):
        fleet = fleet_of(1)
        wp = Waypoint(GeoPoint(0.0, 0.001, 32.0), (2, 3))
        log = simulate(plan_routes(fleet, [wp]), fleet, camera=CAM)
        meta = log.observations[0].camera
        assert meta.altitude_m == 32.0
        assert meta.half_fov_deg == 45.0
        assert meta.footprint_width_m == pytest.approx(64.0, rel=1e-9)
        assert meta.lattice_index == (2, 3)

    def test_dwell_delays_later_waypoints(self):
        fleet = fleet_of(1, velocity=5.0)
        wps = [
            gps_offset(HOME, EnuOffset(100.0, 0.0, 0.0)),
            gps_offset(HOME, EnuOffset(200.0, 0.0, 0.0)),
        ]
        plan = plan_routes(fleet, wps)
        log = simulate(plan, fleet, dwell_s=7.0)
        first, second = (o.t for o in log.observations)
        assert first == pytest.approx(20.0, rel=1e-9)
        assert second == pytest.approx(47.0, rel=1e-9)

    @pytest.mark.parametrize("dwell", [-1.0, float("nan"), float("inf")])
    def test_bad_dwell_rejected(self, dwell):
        fleet = fleet_of(1)
        with pytest.raises(ValueError, match="dwell_s: (expected a finite number|must be >= 0)"):
            simulate(plan_routes(fleet, []), fleet, dwell_s=dwell)

    def test_plan_fleet_mismatch(self):
        fleet = fleet_of(2)
        plan = plan_routes(fleet, [])
        with pytest.raises(ValueError, match="fleet"):
            simulate(plan, fleet[:1])

    def test_mixed_altitudes_rejected(self):
        fleet = fleet_of(1)
        wps = [GeoPoint(0.0, 0.001, 32.0), GeoPoint(0.0, 0.002, 33.0)]
        plan = plan_routes(fleet, wps)
        with pytest.raises(ValueError, match="altitude"):
            simulate(plan, fleet)

    def test_mission_id_defaults_to_digest_prefix(self):
        fleet = fleet_of(1)
        log = simulate(plan_routes(fleet, []), fleet)
        assert log.mission_id == f"mission-{log.config_digest[:12]}"
        named = simulate(plan_routes(fleet, []), fleet, mission_id="survey-7")
        assert named.mission_id == "survey-7"

    def test_seed_changes_digest_not_geometry(self):
        fleet = fleet_of(1)
        wp = gps_offset(HOME, EnuOffset(50.0, 0.0, 0.0))
        plan = plan_routes(fleet, [wp])
        a = simulate(plan, fleet, seed=1)
        b = simulate(plan, fleet, seed=2)
        assert a.config_digest != b.config_digest
        assert a.observations[0].t == b.observations[0].t


class TestBarePoints:
    """A bare GeoPoint p enters the planner as Waypoint(p): routes hold Waypoints only."""

    def mission(self):
        rng = random.Random(36)
        fleet = [Agent(f"rav-{k}", HOME, v) for k, v in enumerate((4.0, 6.0, 5.0))]
        return fleet, random_points(rng, HOME, 14, 300.0, alt_m=32.0)

    def test_bare_and_wrapped_input_plan_and_log_alike(self):
        fleet, pts = self.mission()
        bare = plan_routes(fleet, pts)
        wrapped = plan_routes(fleet, [Waypoint(p) for p in pts])
        assert bare.routes == wrapped.routes
        assert bare.visit_sequence == wrapped.visit_sequence
        args = (fleet, [RadiationSource(HOME, 80.0)], NoiseSpec("gaussian", 0.05), 4)
        logs = [simulate(plan, *args, dwell_s=2.0) for plan in (bare, wrapped)]
        assert logs[0].config_digest == logs[1].config_digest
        texts = [write_observation_log(log) for log in logs]
        assert texts[0] == texts[1]
        assert texts[0].count('"lattice_index":null') == len(pts)
        # The bytes this mission logged when routes still held the bare points.
        assert logs[0].config_digest == "7300f2a839894a82de94a95983dbacf6f7103031ac90a23c119a76653ecc7173"
        digest = hashlib.sha256(texts[0].encode("utf-8")).hexdigest()
        assert digest == "d9d644ccbb29ecfdd1d570798d46448449beb3a9ffb0d889f6bf343d602ab7ea"

    def test_bare_input_comes_back_wrapped(self):
        fleet, pts = self.mission()
        plan = plan_routes(fleet, pts)
        _, partition = brute_force_mtsp(pts[:6], fleet)
        for route in [plan.visit_sequence, *plan.routes.values(), *partition.values()]:
            assert all(type(w) is Waypoint and w.index is None for w in route)
        assert sorted(id(w.point) for w in plan.visit_sequence) == sorted(id(p) for p in pts)
        assert sorted(id(w.point) for route in partition.values() for w in route) == sorted(map(id, pts[:6]))
