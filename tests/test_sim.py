"""Mission simulation: event timeline, observations, determinism."""

from __future__ import annotations

import json
import random
import re

import pytest

from helpers import lattice_row, leg_duration_times, leg_walk_missions, random_points
from uavsurvey import (
    Agent,
    CameraModel,
    EnuOffset,
    GeoPoint,
    NoiseSpec,
    RadiationSource,
    Waypoint,
    field_levels,
    gps_offset,
    makespan,
    plan_routes,
    route_length,
    simulate,
    write_observation_log,
)
from uavsurvey.sim import ROUTE_COMPLETE, TAKEOFF, WAYPOINT_REACHED

HOME = GeoPoint(0.0, 0.0, 0.0)
CAM = CameraModel(half_fov_deg=45.0, overlap_fraction=0.2, altitude_m=32.0)


def fleet_of(n: int, velocity: float = 5.0) -> list[Agent]:
    return [Agent(f"rav-{k}", HOME, velocity) for k in range(n)]


class TestLegDuration:
    """A one-waypoint flight from HOME observes at distance_m / velocity."""

    @staticmethod
    def arrival(p: GeoPoint, velocity: float) -> float:
        (obs,) = simulate({"rav-0": [Waypoint(p, (0, 0))]}, fleet_of(1, velocity), camera=CAM).observations
        return obs.t

    def test_zero_leg(self):
        assert self.arrival(HOME, 3.0) == 0.0

    def test_hundred_meters_at_five(self):
        p = gps_offset(HOME, EnuOffset(100.0, 0.0, 0.0))
        assert self.arrival(p, 5.0) == pytest.approx(20.0, rel=1e-9)

    def test_velocity_scaling(self):
        p = gps_offset(HOME, EnuOffset(60.0, 80.0, 0.0))
        assert self.arrival(p, 10.0) == pytest.approx(self.arrival(p, 5.0) / 2.0, rel=1e-12)


class TestSimulate:
    def test_empty_plan_has_only_bookend_events(self):
        fleet = fleet_of(2)
        log = simulate(plan_routes(fleet, []), fleet, camera=CAM)
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
        wp = Waypoint(gps_offset(HOME, EnuOffset(100.0, 0.0, 0.0)), (0, 0))
        log = simulate(plan_routes(fleet, [wp]), fleet, camera=CAM)
        obs = log.observations
        assert len(obs) == 1
        assert obs[0].t == pytest.approx(20.0, rel=1e-9)
        assert obs[0].waypoint is wp

    def test_reading_above_source(self):
        fleet = [Agent("rav-0", HOME, 5.0)]
        wp = Waypoint(GeoPoint(0.0, 0.0, 32.0), (0, 0))
        source = RadiationSource(GeoPoint(0.0, 0.0, 0.0), 100.0)
        log = simulate(plan_routes(fleet, [wp]), fleet, [source], camera=CAM)
        assert log.observations[0].radiation_usv_s == pytest.approx(100.0 / 32.0**2, rel=1e-12)

    def test_deterministic_event_log(self):
        rng = random.Random(30)
        fleet = fleet_of(3, velocity=4.0)
        pts = lattice_row(random_points(rng, HOME, 15, 300.0, alt_m=32.0))
        plan = plan_routes(fleet, pts)
        sources = [RadiationSource(HOME, 80.0)]
        noise = NoiseSpec("gaussian", 0.05)
        a = simulate(plan, fleet, sources, noise, seed=9, camera=CAM)
        b = simulate(plan, fleet, sources, noise, seed=9, camera=CAM)
        assert a == b

    def test_noise_draws_keyed_by_agent_not_fleet_order(self):
        rng = random.Random(31)
        fleet = fleet_of(2)
        pts = lattice_row(random_points(rng, HOME, 8, 200.0, alt_m=32.0))
        plan = plan_routes(fleet, pts)
        sources = [RadiationSource(HOME, 50.0)]
        noise = NoiseSpec("gaussian", 0.1)
        forward = simulate(plan, fleet, sources, noise, seed=3, camera=CAM)
        reversed_fleet = list(reversed(fleet))
        backward = simulate(plan, reversed_fleet, sources, noise, seed=3, camera=CAM)
        assert {(o.agent_id, o.t, o.radiation_usv_s) for o in forward.observations} == {
            (o.agent_id, o.t, o.radiation_usv_s) for o in backward.observations
        }

    def test_completeness(self):
        rng = random.Random(32)
        fleet = fleet_of(4)
        pts = random_points(rng, HOME, 23, 400.0, alt_m=32.0)
        plan = plan_routes(fleet, lattice_row(pts))
        log = simulate(plan, fleet, camera=CAM)
        observed = [(o.waypoint.point.lat_deg, o.waypoint.point.lon_deg) for o in log.observations]
        assert len(observed) == len(pts)
        assert set(observed) == {(p.lat_deg, p.lon_deg) for p in pts}

    def test_timing_consistency_with_makespan(self):
        rng = random.Random(33)
        fleet = fleet_of(3, velocity=6.0)
        pts = lattice_row(random_points(rng, HOME, 17, 500.0, alt_m=32.0))
        plan = plan_routes(fleet, pts)
        log = simulate(plan, fleet, camera=CAM)
        finals = {
            aid: max((e.t for e in log.events if e.agent_id == aid), default=0.0)
            for aid in plan
        }
        for aid, route in plan.items():
            expected = route_length(HOME, route)
            assert finals[aid] * 6.0 == pytest.approx(expected, rel=1e-9)
        assert max(finals.values()) == pytest.approx(makespan(plan, fleet), rel=1e-9)

    def test_event_times_match_leg_duration(self):
        rng = random.Random("legs")
        for fleet, points in leg_walk_missions(rng):
            plan = plan_routes(fleet, points)
            for dwell in (0.0, 1.5):
                log = simulate(plan, fleet, camera=CAM, dwell_s=dwell)
                expected = leg_duration_times(plan, fleet, dwell)
                for agent in fleet:
                    times = [e.t for e in log.observations if e.agent_id == agent.id]
                    assert [t.hex() for t in times] == [t.hex() for t in expected[agent.id]]
                    (complete,) = [e.t for e in log.events if e.agent_id == agent.id and e.kind == ROUTE_COMPLETE]
                    assert complete == (times[-1] if times else 0.0)

    def test_radiation_matches_field_when_noise_none(self):
        rng = random.Random(34)
        fleet = fleet_of(2)
        pts = lattice_row(random_points(rng, HOME, 9, 250.0, alt_m=32.0))
        sources = [
            RadiationSource(gps_offset(HOME, EnuOffset(30.0, -20.0, 0.0)), 120.0),
            RadiationSource(gps_offset(HOME, EnuOffset(-60.0, 90.0, 0.0)), 40.0),
        ]
        log = simulate(plan_routes(fleet, pts), fleet, sources, camera=CAM)
        for obs in log.observations:
            assert obs.radiation_usv_s == field_levels(sources, [obs.waypoint.point])[0]

    def test_events_globally_ordered(self):
        rng = random.Random(35)
        fleet = fleet_of(3)
        pts = lattice_row(random_points(rng, HOME, 12, 350.0, alt_m=32.0))
        log = simulate(plan_routes(fleet, pts), fleet, camera=CAM)
        keys = [(e.t, e.agent_id) for e in log.events]
        assert keys == sorted(keys)
        for aid in {e.agent_id for e in log.events}:
            times = [e.t for e in log.events if e.agent_id == aid]
            assert times == sorted(times)

    def test_ties_keep_each_agents_order(self):
        # Zero legs (the first waypoint at home, then one position under two
        # indexes), zero dwell and an empty route put most events at t = 0,
        # and two agents reach one position at the same time. Within one
        # agent a tie keeps takeoff, the route's order, then completion.
        fleet = fleet_of(3)
        far = gps_offset(HOME, EnuOffset(100.0, 0.0, 0.0))
        plan = {
            "rav-0": [Waypoint(HOME, (0, 0)), Waypoint(HOME, (0, 1)), Waypoint(far, (1, 0))],
            "rav-1": [],
            "rav-2": [Waypoint(HOME, (0, 2)), Waypoint(far, (1, 1))],
        }
        log = simulate(plan, fleet, camera=CAM)
        rows = [(e.t, e.agent_id, e.kind, e.waypoint and e.waypoint.index) for e in log.events]
        leg = rows[-1][0]
        assert leg > 0.0
        assert rows == [
            (0.0, "rav-0", TAKEOFF, None),
            (0.0, "rav-0", WAYPOINT_REACHED, (0, 0)),
            (0.0, "rav-0", WAYPOINT_REACHED, (0, 1)),
            (0.0, "rav-1", TAKEOFF, None),
            (0.0, "rav-1", ROUTE_COMPLETE, None),
            (0.0, "rav-2", TAKEOFF, None),
            (0.0, "rav-2", WAYPOINT_REACHED, (0, 2)),
            (leg, "rav-0", WAYPOINT_REACHED, (1, 0)),
            (leg, "rav-0", ROUTE_COMPLETE, None),
            (leg, "rav-2", WAYPOINT_REACHED, (1, 1)),
            (leg, "rav-2", ROUTE_COMPLETE, None),
        ]
        for aid, route in plan.items():
            kinds = [e.kind for e in log.events if e.agent_id == aid]
            assert kinds == [TAKEOFF] + [WAYPOINT_REACHED] * len(route) + [ROUTE_COMPLETE]

    def test_camera_metadata(self):
        fleet = fleet_of(1)
        wp = Waypoint(GeoPoint(0.0, 0.001, 32.0), (2, 3))
        log = simulate(plan_routes(fleet, [wp]), fleet, camera=CAM)
        assert log.camera is CAM
        line = json.loads(write_observation_log(log).splitlines()[2])
        assert line["camera"]["altitude_m"] == 32.0
        assert line["camera"]["half_fov_deg"] == 45.0
        assert line["camera"]["footprint_width_m"] == pytest.approx(64.0, rel=1e-9)
        assert line["camera"]["lattice_index"] == [2, 3]

    def test_observations_hold_the_plans_waypoints(self):
        rng = random.Random(37)
        fleet = fleet_of(3)
        pts = lattice_row(random_points(rng, HOME, 13, 300.0, alt_m=32.0))
        plan = plan_routes(fleet, pts)
        log = simulate(plan, fleet, camera=CAM)
        assert log.camera is CAM
        for aid, route in plan.items():
            flown = [e.waypoint for e in log.observations if e.agent_id == aid]
            assert len(flown) == len(route) and all(e is w for e, w in zip(flown, route))
        assert all(e.waypoint is None and e.radiation_usv_s is None for e in log.events if e.kind != WAYPOINT_REACHED)

    def test_dwell_delays_later_waypoints(self):
        fleet = fleet_of(1, velocity=5.0)
        wps = lattice_row([
            gps_offset(HOME, EnuOffset(100.0, 0.0, 0.0)),
            gps_offset(HOME, EnuOffset(200.0, 0.0, 0.0)),
        ])
        plan = plan_routes(fleet, wps)
        log = simulate(plan, fleet, camera=CAM, dwell_s=7.0)
        first, second = (o.t for o in log.observations)
        assert first == pytest.approx(20.0, rel=1e-9)
        assert second == pytest.approx(47.0, rel=1e-9)

    @pytest.mark.parametrize("dwell", [-1.0, float("nan"), float("inf")])
    def test_bad_dwell_rejected(self, dwell):
        fleet = fleet_of(1)
        with pytest.raises(ValueError, match="dwell_s: (expected a finite number|must be >= 0)"):
            simulate(plan_routes(fleet, []), fleet, camera=CAM, dwell_s=dwell)

    def test_plan_fleet_mismatch(self):
        fleet = fleet_of(2)
        plan = plan_routes(fleet, [])
        with pytest.raises(ValueError, match="fleet"):
            simulate(plan, fleet[:1], camera=CAM)

    def test_mixed_altitudes_rejected(self):
        fleet = fleet_of(1)
        wps = lattice_row([GeoPoint(0.0, 0.001, 32.0), GeoPoint(0.0, 0.002, 33.0)])
        plan = plan_routes(fleet, wps)
        with pytest.raises(ValueError, match="altitude"):
            simulate(plan, fleet, camera=CAM)

    @pytest.mark.parametrize("across", [True, False], ids=["two_routes", "one_route"])
    def test_a_waypoint_routed_twice_is_refused(self, across, monkeypatch):
        # The log holds one observation per waypoint. An equal copy (new
        # floats, new index tuple) in another route or in its own is refused
        # with export_geojson's message, before the digest is computed.
        fleet = fleet_of(2)
        wps = lattice_row([GeoPoint(0.0, 0.001 * k, 32.0) for k in range(1, 7)])
        plan = {"rav-0": wps[:3], "rav-1": wps[3:]}
        twice = wps[1]
        p = twice.point
        copy = Waypoint(GeoPoint(float(repr(p.lat_deg)), float(repr(p.lon_deg)), 32.0), (0, 1))
        plan["rav-1" if across else "rav-0"].append(copy)

        def refuse(*args):
            raise AssertionError("config_digest called")

        monkeypatch.setattr("uavsurvey.sim.config_digest", refuse)
        message = f"plan routes a waypoint more than once: {twice}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            simulate(plan, fleet, camera=CAM)

    def test_mission_id_defaults_to_digest_prefix(self):
        fleet = fleet_of(1)
        log = simulate(plan_routes(fleet, []), fleet, camera=CAM)
        assert log.mission_id == f"mission-{log.config_digest[:12]}"
        named = simulate(plan_routes(fleet, []), fleet, camera=CAM, mission_id="survey-7")
        assert named.mission_id == "survey-7"

    def test_seed_changes_digest_not_geometry(self):
        fleet = fleet_of(1)
        plan = plan_routes(fleet, lattice_row([gps_offset(HOME, EnuOffset(50.0, 0.0, 0.0))]))
        a = simulate(plan, fleet, seed=1, camera=CAM)
        b = simulate(plan, fleet, seed=2, camera=CAM)
        assert a.config_digest != b.config_digest
        assert a.observations[0].t == b.observations[0].t

