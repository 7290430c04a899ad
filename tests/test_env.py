import json
import math
import sys
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxagent import bus, env, tools
from proxagent.trajectory import StepRecord, Trajectory


@pytest.fixture(scope="module")
def satellites():
    return env.load_satellite_catalog()


def fresh(satellites, kind="rendezvous", condition="C1", seed=0, sat="CAPSTONE"):
    sim = env.SimEnv(satellites)
    task = env.make_task(kind, satellite_id=sat, condition=condition)
    obs = sim.reset(task, seed=seed)
    return sim, task, obs


# -- pose math ----------------------------------------------------------


def test_yaw_wraps_pitch_clamps():
    pose = env.Pose(yaw=190.0, pitch=120.0, roll=-200.0)
    pose.normalize()
    assert pose.yaw == pytest.approx(-170.0)
    assert pose.pitch == 90.0
    assert pose.roll == pytest.approx(160.0)


def test_body_frame_forward_follows_yaw():
    pose = env.Pose(yaw=90.0)
    wx, wy, wz = pose.body_to_world((1.0, 0.0, 0.0))
    assert (wx, wy, wz) == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)


@given(
    yaw=st.floats(-180, 180), pitch=st.floats(-89, 89), roll=st.floats(-180, 180),
    v=st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
)
@settings(max_examples=50, deadline=None)
def test_rotation_round_trip(yaw, pitch, roll, v):
    pose = env.Pose(yaw=yaw, pitch=pitch, roll=roll)
    back = pose.world_to_body(pose.body_to_world(v))
    assert all(abs(a - b) < 1e-9 for a, b in zip(back, v))


def reference_body_to_world(pose, v):
    r = pose.rotation()
    return tuple(sum(r[i][j] * v[j] for j in range(3)) for i in range(3))


def reference_world_to_body(pose, v):
    r = pose.rotation()
    return tuple(sum(r[j][i] * v[j] for j in range(3)) for i in range(3))


_finite = st.floats(allow_nan=False, allow_infinity=False)


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="sum() of floats is compensated from Python 3.12 on, so the "
                           "sum()-based reference no longer rounds as the recorded runs did")
@given(yaw=_finite, pitch=_finite, roll=_finite, v=st.tuples(_finite, _finite, _finite))
@settings(max_examples=300, deadline=None)
def test_pose_transforms_round_exactly_as_the_sum_reference(yaw, pitch, roll, v):
    pose = env.Pose(yaw=yaw, pitch=pitch, roll=roll)
    for got, want in ((pose.body_to_world(v), reference_body_to_world(pose, v)),
                      (pose.world_to_body(v), reference_world_to_body(pose, v))):
        assert [c.hex() for c in got] == [c.hex() for c in want]


# Pose.rotation as it was before each attitude's matrix was kept, as the
# reference: the kept matrix must equal it bit for bit.
def reference_rotation(pose):
    cy, sy = math.cos(math.radians(pose.yaw)), math.sin(math.radians(pose.yaw))
    cp, sp = math.cos(math.radians(pose.pitch)), math.sin(math.radians(pose.pitch))
    cr, sr = math.cos(math.radians(pose.roll)), math.sin(math.radians(pose.roll))
    return [
        [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
        [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
        [-sp, cp * sr, cp * cr],
    ]


def _hex(matrix):
    return [[c.hex() for c in row] for row in matrix]


_angles = st.one_of(st.sampled_from([0.0, -0.0, 90.0, -90.0, 180.0, -180.0]), _finite)


@given(attitudes=st.lists(st.tuples(_angles, _angles, _angles), min_size=1, max_size=6),
       normalize=st.booleans())
@example(attitudes=[(90.0, 0.0, 0.0), (90.0, 0.0, -0.0)], normalize=False)  # signed zeros
@settings(max_examples=300, deadline=None)
def test_kept_rotation_is_the_formula_bit_for_bit(attitudes, normalize):
    pose = env.Pose()
    for yaw, pitch, roll in attitudes:
        pose.yaw, pose.pitch, pose.roll = yaw, pitch, roll
        if normalize:
            pose.normalize()
        for _ in range(2):  # computed, then kept
            assert _hex(pose.rotation()) == _hex(reference_rotation(pose))


# -- reset and observation ---------------------------------------------


def test_reset_places_chaser_at_start_range(satellites):
    sim, task, obs = fresh(satellites)
    # lateral jitter is within +/-1 m so the surface range stays near 15 m
    assert obs["true_range"] == pytest.approx(15.0, abs=0.2)
    assert obs["visible"]
    assert obs["mean_brightness"] == pytest.approx(140.0)


def test_reset_is_seed_deterministic(satellites):
    _, _, a = fresh(satellites, seed=7)
    _, _, b = fresh(satellites, seed=7)
    _, _, c = fresh(satellites, seed=8)
    assert a == b
    assert a != c


def test_search_start_hides_target(satellites):
    _, _, obs = fresh(satellites, kind="search")
    assert not obs["visible"]
    assert obs["lidar_range"] is None


def test_conditions_change_offset_and_gain(satellites):
    _, _, c2 = fresh(satellites, condition="C2")
    assert c2["exposure_gain"] == pytest.approx(0.1)
    assert c2["mean_brightness"] == pytest.approx(14.0)
    _, _, c3 = fresh(satellites, condition="C3")
    assert c3["mean_brightness"] == pytest.approx(255.0)  # saturated


def test_angular_size_law(satellites):
    sim, _, obs = fresh(satellites, seed=1)
    tx, ty, tz = sim.target.position
    center = math.dist((sim.chaser.x, sim.chaser.y, sim.chaser.z), (tx, ty, tz))
    expected = math.degrees(2 * math.atan2(sim.target.bounding_radius, center))
    assert obs["angular_size"] == pytest.approx(expected)


def test_observe_is_the_camera_record_plus_lidar_range(satellites):
    sim, _, obs = fresh(satellites)
    assert list(obs) == [*bus.CHANNEL_SCHEMAS[bus.SENSOR_RGB], "lidar_range"]
    assert sim.observe() == obs
    assert sim.observe() is not obs


def test_lidar_needs_narrow_cone(satellites):
    sim, _, _ = fresh(satellites)
    obs = sim.step({"dyaw": 20.0})  # outside the 15-degree lidar cone
    assert obs["visible"]  # still inside the 30-degree camera FOV
    assert obs["lidar_range"] is None


# -- stepping ----------------------------------------------------------


def test_step_limits_enforced(satellites):
    sim, _, _ = fresh(satellites)
    with pytest.raises(env.StepLimitExceeded):
        sim.step({"dx": 2.5})
    with pytest.raises(env.StepLimitExceeded):
        sim.step({"dyaw": 91.0})
    sim.step({"dx": 2.0})  # boundary is inclusive


def test_gain_bounds(satellites):
    sim, _, _ = fresh(satellites)
    with pytest.raises(env.GainOutOfRange):
        sim.set_exposure(7.5)  # 1.0 + 7.5 > 8.0
    obs = sim.set_exposure(-0.5)
    assert obs["exposure_gain"] == pytest.approx(0.5)
    assert obs["mean_brightness"] == pytest.approx(70.0)


def test_collision_flag_latches(satellites):
    sim, _, _ = fresh(satellites)
    for _ in range(8):
        obs = sim.step({"dx": 2.0})
        if obs["collided"]:
            break
    assert obs["collided"]
    assert obs["true_range"] < env.COLLISION_MARGIN


_MOVES = st.tuples(st.floats(-0.5, 1.15), st.floats(-0.6, 0.6), st.floats(-0.6, 0.6),
                   st.floats(-10.0, 10.0))


def _toward_target(obs, distance):
    """The body-frame delta of ``distance`` metres straight at the target's centre."""
    az, el = math.radians(obs["bearing_az"]), math.radians(obs["bearing_el"])
    return {"dx": distance * math.cos(el) * math.cos(az),
            "dy": distance * math.cos(el) * math.sin(az), "dz": distance * math.sin(el)}


@given(seed=st.integers(0, 50), kind=st.sampled_from(["rendezvous", "inspection"]),
       moves=st.lists(_MOVES, max_size=12), stop=st.floats(0.6, 1.0))
@example(seed=0, kind="inspection", moves=[], stop=0.79)
@example(seed=0, kind="inspection", moves=[], stop=0.81)
@settings(max_examples=80, deadline=None)
def test_a_step_collides_exactly_when_its_range_is_inside_the_margin(satellites, seed, kind,
                                                                     moves, stop):
    # free moves, then a straight approach that ends ``stop`` metres off the
    # surface, on either side of the margin
    sim, _, obs = fresh(satellites, kind=kind, seed=seed)
    earlier = False
    for index in range(len(moves) + 20):
        if index < len(moves):
            dx, dy, dz, dyaw = moves[index]
            delta = {"dx": dx, "dy": dy, "dz": dz, "dyaw": dyaw}
        elif obs["true_range"] > stop:
            delta = _toward_target(obs, min(obs["true_range"] - stop, 1.9))
        else:
            break
        obs = sim.step(delta)
        collided = earlier or obs["true_range"] < env.COLLISION_MARGIN
        assert obs["collided"] is sim.collided is collided
        earlier = collided


@given(gain=st.floats(0.05, 8.0))
@settings(max_examples=40, deadline=None)
def test_brightness_law_exact(satellites, gain):
    sim, task, _ = fresh(satellites)
    sim.exposure_gain = gain
    obs = sim.observe()
    expected = min(max(140.0 * gain, 0.0), 255.0)
    assert obs["mean_brightness"] == expected


# -- scoring ------------------------------------------------------------


def test_match_dimension_thresholds():
    gt = "gold foil insulation wrapping compact rectangular bus"
    assert env.match_dimension(gt, gt) == 1.0
    assert env.match_dimension(gt, "gold foil insulation visible") == 0.5
    assert env.match_dimension(gt, "completely unrelated words here") == 0.0


def test_score_report_twenty_points_per_dimension(satellites):
    sat = satellites["CAPSTONE"]
    full = env.score_report(sat.ground_truth_report, sat.ground_truth_report)
    assert full == 100.0
    assert env.score_report(sat.ground_truth_report, {}) == 0.0
    one = dict.fromkeys(env.REPORT_DIMENSIONS, "")
    one["structure"] = sat.ground_truth_report["structure"]
    assert env.score_report(sat.ground_truth_report, one) == 20.0


def _nav_trajectory(ended_by, true_range):
    traj = Trajectory(ended_by=ended_by)
    traj.steps.append(
        StepRecord(
            step=0,
            observation={"true_range": true_range},
            call={"tool": "terminate", "args": {}, "step_index": 0, "inner_round": 0},
            result={"ok": True, "payload": {}, "error_kind": None},
        )
    )
    return traj


def test_make_task_names_bad_values():
    assert env.make_task("search").max_steps == 50
    assert env.make_task("search", max_steps=3).max_steps == 3
    with pytest.raises(env.EnvError, match="max_steps"):
        env.make_task("rendezvous", max_steps=0)
    with pytest.raises(env.EnvError, match="'docking'"):
        env.make_task("docking")
    with pytest.raises(env.EnvError, match="'C9'"):
        env.make_task("rendezvous", condition="C9")


# Each task kind's description, step cap and seed-0 start observation at
# CAPSTONE under C1, as the kind's constants gave them before TASK_KINDS
_KIND_PINS = {
    "rendezvous": ("rendezvous with CAPSTONE and approach to about 2 m", 50, {
        "visible": True, "bearing_az": -1.7503534878453015, "bearing_el": -1.904475700995172,
        "angular_size": 3.68954159413934, "mean_brightness": 140.0, "exposure_gain": 1.0,
        "step_index": 0, "collided": False, "true_range": 15.023874115156207,
        "lidar_range": 15.023874115156207}),
    "search": ("search to find CAPSTONE then approach to about 2 m", 50, {
        "visible": False, "bearing_az": 73.24964651215468, "bearing_el": -1.904475700995172,
        "angular_size": 3.68954159413934, "mean_brightness": 140.0, "exposure_gain": 1.0,
        "step_index": 0, "collided": False, "true_range": 15.023874115156207,
        "lidar_range": None}),
    "inspection": ("inspect CAPSTONE up close and report its characteristics", 15, {
        "visible": True, "bearing_az": -5.255111424267712, "bearing_el": -4.51291995273151,
        "angular_size": 8.72159294149891, "mean_brightness": 140.0, "exposure_gain": 1.0,
        "step_index": 0, "collided": False, "true_range": 6.0567268925293,
        "lidar_range": 6.0567268925293}),
}


@pytest.mark.parametrize("kind", list(env.TASK_KINDS))
def test_each_task_kind_keeps_its_description_step_cap_and_start(satellites, kind):
    description, max_steps, start = _KIND_PINS[kind]
    task = env.make_task(kind)
    assert (task.kind, task.description, task.max_steps) == (kind, description, max_steps)
    observation = env.SimEnv(satellites).reset(task, seed=0)
    assert list(observation) == list(start)
    assert all(repr(observation[k]) == repr(v) for k, v in start.items()), observation


def test_evaluate_success_band(satellites):
    task = env.make_task("rendezvous")
    sat = satellites["CAPSTONE"]
    assert env.evaluate(_nav_trajectory("terminate", 1.0), task, sat).success is True
    assert env.evaluate(_nav_trajectory("terminate", 3.0), task, sat).success is True
    assert env.evaluate(_nav_trajectory("terminate", 0.99), task, sat).success is False
    assert env.evaluate(_nav_trajectory("terminate", 3.01), task, sat).success is False


def test_evaluate_timeout_and_collision_never_succeed(satellites):
    task = env.make_task("rendezvous")
    sat = satellites["CAPSTONE"]
    for cause in ("timeout", "collision"):
        outcome = env.evaluate(_nav_trajectory(cause, 2.0), task, sat)
        assert outcome.success is False
        assert outcome.reason == cause


def test_evaluate_inspection_scores_last_report(satellites):
    task = env.make_task("inspection")
    sat = satellites["CAPSTONE"]
    traj = Trajectory(ended_by="terminate")
    traj.steps.append(
        StepRecord(
            step=0,
            observation={},
            call={
                "tool": "terminate",
                "args": {"report": dict(sat.ground_truth_report)},
                "step_index": 0,
                "inner_round": 0,
            },
            result={"ok": True, "payload": {}, "error_kind": None},
        )
    )
    outcome = env.evaluate(traj, task, sat)
    assert outcome.score == 100.0
    assert outcome.success is None  # inspection carries a score, not success


# -- bridge -------------------------------------------------------------


def test_bridge_round_trip(satellites):
    backend = bus.InProcessBus()
    bridge = env.EnvBridge(env.SimEnv(satellites), backend)
    bridge.reset(env.make_task("rendezvous"), seed=0)
    before = backend.get_latest(bus.SENSOR_RGB).record()

    backend.publish(
        bus.CMD_POSE_DELTA,
        {"dx": 1.0, "dy": 0.0, "dz": 0.0, "dyaw": 0.0, "dpitch": 0.0, "droll": 0.0},
    )
    after = backend.get_latest(bus.SENSOR_RGB).record()
    assert after["step_index"] == before["step_index"] + 1
    assert after["true_range"] < before["true_range"]
    assert backend.get_latest(bus.SENSOR_LIDAR) is not None
    bridge.close()


def test_bridge_reports_rejected_commands_via_note(satellites):
    backend = bus.InProcessBus()
    bridge = env.EnvBridge(env.SimEnv(satellites), backend)
    bridge.reset(env.make_task("rendezvous"), seed=0)
    backend.publish(
        bus.CMD_POSE_DELTA,
        {"dx": 5.0, "dy": 0.0, "dz": 0.0, "dyaw": 0.0, "dpitch": 0.0, "droll": 0.0},
    )
    record = backend.get_latest(bus.SENSOR_RGB).record()
    assert record["note"].startswith("StepLimitExceeded")
    assert record["step_index"] == 0  # pose unchanged
    bridge.close()


def test_bridge_ignores_commands_after_terminate(satellites):
    backend = bus.InProcessBus()
    bridge = env.EnvBridge(env.SimEnv(satellites), backend)
    bridge.reset(env.make_task("rendezvous"), seed=0)
    backend.publish(bus.CMD_TERMINATE, {"reason": "done"})
    assert bridge.terminated
    seq = backend.get_latest(bus.SENSOR_RGB).seq
    backend.publish(
        bus.CMD_POSE_DELTA,
        {"dx": 1.0, "dy": 0.0, "dz": 0.0, "dyaw": 0.0, "dpitch": 0.0, "droll": 0.0},
    )
    assert backend.get_latest(bus.SENSOR_RGB).seq == seq
    bridge.close()


def test_the_decision_side_reads_what_the_simulator_returned(satellites, monkeypatch):
    returned = []

    def recording(method):
        def record(self, *args, **kwargs):
            obs = method(self, *args, **kwargs)
            returned.append(obs)
            return obs
        return record

    for name in ("reset", "step", "set_exposure", "observe"):
        monkeypatch.setattr(env.SimEnv, name, recording(getattr(env.SimEnv, name)))
    backend = bus.InProcessBus()
    bridge = env.EnvBridge(env.SimEnv(satellites), backend)
    assert bridge.reset(env.make_task("rendezvous"), seed=0) is returned[-1]
    dispatcher = tools.ToolDispatcher(
        backend, tools.builtin_catalog(), tools.builtin_profiles()["hybrid-nav"],
        satellites, "CAPSTONE", obs_timeout=0.5,
    )
    assert dispatcher.latest_observation() == returned[-1]
    calls = [
        ("set_position", {"dx": 1.0, "dy": 0.0, "dz": 0.0}),
        ("set_attitude", {"dyaw": 20.0, "dpitch": 0.0, "droll": 0.0}),  # out of the LiDAR cone
        ("set_exposure", {"gain_delta": 50.0}),  # rejected: the gain leaves its range
        ("set_exposure", {"gain_delta": -0.5}),
    ]
    after = []
    for tool, args in calls:
        result = dispatcher.dispatch(tools.ToolCall(tool=tool, args=args))
        assert dispatcher.observation_after(result) == returned[-1]
        after.append(returned[-1])
    assert ["note" in obs for obs in after] == [False, False, True, False]
    assert after[2]["note"].startswith("GainOutOfRange")
    assert after[1]["lidar_range"] is None
    bridge.close()


# -- the satellite catalog file -------------------------------------------

def _entry(**over):
    entry = {"id": "X", "position": [0, 0, 0], "bounding_radius": 1.0,
             "parts": [["hull", "grey hull"]],
             "ground_truth_report": {name: "plain" for name in env.REPORT_DIMENSIONS}}
    entry.update(over)
    return {name: value for name, value in entry.items() if value is not None}


def test_the_shipped_catalog_loads_every_entry_as_written(satellites):
    entries = json.loads(resources.files("proxagent.data").joinpath("satellites.json").read_text())
    assert list(satellites) == [entry["id"] for entry in entries]
    for entry in entries:
        assert satellites[entry["id"]] == env.SatelliteModel(
            id=entry["id"], position=tuple(entry["position"]),
            bounding_radius=entry["bounding_radius"],
            parts=[tuple(part) for part in entry["parts"]],
            ground_truth_report=entry["ground_truth_report"],
            base_luminance=entry["base_luminance"])


@pytest.mark.parametrize("text,problem", [
    (json.dumps([_entry(bounding_radius=None)]), "entry 0 ('X'): missing field 'bounding_radius'"),
    (json.dumps(["X"]), "entry 0: must be an object, got 'X'"),
    (json.dumps([_entry(), _entry(id="Y", bounding_radius="big")]),
     "entry 1 ('Y'): field 'bounding_radius' must be a finite number > 0, got 'big'"),
    (json.dumps([_entry(bounding_radius=0)]), "entry 0 ('X'): field 'bounding_radius' must be"),
    (json.dumps([_entry(id=7)]), "entry 0: field 'id' must be a string, got 7"),
    (json.dumps([_entry(position=[0, 0])]), "entry 0 ('X'): field 'position' must be three"),
    (json.dumps([_entry(position=[0, True, 0])]), "field 'position' must be three finite"),
    (json.dumps([_entry(parts=[["hull"]])]), "field 'parts' must be a list of [name, attribute]"),
    (json.dumps([_entry(ground_truth_report={"structure": "box"})]),
     "field 'ground_truth_report' must be an object of strings with exactly the keys"),
    (json.dumps([_entry(base_luminance=1e999)]), "field 'base_luminance' must be a finite number"),
    ("[" * 100_000 + "]" * 100_000, ": not JSON (nests too deeply)"),
    ("[1", ": not JSON (Expecting ',' delimiter: line 1 column 3 (char 2))"),
    (json.dumps({"X": _entry()}), ": must be a JSON array of entries"),
    (json.dumps([_entry(), _entry(bounding_radius=2.0)]),
     "entry 1: field 'id' repeats an earlier entry's, 'X'"),
], ids=["no-bounding-radius", "not-an-object", "radius-not-a-number", "radius-zero", "id-not-text",
        "two-coordinates", "bool-coordinate", "part-not-a-pair", "report-dimensions",
        "luminance-infinite", "nests-too-deeply", "not-json", "not-an-array", "repeated-id"])
def test_a_bad_catalog_entry_names_the_file_the_entry_and_the_field(tmp_path, text, problem):
    path = tmp_path / "catalog.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(env.EnvError) as refused:
        env.load_satellite_catalog(path)
    message = str(refused.value)
    assert message.startswith(f"satellite catalog {str(path)!r}")
    assert problem in message
    assert len(message) - len(str(path)) < 200  # a long value is cut short


def test_a_catalog_entry_may_leave_out_base_luminance(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([_entry(), _entry(id="Y", base_luminance=90)]))
    catalog = env.load_satellite_catalog(path)
    assert catalog["X"].base_luminance == env.DEFAULT_BASE_LUMINANCE
    assert catalog["Y"].base_luminance == 90
    assert catalog["X"].position == (0, 0, 0) and catalog["X"].parts == [("hull", "grey hull")]
