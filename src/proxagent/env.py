"""Kinematic proximity-operations simulator.

A 6-DoF chaser moves relative to a static satellite target. Observations
are structured records (visibility, bearing, angular size, brightness,
LiDAR range) rather than rendered images; the decision layer consumes any
observation encoding, so structured records keep the loop fully testable.

Pose deltas are applied in the chaser's current body frame, so "forward"
is always attitude-relative. Brightness follows an exact law:
``clamp(base_luminance * exposure_gain, 0, 255)``.
"""

from __future__ import annotations

import functools
import math
import operator
import random
import struct
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from . import bus as busmod
from .skills import words
from .trajectory import ENDED_TERMINATE, Outcome, Trajectory


class EnvError(Exception):
    pass


class UnknownSatellite(EnvError):
    pass


class StepLimitExceeded(EnvError):
    pass


class GainOutOfRange(EnvError):
    pass


# Task kinds
RENDEZVOUS = "rendezvous"
SEARCH = "search"
INSPECTION = "inspection"
TASK_KINDS = (RENDEZVOUS, SEARCH, INSPECTION)

# Geometry and sensor defaults
HALF_FOV_DEG = 30.0
LIDAR_HALF_CONE_DEG = 15.0
MAX_STEP_TRANSLATION = 2.0   # meters per step
MAX_STEP_ROTATION = 90.0     # degrees per component per step
GAIN_MIN, GAIN_MAX = 0.05, 8.0
COLLISION_MARGIN = 0.8       # meters to target surface
DEFAULT_BASE_LUMINANCE = 140.0

# Terminal-distance band that counts as navigation success
SUCCESS_BAND = (1.0, 3.0)

# Start ranges to target surface, per task kind
START_RANGE = {RENDEZVOUS: 15.0, SEARCH: 15.0, INSPECTION: 6.0}
# Search starts with the chaser yawed away so the target is out of the FOV
SEARCH_YAW_OFFSET = -75.0

DEFAULT_MAX_STEPS = {RENDEZVOUS: 50, SEARCH: 50, INSPECTION: 15}

REPORT_DIMENSIONS = ("structure", "appendages", "surface", "condition", "scale")


def wrap_180(angle: float) -> float:
    """Wrap an angle into [-180, 180)."""
    return (angle + 180.0) % 360.0 - 180.0


Matrix = tuple[tuple[float, float, float], ...]
_attitude_bits = struct.Struct("3d").pack


@dataclass
class Pose:
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    yaw: float = 0.0
    pitch: float = 0.0
    roll: float = 0.0

    def normalize(self) -> None:
        self.yaw = wrap_180(self.yaw)
        self.pitch = max(-90.0, min(90.0, self.pitch))
        self.roll = wrap_180(self.roll)

    # The matrix of the attitude it was last computed for, which that
    # attitude's exact bits name: -0.0 and 0.0 each get their own.
    _attitude: bytes = field(default=b"", init=False, repr=False, compare=False)
    _matrix: Optional[Matrix] = field(default=None, init=False, repr=False, compare=False)

    def rotation(self) -> Matrix:
        """Body-to-world rotation matrix, Rz(yaw) @ Ry(pitch) @ Rx(roll),
        computed once per attitude: a step's motion and the observation
        after it share one."""
        attitude = _attitude_bits(self.yaw, self.pitch, self.roll)
        if attitude != self._attitude:
            cy, sy = math.cos(math.radians(self.yaw)), math.sin(math.radians(self.yaw))
            cp, sp = math.cos(math.radians(self.pitch)), math.sin(math.radians(self.pitch))
            cr, sr = math.cos(math.radians(self.roll)), math.sin(math.radians(self.roll))
            self._matrix = (
                (cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr),
                (sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr),
                (-sp, cp * sr, cp * cr),
            )
            self._attitude = attitude
        return self._matrix

    # Each component adds its three products to 0.0 left to right, as sum()
    # did before Python 3.12: the rounding the recorded trajectories have.

    def body_to_world(self, v: tuple[float, float, float]) -> tuple[float, float, float]:
        (a, b, c), (d, e, f), (g, h, i) = self.rotation()
        x, y, z = v
        return (0.0 + a * x + b * y + c * z,
                0.0 + d * x + e * y + f * z,
                0.0 + g * x + h * y + i * z)

    def world_to_body(self, v: tuple[float, float, float]) -> tuple[float, float, float]:
        (a, b, c), (d, e, f), (g, h, i) = self.rotation()
        x, y, z = v
        return (0.0 + a * x + d * y + g * z,
                0.0 + b * x + e * y + h * z,
                0.0 + c * x + f * y + i * z)


@dataclass
class SatelliteModel:
    """One satellite of the catalog, as ``load_satellite_catalog`` checked it."""

    id: str
    position: tuple[float, float, float]
    bounding_radius: float                        # > 0
    parts: list[tuple[str, str]]                  # (part_name, attribute text)
    ground_truth_report: dict[str, str]           # REPORT_DIMENSIONS -> text
    base_luminance: float = DEFAULT_BASE_LUMINANCE


def _is_number(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float)) \
        and busmod.is_finite_number(value)


def _is_string_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(isinstance(v, str) for v in value)


# The fields of a satellite catalog entry: name -> (check, what the value
# must be). Each is required but base_luminance, which defaults to
# DEFAULT_BASE_LUMINANCE; other fields are ignored.
_CATALOG_FIELDS = {
    "id": (lambda v: isinstance(v, str), "a string"),
    "position": (lambda v: isinstance(v, list) and len(v) == 3 and all(map(_is_number, v)),
                 "three finite numbers"),
    "bounding_radius": (lambda v: _is_number(v) and v > 0, "a finite number > 0"),
    "parts": (lambda v: isinstance(v, list) and all(map(_is_string_pair, v)),
              "a list of [name, attribute] string pairs"),
    "ground_truth_report": (
        lambda v: isinstance(v, dict) and set(v) == set(REPORT_DIMENSIONS)
        and all(isinstance(text, str) for text in v.values()),
        f"an object of strings with exactly the keys {', '.join(REPORT_DIMENSIONS)}"),
    "base_luminance": (_is_number, "a finite number"),
}


def _catalog_entry(entry, where: str) -> SatelliteModel:
    """The satellite a catalog entry describes; EnvError naming ``where``
    (the file and the entry) and the field when it describes none."""
    if not isinstance(entry, dict):
        raise EnvError(f"{where}: must be an object, got {entry!r:.60}")
    if isinstance(entry.get("id"), str):
        where = f"{where} ({entry['id']!r})"
    entry = {"base_luminance": DEFAULT_BASE_LUMINANCE, **entry}
    for name, (check, what) in _CATALOG_FIELDS.items():
        if name not in entry:
            raise EnvError(f"{where}: missing field {name!r}")
        if not check(entry[name]):
            raise EnvError(f"{where}: field {name!r} must be {what}, got {entry[name]!r:.60}")
    return SatelliteModel(
        id=entry["id"],
        position=tuple(entry["position"]),
        bounding_radius=entry["bounding_radius"],
        parts=[tuple(p) for p in entry["parts"]],
        ground_truth_report=entry["ground_truth_report"],
        base_luminance=entry["base_luminance"],
    )


def load_satellite_catalog(path: Optional[Path] = None) -> dict[str, SatelliteModel]:
    """Load the satellite catalog, a JSON array of entries; defaults to the
    shipped one. A file that is not such an array is an EnvError naming it,
    and an entry that describes no satellite one naming the file, the entry
    (its index and id) and the field."""
    if path is None:
        source = resources.files("proxagent.data").joinpath("satellites.json")
        text = source.read_text()
    else:
        source = Path(path)
        text = source.read_text(encoding="utf-8")
    name = f"satellite catalog {str(source)!r}"
    try:
        entries = busmod.loads(text)
    except ValueError as exc:
        raise EnvError(f"{name}: not JSON ({exc})") from None
    except RecursionError:
        raise EnvError(f"{name}: not JSON (nests too deeply)") from None
    if not isinstance(entries, list):
        raise EnvError(f"{name}: must be a JSON array of entries")
    catalog = {}
    for index, entry in enumerate(entries):
        where = f"{name} entry {index}"
        model = _catalog_entry(entry, where)
        if model.id in catalog:
            raise EnvError(f"{where}: field 'id' repeats an earlier entry's, {model.id!r}")
        catalog[model.id] = model
    return catalog


@dataclass(frozen=True)
class InitialCondition:
    id: str
    position_offset: tuple[float, float, float]
    initial_exposure_gain: float


CONDITIONS = {
    "C1": InitialCondition("C1", (0.0, 0.0, 0.0), 1.0),
    "C2": InitialCondition("C2", (0.0, 8.0, 0.0), 0.1),   # far lateral + underexposed
    "C3": InitialCondition("C3", (-12.0, 0.0, 0.0), 4.0),  # reverse offset + overexposed
}


@dataclass
class TaskSpec:
    kind: str
    description: str
    satellite_id: str
    condition: InitialCondition
    max_steps: int

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise EnvError(f"unknown task kind: {self.kind!r}")
        if self.max_steps < 1:
            raise EnvError("max_steps must be >= 1")


def make_task(
    kind: str,
    satellite_id: str = "CAPSTONE",
    condition: str = "C1",
    max_steps: Optional[int] = None,
) -> TaskSpec:
    default_desc = {
        RENDEZVOUS: f"rendezvous with {satellite_id} and approach to about 2 m",
        SEARCH: f"search to find {satellite_id} then approach to about 2 m",
        INSPECTION: f"inspect {satellite_id} up close and report its characteristics",
    }
    if kind not in TASK_KINDS:
        raise EnvError(f"unknown task kind: {kind!r}")
    if condition not in CONDITIONS:
        raise EnvError(f"unknown condition: {condition!r}")
    return TaskSpec(
        kind=kind,
        description=default_desc[kind],
        satellite_id=satellite_id,
        condition=CONDITIONS[condition],
        max_steps=DEFAULT_MAX_STEPS[kind] if max_steps is None else max_steps,
    )


# The camera record's fields, in the order the bus contract lists them
_RGB_FIELDS = tuple(busmod.CHANNEL_SCHEMAS[busmod.SENSOR_RGB])
_rgb_values = operator.attrgetter(*_RGB_FIELDS)


@dataclass
class Observation:
    visible: bool
    bearing_az: float
    bearing_el: float
    angular_size: float
    mean_brightness: float
    lidar_range: Optional[float]
    exposure_gain: float
    step_index: int
    collided: bool = False
    true_range: float = 0.0   # ground-truth surface range, evaluation only
    note: Optional[str] = None

    def rgb_payload(self) -> dict:
        record = dict(zip(_RGB_FIELDS, _rgb_values(self)))
        if self.note is not None:
            record["note"] = self.note
        return record

    def lidar_payload(self) -> dict:
        return {"range_m": self.lidar_range}


class SimEnv:
    """Single-chaser kinematic environment. One instance per episode."""

    def __init__(self, satellites: dict[str, SatelliteModel]):
        self.satellites = satellites
        self.chaser = Pose()
        self.target: Optional[SatelliteModel] = None
        self.exposure_gain = 1.0
        self.step_index = 0
        self.collided = False
        self.task: Optional[TaskSpec] = None

    # -- lifecycle -----------------------------------------------------

    def reset(self, task: TaskSpec, seed: int = 0) -> Observation:
        if task.satellite_id not in self.satellites:
            raise UnknownSatellite(task.satellite_id)
        self.task = task
        self.target = self.satellites[task.satellite_id]
        rng = random.Random(seed)

        tx, ty, tz = self.target.position
        start = START_RANGE[task.kind] + self.target.bounding_radius
        off = task.condition.position_offset
        jitter_y = rng.uniform(-1.0, 1.0)
        jitter_z = rng.uniform(-1.0, 1.0)
        jitter_yaw = rng.uniform(-5.0, 5.0)

        self.chaser = Pose(
            x=tx - start + off[0],
            y=ty + off[1] + jitter_y,
            z=tz + off[2] + jitter_z,
            yaw=jitter_yaw,
        )
        if task.kind == SEARCH:
            self.chaser.yaw += SEARCH_YAW_OFFSET
        self.chaser.normalize()
        self.exposure_gain = task.condition.initial_exposure_gain
        self.step_index = 0
        self.collided = False
        return self.observe()

    # -- dynamics ------------------------------------------------------

    def step(self, delta: dict) -> Observation:
        """Apply a body-frame pose delta. Raises StepLimitExceeded on bounds."""
        # float() first: an integer too large for float arithmetic must fail
        # the bounds checks below, not overflow inside them
        get = delta.get
        dx, dy, dz = float(get("dx", 0.0)), float(get("dy", 0.0)), float(get("dz", 0.0))
        dyaw, dpitch = float(get("dyaw", 0.0)), float(get("dpitch", 0.0))
        droll = float(get("droll", 0.0))
        if math.sqrt(dx * dx + dy * dy + dz * dz) > MAX_STEP_TRANSLATION + 1e-9:
            raise StepLimitExceeded(
                f"translation norm exceeds {MAX_STEP_TRANSLATION} m"
            )
        if max(abs(dyaw), abs(dpitch), abs(droll)) > MAX_STEP_ROTATION + 1e-9:
            raise StepLimitExceeded(
                f"rotation component exceeds {MAX_STEP_ROTATION} deg"
            )
        wx, wy, wz = self.chaser.body_to_world((dx, dy, dz))
        self.chaser.x += wx
        self.chaser.y += wy
        self.chaser.z += wz
        self.chaser.yaw += dyaw
        self.chaser.pitch += dpitch
        self.chaser.roll += droll
        self.chaser.normalize()
        self.step_index += 1
        if self._surface_range() < COLLISION_MARGIN:
            self.collided = True
        return self.observe()

    def set_exposure(self, gain_delta: float) -> Observation:
        new_gain = self.exposure_gain + float(gain_delta)
        if not (GAIN_MIN <= new_gain <= GAIN_MAX):
            raise GainOutOfRange(
                f"gain {new_gain:.3f} outside [{GAIN_MIN}, {GAIN_MAX}]"
            )
        self.exposure_gain = new_gain
        self.step_index += 1
        return self.observe()

    # -- observation ---------------------------------------------------

    def _surface_range(self) -> float:
        tx, ty, tz = self.target.position
        d = (tx - self.chaser.x, ty - self.chaser.y, tz - self.chaser.z)
        center = math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
        return center - self.target.bounding_radius

    def observe(self) -> Observation:
        tx, ty, tz = self.target.position
        d = (tx - self.chaser.x, ty - self.chaser.y, tz - self.chaser.z)
        bx, by, bz = self.chaser.world_to_body(d)
        center_range = math.sqrt(bx * bx + by * by + bz * bz)
        az = math.degrees(math.atan2(by, bx))
        el = math.degrees(math.atan2(bz, math.hypot(bx, by)))
        visible = bx > 0 and abs(az) <= HALF_FOV_DEG and abs(el) <= HALF_FOV_DEG
        angular_size = math.degrees(
            2.0 * math.atan2(self.target.bounding_radius, max(center_range, 1e-9))
        )
        brightness = min(
            max(self.target.base_luminance * self.exposure_gain, 0.0), 255.0
        )
        in_lidar_cone = (
            bx > 0 and abs(az) <= LIDAR_HALF_CONE_DEG and abs(el) <= LIDAR_HALF_CONE_DEG
        )
        surface = center_range - self.target.bounding_radius
        return Observation(
            visible=visible,
            bearing_az=az,
            bearing_el=el,
            angular_size=angular_size,
            mean_brightness=brightness,
            lidar_range=surface if in_lidar_cone and surface > 0 else None,
            exposure_gain=self.exposure_gain,
            step_index=self.step_index,
            collided=self.collided,
            true_range=surface,
        )


# -- evaluation --------------------------------------------------------

_STOPWORDS = frozenset(
    "the a an and or of to with in on at is are its it this that".split()
)


@functools.lru_cache(maxsize=1024)
def _tokens(text: str) -> frozenset[str]:
    return frozenset(w for w in words(text) if len(w) > 2 and w not in _STOPWORDS)


def match_dimension(ground_truth: str, submitted: str) -> float:
    """Keyword-overlap match for one report dimension: 0, 0.5, or 1."""
    gt = _tokens(ground_truth)
    sub = _tokens(submitted)
    if not gt:
        return 0.0
    ratio = len(gt & sub) / len(gt)
    if ratio >= 0.75:
        return 1.0
    if ratio >= 0.35:
        return 0.5
    return 0.0


def score_report(ground_truth: dict[str, str], submitted: dict) -> float:
    """0-100 inspection score: 20 points per dimension, scaled by match."""
    total = 0.0
    for dim in REPORT_DIMENSIONS:
        sub = submitted.get(dim, "") if isinstance(submitted, dict) else ""
        total += 20.0 * match_dimension(ground_truth[dim], str(sub))
    return total


def evaluate(trajectory: Trajectory, task: TaskSpec, satellite: SatelliteModel) -> Outcome:
    """Score an ended trajectory. Total over all termination causes."""
    steps = len(trajectory.steps)
    if task.kind == INSPECTION:
        report = {}
        if trajectory.ended_by == ENDED_TERMINATE and trajectory.steps:
            report = trajectory.steps[-1].call.get("args", {}).get("report") or {}
        score = score_report(satellite.ground_truth_report, report)
        reason = trajectory.ended_by
        return Outcome(steps=steps, reason=reason, score=score)

    terminal_distance = None
    if trajectory.steps:
        terminal_distance = trajectory.steps[-1].observation.get("true_range")
    if trajectory.ended_by != ENDED_TERMINATE:  # collision, timeout or error
        return Outcome(
            steps=steps, reason=trajectory.ended_by, success=False,
            terminal_distance=terminal_distance,
        )
    lo, hi = SUCCESS_BAND
    in_band = terminal_distance is not None and lo <= terminal_distance <= hi
    reason = "terminate" if in_band else "terminated outside success band"
    return Outcome(
        steps=steps, reason=reason, success=bool(in_band),
        terminal_distance=terminal_distance,
    )


class EnvBridge:
    """Connects a SimEnv to the message bus.

    Subscribes to the command keys, applies each command to the environment,
    and publishes the resulting observation on the sensor keys. Command
    application is serialized by the bus's per-key delivery; the environment
    itself is single-threaded.
    """

    def __init__(self, env: SimEnv, backend: busmod.BusBackend):
        self.env = env
        self.backend = backend
        self.terminated = False
        self._subs = [
            backend.subscribe(busmod.CMD_POSE_DELTA, self._on_pose_delta),
            backend.subscribe(busmod.CMD_EXPOSURE, self._on_exposure),
            backend.subscribe(busmod.CMD_TERMINATE, self._on_terminate),
        ]

    def close(self) -> None:
        for sub in self._subs:
            sub.cancel()
        self._subs = []

    def reset(self, task: TaskSpec, seed: int = 0) -> Observation:
        self.terminated = False
        obs = self.env.reset(task, seed=seed)
        self._publish(obs)
        return obs

    def _publish(self, obs: Observation) -> None:
        self.backend.publish(busmod.SENSOR_LIDAR, obs.lidar_payload())
        self.backend.publish(busmod.SENSOR_RGB, obs.rgb_payload())

    def _apply(self, command, argument) -> None:
        """Apply one command and publish the observation after it. A command
        that raises (a rejected one leaves the state unchanged) is reported
        as a note naming the exception, so the dispatcher returns at once."""
        try:
            obs = command(argument)
        except Exception as exc:
            obs = self.env.observe()
            obs.note = f"{type(exc).__name__}: {exc}"
        self._publish(obs)

    def _on_pose_delta(self, msg: busmod.BusMessage) -> None:
        if not self.terminated:
            self._apply(self.env.step, msg.record())

    def _on_exposure(self, msg: busmod.BusMessage) -> None:
        if not self.terminated:
            self._apply(self.env.set_exposure, msg.record()["gain_delta"])

    def _on_terminate(self, msg: busmod.BusMessage) -> None:
        self.terminated = True
