"""Tool layer: catalog, profiles, and synchronous dispatch.

The catalog maps each tool name to its descriptor. Tools fall into four
categories. A control tool is the ``cmd/*`` bus channel it commands
(``COMMAND_CHANNELS``): it publishes its args there and, unless it is the
terminal tool, blocks until the next observation arrives. Perception tools
compute over the latest observation; the knowledge tool reads the satellite
knowledge base; the auxiliary tool evaluates a pure arithmetic expression.
Translation and rotation are deliberately separate tools.

A profile is a set of tool names; the visible tools are the catalog's tools
it names, in catalog order. The three shipped profiles differ only in
configuration, never in code.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import itertools
import operator
import re
import time
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping, Optional

from . import bus as busmod
from .env import HALF_FOV_DEG, GainOutOfRange, SatelliteModel, StepLimitExceeded


class ToolError(Exception):
    pass


CATEGORY_PERCEPTION = "perception"
CATEGORY_CONTROL = "control"
CATEGORY_KNOWLEDGE = "knowledge"
CATEGORY_AUXILIARY = "auxiliary"

# Error kinds carried in ToolResult
ERR_INVALID_ARGS = "InvalidArgs"
ERR_NOT_VISIBLE = "ToolNotVisible"
ERR_ENV_TIMEOUT = "EnvTimeout"
ERR_EXPRESSION = "ExpressionError"
ERR_STEP_LIMIT = StepLimitExceeded.__name__
ERR_GAIN_RANGE = GainOutOfRange.__name__
ERR_ENV_FAULT = "EnvFault"
# Observation-note prefixes (env exception names) that are error kinds of their own
_NOTE_ERRORS = frozenset({ERR_STEP_LIMIT, ERR_GAIN_RANGE})

BRIGHTNESS_UNDER = 40.0
BRIGHTNESS_OVER = 220.0
UNDEREXPOSED, OVEREXPOSED, NOMINAL = "underexposed", "overexposed", "nominal"

TERMINATE = "terminate"  # the terminal tool: committing it ends the episode


def exposure_verdict(brightness: float) -> str:
    """The exposure band of a mean image brightness: below ``BRIGHTNESS_UNDER``
    is underexposed, above ``BRIGHTNESS_OVER`` overexposed, else nominal."""
    if brightness < BRIGHTNESS_UNDER:
        return UNDEREXPOSED
    return OVEREXPOSED if brightness > BRIGHTNESS_OVER else NOMINAL


@dataclass(frozen=True)
class ToolDescriptor:
    """One catalog tool: its name, category, parameter table and description."""

    name: str
    category: str
    params: Mapping[str, tuple]  # a bus field table: name -> kind, the unit in the kind's text
    description: str
    optional: frozenset = frozenset()  # the params a call may leave out


@dataclass
class ToolCall:
    """One tool call a provider chose, with the step and inner round it belongs to."""

    tool: str
    args: dict
    step_index: int = 0
    inner_round: int = 0
    # the descriptor the parser checked ``args`` against; not logged, and
    # dropped by ``dataclasses.replace``, so a changed call is checked anew
    checked: Optional[ToolDescriptor] = field(default=None, init=False, repr=False,
                                              compare=False)

    def to_dict(self) -> dict:
        return {"tool": self.tool, "args": self.args, "step_index": self.step_index,
                "inner_round": self.inner_round}


@dataclass
class ToolResult:
    """What a dispatched tool call returned: its payload, or its error kind."""

    ok: bool
    payload: dict = field(default_factory=dict)
    error_kind: Optional[str] = None

    def __post_init__(self) -> None:
        assert self.ok == (self.error_kind is None)

    def to_dict(self) -> dict:
        return dict(vars(self))


@functools.cache
def builtin_catalog() -> Mapping[str, ToolDescriptor]:
    """The shipped catalog, tool name -> descriptor in catalog order. Built
    once per process; the mapping and each tool's params are read-only
    because they are shared."""
    meters = (busmod.is_number, "a finite number of meters")
    degrees = (busmod.is_number, "a finite number of degrees")
    tools = [
        ToolDescriptor(
            "brightness_assess", CATEGORY_PERCEPTION, {},
            "Assess mean image brightness and report an exposure verdict.",
        ),
        ToolDescriptor(
            "segment_parts", CATEGORY_PERCEPTION, {},
            "List target satellite parts currently visible, with bearings.",
        ),
        ToolDescriptor(
            "crop_region", CATEGORY_PERCEPTION,
            {"az_min": degrees, "az_max": degrees},
            "Restrict the part listing to a bearing window.",
        ),
        ToolDescriptor(
            "zoom", CATEGORY_PERCEPTION,
            {"factor": busmod.NUMBER},
            "Magnify the reported angular size detail of the target.",
        ),
        ToolDescriptor(
            "lidar_range", CATEGORY_PERCEPTION, {},
            "Read the latest LiDAR range summary to the target surface.",
        ),
        ToolDescriptor(
            "set_position", CATEGORY_CONTROL,
            {"dx": meters, "dy": meters, "dz": meters},
            "Translate the chaser by a body-frame delta.",
        ),
        ToolDescriptor(
            "set_attitude", CATEGORY_CONTROL,
            {"dyaw": degrees, "dpitch": degrees, "droll": degrees},
            "Rotate the chaser by yaw/pitch/roll deltas.",
        ),
        ToolDescriptor(
            "set_exposure", CATEGORY_CONTROL,
            {"gain_delta": busmod.NUMBER},
            "Adjust the camera exposure gain by a delta.",
        ),
        ToolDescriptor(
            TERMINATE, CATEGORY_CONTROL,
            {"reason": busmod.STRING, "report": busmod.OBJECT},
            "End the episode; optionally attach an inspection report.",
            frozenset({"reason", "report"}),
        ),
        ToolDescriptor(
            "kb_lookup", CATEGORY_KNOWLEDGE,
            {"satellite_id": busmod.STRING},
            "Look up known characteristics of a satellite.",
            frozenset({"satellite_id"}),
        ),
        ToolDescriptor(
            "eval_expr", CATEGORY_AUXILIARY,
            {"expression": busmod.STRING},
            "Evaluate a pure arithmetic expression.",
        ),
    ]
    return MappingProxyType({
        tool.name: replace(tool, params=MappingProxyType(tool.params)) for tool in tools
    })


@functools.cache
def builtin_profiles() -> Mapping[str, frozenset[str]]:
    """The three shipped profiles, each the set of tool names it grants.

    Built once per process; the mapping is read-only because it is shared.
    """
    everything = frozenset(builtin_catalog())
    hybrid_nav = everything - {"eval_expr"}
    return MappingProxyType({
        "vision-only": hybrid_nav - {"lidar_range"},
        "hybrid-nav": hybrid_nav,
        "hybrid-nav-code": everything,
    })


def visible_tools(catalog: Mapping[str, ToolDescriptor],
                  profile: frozenset[str]) -> tuple[ToolDescriptor, ...]:
    """The profile's tools, in catalog order."""
    return tuple(tool for name, tool in catalog.items() if name in profile)


# The bus channel each control tool commands. A command record is the
# channel's schema fields at zero overlaid with the tool's args, so
# translation and rotation share the pose-delta channel.
COMMAND_CHANNELS = MappingProxyType({
    "set_position": busmod.CMD_POSE_DELTA,
    "set_attitude": busmod.CMD_POSE_DELTA,
    "set_exposure": busmod.CMD_EXPOSURE,
    TERMINATE: busmod.CMD_TERMINATE,
})
_ZERO_COMMANDS = {
    channel: dict.fromkeys(busmod.CHANNEL_SCHEMAS[channel], 0.0)
    for channel in COMMAND_CHANNELS.values()
}


def validate_args(tool: ToolDescriptor, args: dict) -> Optional[str]:
    """Return an error message, or None when args fit the tool's params."""
    problem = busmod.field_problem(tool.params, args, tool.optional, closed=True, noun="arg")
    if problem is not None:
        return problem
    for pname, value in args.items():
        if tool.params[pname] is busmod.OBJECT:
            try:  # the object travels on the bus: JSON-native, inside the args object
                busmod.json_copy(value, pname, depth=2)
            except busmod.SchemaViolation as exc:
                return f"arg {exc}"
    return None


# An expression holds at most this many tokens (words or other non-blank
# characters). Each level of its syntax tree takes at least one, so this
# bounds how deeply it nests before it is parsed, and parsing and evaluating
# it need the same stack on every call path.
MAX_EXPRESSION_TOKENS = 256
_EXPRESSION_TOKEN = re.compile(r"\w+|\S")
# The operators an expression may use: unary + and -, and binary + - * /
_ARITHMETIC = {ast.UAdd: operator.pos, ast.USub: operator.neg, ast.Add: operator.add,
               ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}


def safe_eval(expression: str) -> float:
    """Arithmetic-only expression evaluator: numbers, + - * /, parens, unary minus."""
    if len(expression) > MAX_EXPRESSION_TOKENS:  # else it has too few characters
        tokens = _EXPRESSION_TOKEN.finditer(expression)
        if next(itertools.islice(tokens, MAX_EXPRESSION_TOKENS, None), None) is not None:
            raise ToolError("expression nests too deeply to parse")
    try:
        tree = ast.parse(expression, mode="eval")
    except (SyntaxError, ValueError) as exc:
        raise ToolError(f"parse error: {exc}") from exc
    except RecursionError as exc:  # e.g. a chain of thousands of operators
        raise ToolError("expression nests too deeply to parse") from exc

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            if isinstance(node.value, bool):
                raise ToolError("booleans not allowed")
            return node.value
        if isinstance(node, ast.UnaryOp) and type(node.op) in _ARITHMETIC:
            return _ARITHMETIC[type(node.op)](walk(node.operand))
        if isinstance(node, ast.BinOp) and type(node.op) in _ARITHMETIC:
            left, right = walk(node.left), walk(node.right)
            if right == 0 and type(node.op) is ast.Div:
                raise ToolError("division by zero")
            return _ARITHMETIC[type(node.op)](left, right)
        raise ToolError(f"disallowed syntax: {type(node).__name__}")

    try:
        value = walk(tree)
    except OverflowError as exc:  # e.g. a huge integer divided into a float
        raise ToolError(f"overflow: {exc}") from exc
    except RecursionError as exc:
        raise ToolError("expression nests too deeply to evaluate") from exc
    if not busmod.is_finite_number(value):
        raise ToolError("result is not a finite number in float range")
    return value


def part_bearing_offsets(satellite: SatelliteModel, part_name: str) -> tuple[float, float]:
    """Deterministic angular offset of a part inside the target silhouette."""
    digest = hashlib.blake2b(
        f"{satellite.id}:{part_name}".encode(), digest_size=4
    ).digest()
    frac_az = digest[0] / 255.0 - 0.5
    frac_el = digest[1] / 255.0 - 0.5
    return frac_az * 0.8, frac_el * 0.8  # fractions of half the angular size


class ToolDispatcher:
    """Synchronous per-episode tool dispatch over the bus."""

    def __init__(
        self,
        backend: busmod.BusBackend,
        catalog: Mapping[str, ToolDescriptor],
        profile: frozenset[str],
        satellites: dict[str, SatelliteModel],
        target_id: str,
        obs_timeout: float = 5.0,
    ):
        self.backend = backend
        self.catalog = catalog
        self.profile = profile
        self.satellites = satellites
        self.target_id = target_id
        self.obs_timeout = obs_timeout

    # -- observation access -------------------------------------------

    def latest_observation(self) -> Optional[dict]:
        """The latest camera record plus ``lidar_range`` (the latest LiDAR
        reading, None without one); None before the first observation."""
        rgb = self.backend.get_latest(busmod.SENSOR_RGB)
        if rgb is None:
            return None
        return self._with_lidar(rgb.record())

    def observation_after(self, result: ToolResult) -> Optional[dict]:
        """The observation after a dispatched call, as ``latest_observation``
        gives it. After a motion or exposure command it is the camera record
        the result carries plus the latest LiDAR reading, which the bridge
        publishes before the camera record; otherwise it is read anew."""
        rgb = result.payload.get("observation")
        if rgb is None:
            return self.latest_observation()
        return self._with_lidar(dict(rgb))

    def _with_lidar(self, record: dict) -> dict:
        lidar = self.backend.get_latest(busmod.SENSOR_LIDAR)
        record["lidar_range"] = lidar.payload["range_m"] if lidar else None
        return record

    def _await_new_observation(self, prev_seq: int) -> Optional[dict]:
        # the clock starts after the first read: in process, the bridge has
        # published before publish returns, so that read usually finds it
        deadline = None
        while True:
            msg = self.backend.get_latest(busmod.SENSOR_RGB)
            if msg is not None and msg.seq > prev_seq:
                return msg.record()
            now = time.monotonic()
            if deadline is None:
                deadline = now + self.obs_timeout
            elif now >= deadline:
                return None
            time.sleep(0.001)

    # -- dispatch ------------------------------------------------------

    def dispatch(self, call: ToolCall) -> ToolResult:
        tool = self.catalog.get(call.tool)
        if tool is None or tool.name not in self.profile:
            return ToolResult(False, {"tool": call.tool}, ERR_NOT_VISIBLE)
        if call.checked is not tool:  # else the parser checked these args against it
            problem = validate_args(tool, call.args)
            if problem is not None:
                return ToolResult(False, {"detail": problem}, ERR_INVALID_ARGS)
        if tool.category == CATEGORY_CONTROL:
            return self._dispatch_control(tool, call.args)
        if tool.category == CATEGORY_PERCEPTION:
            return self._dispatch_perception(tool, call.args)
        if tool.category == CATEGORY_KNOWLEDGE:
            return self._dispatch_knowledge(call.args)
        return self._dispatch_auxiliary(call.args)

    def _dispatch_control(self, tool: ToolDescriptor, args: dict) -> ToolResult:
        channel = COMMAND_CHANNELS[tool.name]
        command = {**_ZERO_COMMANDS[channel], **args}
        if tool.name == TERMINATE:
            self.backend.publish(channel, command)
            return ToolResult(True, {"terminated": True})

        # read, not tracked: a camera on its own clock publishes between commands
        prev = self.backend.get_latest(busmod.SENSOR_RGB)
        prev_seq = prev.seq if prev else 0
        self.backend.publish(channel, command)
        obs = self._await_new_observation(prev_seq)
        if obs is None:
            return ToolResult(False, {"tool": tool.name}, ERR_ENV_TIMEOUT)
        note = obs.get("note")
        if note is None:
            return ToolResult(True, {"observation": obs})
        prefix = note.split(":", 1)[0]
        kind = prefix if prefix in _NOTE_ERRORS else ERR_ENV_FAULT
        return ToolResult(False, {"detail": note, "observation": obs}, kind)

    def _visible_parts(self, obs: dict) -> list[dict]:
        if not obs["visible"] or exposure_verdict(obs["mean_brightness"]) == UNDEREXPOSED:
            return []
        satellite = self.satellites[self.target_id]
        parts = []
        half_size = obs["angular_size"] / 2.0
        for part_name, _attr in satellite.parts:
            off_az, off_el = part_bearing_offsets(satellite, part_name)
            part_az = obs["bearing_az"] + off_az * half_size
            part_el = obs["bearing_el"] + off_el * half_size
            if abs(part_az) <= HALF_FOV_DEG and abs(part_el) <= HALF_FOV_DEG:
                parts.append(
                    {
                        "name": part_name,
                        "bearing_az": round(part_az, 3),
                        "bearing_el": round(part_el, 3),
                    }
                )
        return parts

    def _dispatch_perception(self, tool: ToolDescriptor, args: dict) -> ToolResult:
        obs = self.latest_observation()
        if obs is None:
            return ToolResult(False, {"detail": "no observation yet"}, ERR_ENV_TIMEOUT)
        if tool.name == "brightness_assess":
            value = obs["mean_brightness"]
            return ToolResult(True, {"mean_brightness": value, "verdict": exposure_verdict(value)})
        if tool.name == "segment_parts":
            return ToolResult(True, {"parts": self._visible_parts(obs)})
        if tool.name == "crop_region":
            lo, hi = args["az_min"], args["az_max"]
            parts = [
                p for p in self._visible_parts(obs) if lo <= p["bearing_az"] <= hi
            ]
            return ToolResult(True, {"parts": parts})
        if tool.name == "zoom":
            factor = args["factor"]
            if factor <= 0:
                return ToolResult(False, {"detail": "factor must be > 0"}, ERR_INVALID_ARGS)
            detail = obs["angular_size"] * factor
            if not busmod.is_finite_number(detail):
                return ToolResult(False, {"detail": "zoomed size is not finite"}, ERR_INVALID_ARGS)
            return ToolResult(True, {"angular_size_detail": detail})
        return ToolResult(True, {"range_m": obs["lidar_range"]})  # the last: lidar_range

    def _dispatch_knowledge(self, args: dict) -> ToolResult:
        sat_id = args.get("satellite_id", self.target_id)
        satellite = self.satellites.get(sat_id)
        if satellite is None:
            return ToolResult(False, {"detail": f"unknown satellite {sat_id!r}"}, ERR_INVALID_ARGS)
        return ToolResult(
            True,
            {
                "id": satellite.id,
                "bounding_radius": satellite.bounding_radius,
                "parts": [
                    {"name": name, "attribute": attr} for name, attr in satellite.parts
                ],
            },
        )

    def _dispatch_auxiliary(self, args: dict) -> ToolResult:
        try:
            value = safe_eval(args["expression"])
        except ToolError as exc:
            return ToolResult(False, {"detail": str(exc)}, ERR_EXPRESSION)
        return ToolResult(True, {"value": value})
