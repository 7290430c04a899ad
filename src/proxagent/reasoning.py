"""Decision core: provider abstraction, reasoning modes, hierarchical memory.

The decision model is factored into typed provider calls (decide, plan,
select, reflect, route). Provider output is line-oriented tagged
text; anything that does not parse to the call kind's grammar is classified
malformed, never silently coerced. The scripted provider is deterministic;
the remote provider speaks a chat-completions-shaped HTTP contract.

Each reasoning mode is one record of ``MODES``: its step function, its
schedule and its mode skills by call kind. A step commits exactly one
control-or-terminal tool call: standard and react share one decide loop of
their records' ``rounds``, and prospective plans up to its ``candidates``,
selects one, and degrades to a direct call on malformed output.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from .bus import (TOO_DEEP, dumps_strict, field_problem, loads, parameter_table,
                  record_copy)
from .env import INSPECTION, MAX_STEP_ROTATION, MAX_STEP_TRANSLATION
from .skills import AssembledPrompt
from .tools import (CATEGORY_CONTROL, NOMINAL, ToolCall, ToolDescriptor, exposure_verdict,
                    validate_args)

CALL_DECIDE = "decide_action"
CALL_PLAN = "plan"
CALL_SELECT = "select"
CALL_REFLECT = "reflect"
CALL_ROUTE = "route"

RISK_ORDER = {"Low": 0, "Medium": 1, "High": 2}

DEFAULT_MEMORY_WINDOW = 5
REMOTE_TIMEOUT_S = 60.0
STEP_RETRY_BUDGET = 1


class ReasoningError(Exception):
    pass


class MalformedOutput(ReasoningError):
    pass


class ProviderTimeout(ReasoningError):
    pass


@dataclass
class ProviderRequest:
    """What one provider call sees: its kind, the prompt, the step's view and extras."""

    call_kind: str
    prompt: str
    observation: dict = field(default_factory=dict)
    memory_text: str = ""
    visible_tools: tuple[ToolDescriptor, ...] = ()
    task_kind: str = ""
    inner_results: list = field(default_factory=list)  # [{"tool", "payload"}]
    extra: dict = field(default_factory=dict)
    hint: str = ""  # retry hint after malformed output


@dataclass
class Candidate:
    """One action of a prospective plan, with its predicted outcome and risk."""

    action: ToolCall
    predicted_outcome: str
    risk: str


class DecisionProvider:
    identity = "provider"
    kind = "abstract"

    def complete(self, request: ProviderRequest) -> str:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Output grammars
# ---------------------------------------------------------------------------

_TOOL_LINE = re.compile(r"^TOOL (?P<tool>\S+) ARGS (?P<args>.+)$")
_CANDIDATE_LINE = re.compile(
    r"^CANDIDATE (?P<i>[0-9]+): TOOL (?P<tool>\S+) ARGS (?P<args>.+?) "
    r"OUTCOME (?P<outcome>.+?) RISK (?P<risk>Low|Medium|High)\s*$"
)
_SELECT_LINE = re.compile(r"^SELECT (?P<i>[0-9]+)\s*$")


def format_tool_call(tool: str, args: dict) -> str:
    return f"TOOL {tool} ARGS {dumps_strict(args)}"


def _lines(text) -> list[str]:
    if not isinstance(text, str):
        raise MalformedOutput("output is not text")
    return [line.strip() for line in text.splitlines()]


def _parse_call(match: re.Match, visible: tuple[ToolDescriptor, ...], step_index: int,
                inner_round: int = 0) -> ToolCall:
    """The call of a matched tool line: the tool must be visible, and the
    args must be JSON that fits the tool's schema (``validate_args``, which
    also bounds their depth). The call records the descriptor it was checked
    against, so dispatch need not check it again."""
    tool_name = match.group("tool")
    for tool in visible:
        if tool.name == tool_name:
            break
    else:
        raise MalformedOutput(f"tool {tool_name!r} not in visible set")
    try:
        args = loads(match.group("args"))
    except ValueError as exc:
        raise MalformedOutput(f"args are not valid JSON: {exc}") from exc
    except RecursionError:
        raise MalformedOutput(f"args: {TOO_DEEP}") from None
    problem = validate_args(tool, args)
    if problem is not None:
        raise MalformedOutput(problem)
    call = ToolCall(tool_name, args, step_index=step_index, inner_round=inner_round)
    call.checked = tool
    return call


def parse_tool_call(
    text: str, visible: tuple[ToolDescriptor, ...], step_index: int = 0, inner_round: int = 0
) -> ToolCall:
    """Parse a decide-action output; raises MalformedOutput on any violation."""
    for line in _lines(text):
        match = _TOOL_LINE.match(line)
        if match is not None:
            return _parse_call(match, visible, step_index, inner_round)
    raise MalformedOutput("no TOOL line found")


def parse_candidates(
    text: str, visible: tuple[ToolDescriptor, ...], limit: int, step_index: int = 0
) -> list[Candidate]:
    """Parse a plan output into at most ``limit`` valid candidates."""
    candidates: list[Candidate] = []
    for line in _lines(text):
        match = _CANDIDATE_LINE.match(line)
        if match is None:
            continue
        call = _parse_call(match, visible, step_index)
        candidates.append(Candidate(call, match.group("outcome"), match.group("risk")))
        if len(candidates) == limit:
            break
    if not candidates:
        raise MalformedOutput("no CANDIDATE lines found")
    return candidates


def parse_select(text: str, count: int) -> int:
    for line in _lines(text):
        match = _SELECT_LINE.match(line)
        if match is not None:
            digits = match.group("i").lstrip("0") or "0"
            try:
                index = int(digits)
            except ValueError:  # int() refuses more than 4,300 digits: out of any range
                raise MalformedOutput(f"SELECT index of {len(digits)} digits out of range") from None
            if index < count:
                return index
            raise MalformedOutput(f"SELECT index {index} out of range")
    raise MalformedOutput("no SELECT line found")


# ---------------------------------------------------------------------------
# Hierarchical memory
# ---------------------------------------------------------------------------


@dataclass
class MemoryState:
    """Recent detailed window plus the stats of the steps evicted from it,
    which the text shows as the long-term summary (``template_summary``)."""

    n: int = DEFAULT_MEMORY_WINDOW
    recent: list[dict] = field(default_factory=list)
    stats: dict = field(
        default_factory=lambda: {
            "evicted": 0,
            "tool_counts": {},
            "net_dx": 0.0,
            "net_dy": 0.0,
            "net_dz": 0.0,
            "last_bearing_az": None,
        }
    )

    # one rendered line per record in ``recent``, kept in step by update_memory
    _lines: list[str] = field(default_factory=list, init=False, repr=False, compare=False)
    # the joined text, cleared by update_memory (the only mutator)
    _text: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._lines = [memory_line(record) for record in self.recent]

    def memory_text(self) -> str:
        if self._text is None:
            head = (["Long-term summary: " + template_summary(self.stats)]
                    if self.stats["evicted"] else [])
            self._text = "\n".join(head + self._lines)
        return self._text


def memory_line(record: dict) -> str:
    """One step record as the memory text shows it."""
    return (
        f"step {record.get('step')}: {record.get('tool')}"
        f"({dumps_strict(record.get('args', {}))}) -> "
        f"{record.get('result_digest', '')}"
    )


def template_summary(stats: dict) -> str:
    """Deterministic long-term summary: counts, net displacement, last bearing."""
    counts = ", ".join(
        f"{name} x{count}" for name, count in sorted(stats["tool_counts"].items())
    )
    bearing = stats["last_bearing_az"]
    bearing_text = "unknown" if bearing is None else f"{bearing:.1f} deg"
    return (
        f"{stats['evicted']} earlier steps compressed. Tool usage: {counts or 'none'}. "
        f"Net body-frame displacement: dx={stats['net_dx']:.2f} m, "
        f"dy={stats['net_dy']:.2f} m, dz={stats['net_dz']:.2f} m. "
        f"Last known target bearing: {bearing_text}."
    )


def update_memory(memory: MemoryState, step_record: dict) -> MemoryState:
    """Append a step; evict the oldest into the long-term stats past N."""
    memory._text = None
    memory.recent.append(step_record)
    memory._lines.append(memory_line(step_record))
    while len(memory.recent) > memory.n:
        evicted = memory.recent.pop(0)
        del memory._lines[0]
        stats = memory.stats
        stats["evicted"] += 1
        tool = evicted.get("tool", "?")
        stats["tool_counts"][tool] = stats["tool_counts"].get(tool, 0) + 1
        args = evicted.get("args", {})
        if tool == "set_position":
            stats["net_dx"] += args.get("dx", 0.0)
            stats["net_dy"] += args.get("dy", 0.0)
            stats["net_dz"] += args.get("dz", 0.0)
        if evicted.get("bearing_az") is not None:
            stats["last_bearing_az"] = evicted["bearing_az"]
    return memory


# ---------------------------------------------------------------------------
# Scripted provider
# ---------------------------------------------------------------------------


@dataclass
class ScriptedPolicyConfig:
    """The tunable settings of the scripted policy's forward steps."""

    forward_fraction: float = 0.2
    max_forward_step: float = MAX_STEP_TRANSLATION


# The scripted policy's fixed settings (its limits are env's and tools')
MIN_FORWARD_STEP = 0.1
TERMINATE_RANGE = 2.2
ALIGN_THRESHOLD_DEG = 15.0
SWEEP_STEP_DEG = 15.0
SWEEP_LIMIT_DEG = 90.0  # half-width of the yaw sweep while the target is lost
LATERAL_GAIN_LIMIT = 0.5
ASSUMED_RADIUS = 0.5
VISION_RANGE_BIAS = 3.0  # monocular overestimation factor
NOMINAL_GAIN = 1.0
LOW_SCORE_THRESHOLD = 40.0  # the scripted reflector's: an inspection score below it is low
HARMFUL_MARKER = "harmful-skill:"

# the plan's fixed candidates 1 (when candidate 0 is not a forward step) and
# 2: their text never changes, so it is built once
_HOLD_POSE_CANDIDATE = (
    "CANDIDATE 1: "
    + format_tool_call("set_attitude", {"dyaw": 0.0, "dpitch": 0.0, "droll": 0.0})
    + " OUTCOME hold pose and reassess RISK Medium"
)
_RETREAT_CANDIDATE = (
    "CANDIDATE 2: "
    + format_tool_call("set_position", {"dx": -0.5, "dy": 0.0, "dz": 0.0})
    + " OUTCOME retreat and widen the view RISK High"
)


# one decimal number ("2", "2.", "2.5", ".5"): a period after its fraction,
# such as the one closing a sentence, is not part of it
_DECIMAL = r"([0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
# a directive's name in any letter case, then ":" or "=", then its number
_ASSIGN = r"\s*[:=]\s*"
_DIRECTIVE_MAX_STEP = re.compile(r"max_forward_step" + _ASSIGN + _DECIMAL, re.IGNORECASE)
_DIRECTIVE_CAP = re.compile(  # the cap's two fields apart by blanks, a comma or both
    r"cap_forward_step" + _ASSIGN + _DECIMAL
    + r"(?:\s*,\s*|\s+)within_range_m" + _ASSIGN + _DECIMAL,
    re.IGNORECASE,
)


class ScriptedProvider(DecisionProvider):
    """Deterministic stand-in policy encoding the reported closed-loop behaviors:
    exposure correction toward nominal gain, a bounded yaw sweep in 15 degree
    increments while the target is lost, range-proportional forward steps with
    step-size decay, and explicit termination near the target.

    Honors step-cap directives found in learned-skill prompt sections, which
    closes the self-evolution loop without a live model.
    """

    identity = "scripted-policy"
    kind = "scripted"

    def __init__(self, config: Optional[ScriptedPolicyConfig] = None):
        self.config = config or ScriptedPolicyConfig()
        self._directive_prompt: Optional[str] = None  # the prompt _directive_values is of
        self._directive_values = None
        self._sweep_cum = 0.0
        self._sweep_dir = 1.0
        self._gathered_parts: Optional[list] = None
        self._gathered_kb: Optional[dict] = None

    # -- provider entry point -----------------------------------------

    def complete(self, request: ProviderRequest) -> str:
        self._absorb_inner_results(request.inner_results)
        if request.call_kind == CALL_DECIDE:
            tool, args = self._decide(request)
            return format_tool_call(tool, args)
        if request.call_kind == CALL_PLAN:
            return self._plan(request)
        if request.call_kind == CALL_SELECT:
            candidates = request.extra.get("candidates", [])
            best = min(
                range(len(candidates)),
                key=lambda i: RISK_ORDER.get(candidates[i].get("risk"), 3),
            )
            return f"SELECT {best}"
        if request.call_kind == CALL_REFLECT:
            return scripted_reflection(request.extra)
        return ""  # route: no answer, so routing takes skills._default_route

    # -- internals ----------------------------------------------------

    def _absorb_inner_results(self, inner_results: list) -> None:
        for item in inner_results or []:
            payload = item.get("payload", {})
            if item.get("tool") == "segment_parts":
                self._gathered_parts = payload.get("parts", [])
            elif item.get("tool") == "kb_lookup":
                self._gathered_kb = payload

    def _directives(self, prompt: str) -> tuple[float, Optional[tuple[float, float]]]:
        """The step limit and cap for ``prompt``, parsed again only when the
        prompt text differs from the last call's."""
        if prompt != self._directive_prompt:
            max_step = self.config.max_forward_step
            for match in _DIRECTIVE_MAX_STEP.finditer(prompt):
                max_step = min(max_step, float(match.group(1)))
            cap = None
            match = _DIRECTIVE_CAP.search(prompt)
            if match is not None:
                cap = (float(match.group(1)), float(match.group(2)))
            self._directive_prompt, self._directive_values = prompt, (max_step, cap)
        return self._directive_values

    def _sweep_delta(self) -> float:
        if self._sweep_dir > 0 and self._sweep_cum + SWEEP_STEP_DEG > SWEEP_LIMIT_DEG:
            self._sweep_dir = -1.0
        elif self._sweep_dir < 0 and self._sweep_cum - SWEEP_STEP_DEG < -SWEEP_LIMIT_DEG:
            self._sweep_dir = 1.0
        delta = self._sweep_dir * SWEEP_STEP_DEG
        self._sweep_cum += delta
        return delta

    def _range_estimate(self, obs: dict) -> Optional[float]:
        if obs.get("lidar_range") is not None:
            return obs["lidar_range"]
        angular = obs.get("angular_size", 0.0)
        if angular <= 0:
            return None
        center = ASSUMED_RADIUS / math.tan(math.radians(angular) / 2.0)
        surface = max(center - ASSUMED_RADIUS, 0.05)
        return surface * VISION_RANGE_BIAS

    def _control_action(self, request: ProviderRequest,
                        visible_names: set[str]) -> tuple[str, dict]:
        """The motion/exposure/terminate action the policy wants to commit,
        given the names of the request's visible tools."""
        obs = request.observation
        if (
            exposure_verdict(obs.get("mean_brightness", 128.0)) != NOMINAL
            and "set_exposure" in visible_names
        ):
            delta = round(NOMINAL_GAIN - obs.get("exposure_gain", 1.0), 4)
            if abs(delta) > 1e-9:
                return "set_exposure", {"gain_delta": delta}

        if request.task_kind == INSPECTION:
            return self._inspection_control(request)

        if not obs.get("visible", False):
            return "set_attitude", {
                "dyaw": self._sweep_delta(), "dpitch": 0.0, "droll": 0.0,
            }
        self._sweep_cum, self._sweep_dir = 0.0, 1.0

        az, el = obs.get("bearing_az", 0.0), obs.get("bearing_el", 0.0)
        if abs(az) > ALIGN_THRESHOLD_DEG or abs(el) > ALIGN_THRESHOLD_DEG:
            return "set_attitude", {
                "dyaw": round(max(-MAX_STEP_ROTATION, min(MAX_STEP_ROTATION, az)), 3),
                "dpitch": round(max(-MAX_STEP_ROTATION, min(MAX_STEP_ROTATION, el)), 3),
                "droll": 0.0,
            }

        rng = self._range_estimate(obs)
        if rng is None:
            return "set_attitude", {"dyaw": 0.0, "dpitch": 0.0, "droll": 0.0}
        if rng <= TERMINATE_RANGE:
            return "terminate", {"reason": f"target reached at {rng:.2f} m"}

        max_step, cap = self._directives(request.prompt)
        forward = max(MIN_FORWARD_STEP, min(self.config.forward_fraction * rng, max_step))
        if cap is not None and rng < cap[1]:
            forward = min(forward, cap[0])
        lat = max(-LATERAL_GAIN_LIMIT,
                  min(LATERAL_GAIN_LIMIT, forward * math.tan(math.radians(az))))
        vert = max(-LATERAL_GAIN_LIMIT,
                   min(LATERAL_GAIN_LIMIT, forward * math.tan(math.radians(el))))
        norm = math.sqrt(forward**2 + lat**2 + vert**2)
        if norm > MAX_STEP_TRANSLATION and forward <= MAX_STEP_TRANSLATION:
            # 1 mm inside the cap, so the rounded components stay within it
            scale = (MAX_STEP_TRANSLATION - 0.001) / norm
            forward, lat, vert = forward * scale, lat * scale, vert * scale
        return "set_position", {
            "dx": round(forward, 4), "dy": round(lat, 4), "dz": round(vert, 4),
        }

    def _inspection_control(self, request: ProviderRequest) -> tuple[str, dict]:
        if self._gathered_parts is not None and self._gathered_kb is not None:
            return "terminate", {
                "reason": "inspection complete",
                "report": self._build_report(request.observation),
            }
        # evidence still missing and only control tools available: hold pose
        return "set_attitude", {"dyaw": 0.0, "dpitch": 0.0, "droll": 0.0}

    def _build_report(self, obs: dict) -> dict:
        parts = self._gathered_parts or []
        kb = self._gathered_kb or {}
        attributes = [p.get("attribute", "") for p in kb.get("parts", [])]
        names = [p.get("name", "") for p in parts]
        appendage_attrs = [
            a for a in attributes
            if any(w in a for w in ("panel", "antenna", "wing", "boom", "dish"))
        ]
        radius = kb.get("bounding_radius", 0.5)
        return {
            "structure": "; ".join(attributes) or "structure not resolved",
            "appendages": "; ".join(appendage_attrs) or "no appendages resolved",
            "surface": "; ".join(attributes) or "surface not resolved",
            "condition": "intact hardware with no visible damage observed "
                         f"across parts {', '.join(names) or 'none'}",
            "scale": f"roughly {2 * radius:.1f} meter across the bounding envelope",
        }

    def _decide(self, request: ProviderRequest) -> tuple[str, dict]:
        obs = request.observation
        visible_names = {t.name for t in request.visible_tools}

        # diagnostic first when a perception call is still possible this step
        if (
            exposure_verdict(obs.get("mean_brightness", 128.0)) != NOMINAL
            and "brightness_assess" in visible_names
            and not request.inner_results
        ):
            return "brightness_assess", {}

        if request.task_kind == INSPECTION:
            if self._gathered_parts is None and "segment_parts" in visible_names:
                return "segment_parts", {}
            if (
                self._gathered_parts is not None
                and self._gathered_kb is None
                and "kb_lookup" in visible_names
            ):
                return "kb_lookup", {}

        return self._control_action(request, visible_names)

    def _plan(self, request: ProviderRequest) -> str:
        tool, args = self._control_action(
            request, {t.name for t in request.visible_tools})
        lines = [
            f"CANDIDATE 0: {format_tool_call(tool, args)} "
            "OUTCOME expected progress toward the task goal RISK Low"
        ]
        if tool == "set_position":
            half = {k: round(v / 2.0, 4) for k, v in args.items()}
            lines.append(
                f"CANDIDATE 1: {format_tool_call('set_position', half)} "
                "OUTCOME slower but safer progress RISK Medium"
            )
        else:
            lines.append(_HOLD_POSE_CANDIDATE)
        lines.append(_RETREAT_CANDIDATE)
        return "\n".join(lines)


def scripted_reflection(extra: dict) -> str:
    """Rule-table reflector emitting the mutation grammar."""
    summary = extra.get("summary", {})
    history = extra.get("history", [])
    learned_names = extra.get("learned_names", [])
    kind = summary.get("task_kind", "")
    episode = summary.get("episode_id", "")

    for note in summary.get("notes", []):
        if HARMFUL_MARKER in note:
            target = note.split(HARMFUL_MARKER, 1)[1].strip()
            return (
                f"MUTATION disable\nTARGET {target}\nSCOPE {kind}\n"
                f"JUSTIFY skill {target} marked harmful in episode {episode}"
            )

    failed = summary.get("success") is False
    if (
        failed
        and summary.get("reason") == "timeout"
        and summary.get("max_attempted_translation", 0.0) > MAX_STEP_TRANSLATION
    ):
        biggest = summary.get("max_attempted_translation")
        return "\n".join(
            [
                "MUTATION create",
                "TARGET -",
                f"SCOPE {kind}",
                "INTENT cap forward translation steps near the target",
                "TRIGGER commanded translations rejected by the actuator while closing in",
                "RULE keep every forward step within the actuator limit "
                f"(max_forward_step: {MAX_STEP_TRANSLATION}) and reduce steps close in "
                "(cap_forward_step: 0.5 within_range_m: 5.0)",
                f"CONSTRAINTS never command a translation longer than {MAX_STEP_TRANSLATION} m",
                f"EVIDENCE episode {episode} ended by {summary.get('reason')} after "
                f"{summary.get('steps')} steps with translations up to {biggest} m",
                "JUSTIFY distance dependent step reduction prevents rejected "
                "commands and overshoot",
            ]
        )

    score = summary.get("score")
    if score is not None and score < LOW_SCORE_THRESHOLD:
        prior_low = any(
            h.get("score") is not None and h.get("score") < LOW_SCORE_THRESHOLD
            for h in history
        )
        if prior_low:
            sections = [
                "INTENT refine close range perception before reporting",
                "TRIGGER inspection report scored low in consecutive episodes",
                "RULE gather part segmentation and knowledge base attributes "
                "before writing any report dimension",
                "CONSTRAINTS keep exposure in the nominal band while imaging",
                f"EVIDENCE episodes including {episode} scored below "
                f"{LOW_SCORE_THRESHOLD} points",
            ]
            if learned_names:
                head = [
                    "MUTATION overlay",
                    f"TARGET {learned_names[0]}",
                    f"SCOPE {kind}",
                ]
            else:
                head = ["MUTATION create", "TARGET -", f"SCOPE {kind}"]
            return "\n".join(
                head + sections + ["JUSTIFY repeated low inspection scores"]
            )

    return f"MUTATION no_change\nJUSTIFY no anomalies in episode {episode}"


# ---------------------------------------------------------------------------
# Remote provider
# ---------------------------------------------------------------------------


class RemoteProvider(DecisionProvider):
    """Chat-completions-shaped HTTP provider.

    System content is the call kind's prompt (the skill sections that kind
    of call is sent) plus memory; user content is the observation record,
    the visible tools, the inner results and the call's extras (a SELECT
    call's candidate listing among them) and, per call kind, a grammar
    reminder.
    """

    kind = "remote"

    def __init__(
        self,
        endpoint: str,
        model: str = "",
        temperature: float = 0.2,
        timeout: float = REMOTE_TIMEOUT_S,
        api_key: str = "",
    ):
        if not 0 <= temperature <= 0.3:
            raise ReasoningError("temperature must be in [0, 0.3]")
        if timeout <= 0:
            raise ReasoningError("timeout must be > 0")
        self.endpoint = endpoint
        self.model = model
        self.temperature = temperature
        self.timeout = timeout
        self.api_key = api_key
        self.identity = f"remote({model})"

    _GRAMMAR_HINTS = {
        CALL_DECIDE: "Answer with exactly one line: TOOL <name> ARGS <json-object>.",
        CALL_PLAN: (
            "Answer with up to three lines, each exactly: "
            "CANDIDATE <i>: TOOL <name> ARGS <json> OUTCOME <text> RISK <Low|Medium|High>."
        ),
        CALL_SELECT: "Answer with exactly one line: SELECT <index>.",
        CALL_REFLECT: (
            "Answer with lines MUTATION <action>, TARGET <name|->, SCOPE <kind>, "
            "then INTENT/TRIGGER/RULE/CONSTRAINTS/EVIDENCE/JUSTIFY lines."
        ),
        CALL_ROUTE: "Answer with exactly: task=<name>; helpers=<a,b>; because=<text>.",
    }

    def complete(self, request: ProviderRequest) -> str:
        import requests  # noqa: PLC0415

        system = request.prompt
        if request.memory_text:
            system += "\n\nMemory:\n" + request.memory_text
        user = dumps_strict(
            {
                "observation": request.observation,
                "visible_tools": [t.name for t in request.visible_tools],
                "inner_results": request.inner_results,
                "extra": request.extra,
            }
        )
        user += "\n" + self._GRAMMAR_HINTS.get(request.call_kind, "")
        if request.hint:
            user += "\nPrevious answer was malformed: " + request.hint
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            response = requests.post(
                self.endpoint,
                json={
                    "model": self.model,
                    "temperature": self.temperature,
                    "messages": [
                        {"role": "system", "content": system},
                        {"role": "user", "content": user},
                    ],
                },
                headers=headers,
                timeout=self.timeout,
            )
            response.raise_for_status()
            reply = response.json()
        except requests.Timeout as exc:
            raise ProviderTimeout(str(exc)) from exc
        except requests.RequestException as exc:
            raise ReasoningError(f"remote provider failed: {exc}") from exc
        path = ""
        for part in ("choices", 0, "message", "content"):
            path += f"[{part}]" if isinstance(part, int) else f".{part}"
            try:
                reply = reply[part]
            except (KeyError, IndexError, TypeError):
                raise ReasoningError(f"remote reply has no {path[1:]}") from None
        return reply


# Per provider kind, the class whose constructor takes its options
PROVIDER_KINDS = {
    "scripted": ScriptedPolicyConfig,
    "remote": RemoteProvider,
}
DEFAULT_PROVIDER_KIND = "scripted"


def make_provider(spec: dict) -> DecisionProvider:
    """Instantiate a provider from a configuration record: its ``kind`` and
    the keyword arguments of that kind's constructor (``PROVIDER_KINDS``)."""
    options = dict(spec)
    kind = options.pop("kind", DEFAULT_PROVIDER_KIND)
    if kind not in PROVIDER_KINDS:
        raise ReasoningError(f"unknown provider kind {kind!r}")
    table, defaulted = parameter_table(PROVIDER_KINDS[kind])
    problem = field_problem(table, options, defaulted, closed=True,
                            noun=f"{kind} provider option")
    if problem is not None:
        raise ReasoningError(problem)
    built = PROVIDER_KINDS[kind](**options)
    return ScriptedProvider(built) if kind == "scripted" else built


# ---------------------------------------------------------------------------
# Mode step loops
# ---------------------------------------------------------------------------


def _control_tools(visible: tuple[ToolDescriptor, ...]) -> tuple[ToolDescriptor, ...]:
    return tuple(t for t in visible if t.category == CATEGORY_CONTROL)


@dataclass
class StepContext:
    """One outer step: what the mode sees, plus the provider calls it makes,
    the inner-round records it collects along the way and, once the mode
    returns it, the committed call and whether the mode degraded."""

    obs: dict
    prompt: AssembledPrompt
    memory: MemoryState
    visible: tuple[ToolDescriptor, ...]
    provider: DecisionProvider
    dispatcher: object  # a ToolDispatcher
    task_kind: str = ""
    step_index: int = 0
    provider_calls: int = field(default=0, init=False)
    inner: list[dict] = field(default_factory=list, init=False)
    call: Optional[ToolCall] = field(default=None, init=False)
    degraded: bool = field(default=False, init=False)

    def ask(self, call_kind: str, visible=None, hint: str = "", extra=None) -> str:
        """One counted provider call, sent its call kind's prompt. The
        observation and inner results it is sent are its own copies, so what
        the provider does to them reaches neither the step's later calls nor
        the trajectory."""
        self.provider_calls += 1
        return self.provider.complete(ProviderRequest(
            call_kind=call_kind,
            prompt=self.prompt.for_call(call_kind),
            observation=dict(self.obs),  # a camera record: flat
            memory_text=self.memory.memory_text(),
            visible_tools=self.visible if visible is None else visible,
            task_kind=self.task_kind,
            inner_results=[{"tool": item["tool"],
                            "payload": record_copy(item["result"]["payload"])}
                           for item in self.inner],
            extra=extra or {},
            hint=hint,
        ))

    def decide(self, visible=None, inner_round: int = 0) -> ToolCall:
        """One decide-action call with a single retry on malformed output."""
        active = self.visible if visible is None else visible
        hint = ""
        for attempt in range(STEP_RETRY_BUDGET + 1):
            raw = self.ask(CALL_DECIDE, active, hint=hint)
            try:
                return parse_tool_call(raw, active, self.step_index, inner_round)
            except MalformedOutput as exc:
                hint = str(exc)
                if attempt == STEP_RETRY_BUDGET:
                    raise

    def run_inner(self, call: ToolCall, inner_round: int) -> None:
        result = self.dispatcher.dispatch(call)
        self.inner.append({
            "round": inner_round,
            "tool": call.tool,
            "args": call.args,
            "result": result.to_dict(),
        })

    def result(self, call: ToolCall, degraded: bool = False) -> StepContext:
        self.call, self.degraded = call, degraded
        return self


@dataclass(frozen=True)
class ReasoningMode:
    """One reasoning mode: its step function, its schedule, and its mode skills by call kind."""

    step: Callable[[StepContext], StepContext]
    rounds: int = 0      # decide rounds of one step
    candidates: int = 0  # actions one plan may propose
    skills: dict[str, tuple[str, ...]] = field(default_factory=dict)
    # a decided call's inner_round is its round, or 0: standard's logs were recorded with 0
    labels_rounds: bool = True


def _decide_rounds(ctx: StepContext, mode: ReasoningMode) -> StepContext:
    """Up to ``mode.rounds`` decide rounds, committing the first control call; a
    non-control call is run for the next round, and the last offers only control tools."""
    for inner_round in range(1, mode.rounds):
        call = ctx.decide(inner_round=inner_round if mode.labels_rounds else 0)
        if call.checked.category == CATEGORY_CONTROL:
            return ctx.result(call)
        ctx.run_inner(call, inner_round)
    return ctx.result(ctx.decide(visible=_control_tools(ctx.visible),
                                 inner_round=mode.rounds if mode.labels_rounds else 0))


def step_standard(ctx: StepContext) -> StepContext:
    """Direct decision; one optional follow-up after a non-control tool."""
    return _decide_rounds(ctx, MODES["standard"])


def step_react(ctx: StepContext) -> StepContext:
    """Thought-action-observation loop (ReAct, Yao et al., arXiv:2210.03629)."""
    return _decide_rounds(ctx, MODES["react"])


def step_prospective(ctx: StepContext) -> StepContext:
    """Plan candidates, then select one; degrades to a direct
    control-restricted call when the plan or selection is malformed."""
    control = _control_tools(ctx.visible)
    try:
        candidates = parse_candidates(ctx.ask(CALL_PLAN), control,
                                      MODES["prospective"].candidates, ctx.step_index)
        listing = [
            {
                "index": i,
                "tool": c.action.tool,
                "args": record_copy(c.action.args),  # the provider's, not the call's
                "outcome": c.predicted_outcome,
                "risk": c.risk,
            }
            for i, c in enumerate(candidates)
        ]
        index = parse_select(ctx.ask(CALL_SELECT, extra={"candidates": listing}),
                             len(candidates))
    except MalformedOutput:
        return ctx.result(ctx.decide(visible=control), degraded=True)
    return ctx.result(candidates[index].action)


# Each reasoning mode, by the name that ``--mode`` and ``run.mode`` give
MODES = {
    "standard": ReasoningMode(step_standard, rounds=2, labels_rounds=False),
    "react": ReasoningMode(step_react, rounds=3, skills={CALL_DECIDE: ("react-loop",)}),
    "prospective": ReasoningMode(step_prospective, candidates=3,
                                 skills={CALL_PLAN: ("prospective-plan",),
                                         CALL_SELECT: ("prospective-select",)}),
}
