"""Skill self-evolution: summarize, reflect, gate, materialize, inject.

After an episode ends, a structured summary of the trajectory and outcome
is reflected into a mutation decision (create / overlay / rewrite /
disable / no_change). Every mutation passes a four-constraint quality gate
before touching the store: safety-phrase blacklist, fingerprint
deduplication, task-scope binding, and parent validation. Accepted
mutations become versioned learned-skill files in the same format as
hand-authored skills; rejections are recorded in an append-only audit log.

``SkillStore`` owns the evolution workspace, the only place these live:

    <workspace>/episodes.jsonl        one summary per finished episode
    <workspace>/learned/*.skill       learned skills, highest version active
    <workspace>/learned/audit.log     one gate verdict per line
    <workspace>/<episode_id>.jsonl    an episode's trajectory, when asked for

One store serves every episode of a command that uses its workspace: it
reads ``learned/`` and the tail of ``episodes.jsonl`` once and keeps both
current as it writes. Reading the workspace creates nothing; a write makes
the directories it needs only when it finds them missing. The command-line
writers hold ``<workspace>/.lock`` (``cli.Setup``), so one command at a
time writes a workspace.
"""

from __future__ import annotations

import functools
import hashlib
import re
import sys
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .bus import ARRAY, INTEGER, NUMBER, NUMBER_OR_NULL, STRING, field_problem, read_only
from .reasoning import CALL_REFLECT, DecisionProvider, ProviderRequest
from .skills import LEARNED, Skill, render_skill, skill_files, words
from .trajectory import Outcome, Trajectory, open_for_write, read_jsonl, write_jsonl

ACTION_CREATE = "create"
ACTION_OVERLAY = "overlay"
ACTION_REWRITE = "rewrite"
ACTION_DISABLE = "disable"
ACTION_NO_CHANGE = "no_change"
ACTIONS = (ACTION_CREATE, ACTION_OVERLAY, ACTION_REWRITE, ACTION_DISABLE, ACTION_NO_CHANGE)
# The actions that change a learned skill named by a target, and those that carry content
TARGETED_ACTIONS = (ACTION_OVERLAY, ACTION_REWRITE, ACTION_DISABLE)
CONTENT_ACTIONS = (ACTION_CREATE, ACTION_OVERLAY, ACTION_REWRITE)

CONTENT_SECTIONS = ("intent", "trigger", "rule", "constraints", "evidence")

REJECT_SAFETY = "SafetyPhrase"
REJECT_DUPLICATE = "DuplicateFingerprint"
REJECT_SCOPE = "ScopeMismatch"
REJECT_PARENT = "MissingParent"

DEFAULT_BLACKLIST = (
    "ignore safety",
    "override safety",
    "disable constraints",
    "exceed max step",
    "skip quality gate",
)

MOVEMENT_DIGEST_EDGE = 10  # keep first/last 10 movement and perception entries
LEARNED_TOP_K = 2  # learned skills injected into one episode's prompt
SLUG_LIMIT = 40  # characters in a learned skill's name
REFLECTION_HISTORY = 3  # recent prior episodes consulted during reflection


class EvolutionError(Exception):
    pass


class StoreWriteFailure(EvolutionError):
    pass


# ---------------------------------------------------------------------------
# Episode summary
# ---------------------------------------------------------------------------


# The field table of a history line, which is what a summary is: one finished
# episode as the workspace keeps it and reflection reads it. Lines written
# before the fields in _SUMMARY_DEFAULTS existed load with those defaults.
_SUMMARY_FIELDS = {
    "episode_id": STRING, "task_kind": STRING,
    "success": (lambda v: v is None or isinstance(v, bool), "a boolean or null"),
    "terminal_distance": NUMBER_OR_NULL, "score": NUMBER_OR_NULL,
    "steps": INTEGER, "reason": STRING,
    "movement": ARRAY, "movement_omitted": INTEGER,
    "perception": ARRAY, "perception_omitted": INTEGER,
    "max_attempted_translation": NUMBER,
    "notes": (lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v),
              "an array of strings"),
}
_SUMMARY_DEFAULTS = {"movement": [], "movement_omitted": 0, "perception": [],
                     "perception_omitted": 0, "max_attempted_translation": 0.0, "notes": []}


def _digest_edges(entries: list) -> tuple[list, int]:
    """The first and last ``MOVEMENT_DIGEST_EDGE`` entries, and how many
    were left out between them."""
    omitted = len(entries) - 2 * MOVEMENT_DIGEST_EDGE
    if omitted <= 0:
        return entries, 0
    return entries[:MOVEMENT_DIGEST_EDGE] + entries[-MOVEMENT_DIGEST_EDGE:], omitted


def summarize_episode(
    trajectory: Trajectory, outcome: Outcome, task_kind: str, episode_id: str = ""
) -> dict:
    """Deterministic, bounded digest of an ended trajectory: its history line,
    every ``_SUMMARY_FIELDS`` field set, read-only (``bus.read_only``)."""
    max_translation = 0.0
    for record in trajectory.steps:
        call = record.call
        if call["tool"] == "set_position":
            args = call["args"]
            try:
                norm = (
                    args.get("dx", 0.0) ** 2
                    + args.get("dy", 0.0) ** 2
                    + args.get("dz", 0.0) ** 2
                ) ** 0.5
            except OverflowError:  # finite components, a norm beyond float range:
                norm = sys.float_info.max  # still above every actuator limit
            max_translation = max(max_translation, norm)
    kept, omitted = _digest_edges(trajectory.steps)
    reason = outcome.reason if trajectory.steps else "error"
    return read_only({
        "episode_id": episode_id,
        "task_kind": task_kind,
        "success": outcome.success,
        "terminal_distance": outcome.terminal_distance,
        "score": outcome.score,
        "steps": outcome.steps,
        "reason": reason,
        "movement": [{"step": record.step, "tool": record.call["tool"],
                      "args": record.call["args"]} for record in kept],
        "movement_omitted": omitted,
        "perception": [{"step": record.step,
                        "brightness": record.observation.get("mean_brightness"),
                        "visible": record.observation.get("visible")} for record in kept],
        "perception_omitted": omitted,
        "max_attempted_translation": round(max_translation, 4),
        "notes": [],
    })


# ---------------------------------------------------------------------------
# Mutation decisions
# ---------------------------------------------------------------------------


@dataclass
class MutationDecision:
    """A skill change that reflection proposes, before the quality gate judges it."""

    action: str
    scope: str
    target: Optional[str] = None
    content: Optional[dict] = None  # intent/trigger/rule/constraints/evidence
    justification: str = ""

    def validate(self) -> None:
        if self.action not in ACTIONS:
            raise EvolutionError(f"unknown action {self.action!r}")
        if self.action in TARGETED_ACTIONS:
            if not self.target:
                raise EvolutionError(f"{self.action} requires a target")
        elif self.target:
            raise EvolutionError(f"{self.action} must not carry a target")
        if self.action in CONTENT_ACTIONS:
            if not self.content:
                raise EvolutionError(f"{self.action} requires content")
            for section in CONTENT_SECTIONS:
                if not str(self.content.get(section, "")).strip():
                    raise EvolutionError(f"content section {section!r} is empty")
        elif self.content:
            raise EvolutionError(f"{self.action} must not carry content")


_MUTATION_HEAD = re.compile(r"^MUTATION (?P<action>\S+)\s*$", re.MULTILINE)
_MUTATION_FIELD = re.compile(
    r"^(?P<key>TARGET|SCOPE|%s|JUSTIFY) (?P<value>.*)$" % "|".join(CONTENT_SECTIONS).upper()
)


def parse_mutation(text: str) -> MutationDecision:
    """Parse reflection output; raises EvolutionError when malformed."""
    if not isinstance(text, str):
        raise EvolutionError("reflection output is not text")
    head = _MUTATION_HEAD.search(text)
    if head is None:
        raise EvolutionError("no MUTATION line")
    fields: dict[str, str] = {}
    for line in text.splitlines():
        match = _MUTATION_FIELD.match(line.strip())
        if match is not None:
            fields[match.group("key").lower()] = match.group("value").strip()
    action = head.group("action")
    target = fields.get("target") or None
    if target == "-":
        target = None
    content = {s: fields.get(s, "") for s in CONTENT_SECTIONS}
    if not any(content.values()):
        content = None
    decision = MutationDecision(
        action=action,
        scope=fields.get("scope", ""),
        target=target,
        content=content,
        justification=fields.get("justify", ""),
    )
    decision.validate()
    return decision


def no_change(scope: str, justification: str = "") -> MutationDecision:
    return MutationDecision(action=ACTION_NO_CHANGE, scope=scope, justification=justification)


def reflect(
    summary: dict,
    history: list[dict],
    active_skills: list[str],
    provider: DecisionProvider,
    learned_names: Optional[list[str]] = None,
) -> MutationDecision:
    """Reflection call, sent the summary and history read-only, as the store
    keeps them, and a copy of the active skills, which the trajectory's
    header lists; malformed output, or an edit of either, degrades to
    no_change, never raises."""
    request = ProviderRequest(
        call_kind=CALL_REFLECT,
        prompt="Reflect on the episode and propose at most one skill mutation.",
        task_kind=summary["task_kind"],
        extra={
            "summary": read_only(summary),
            "history": history[-REFLECTION_HISTORY:],
            "active_skills": list(active_skills),
            "learned_names": learned_names or [],
        },
    )
    try:
        raw = provider.complete(request)
        return parse_mutation(raw)
    except Exception:
        return no_change(summary["task_kind"], "reflection output malformed")


# ---------------------------------------------------------------------------
# Quality gate and store
# ---------------------------------------------------------------------------


def fingerprint(scope: str, trigger: str, rule: str) -> str:
    """Stable 64-bit content fingerprint over (scope, trigger, rule)."""
    normalized = " ".join((scope + " " + trigger + " " + rule).lower().split())
    return hashlib.blake2b(normalized.encode(), digest_size=8).hexdigest()


_SECTION_LINE = re.compile(
    r"^(?P<key>%s):\s*(?P<value>.*)$" % "|".join(s.capitalize() for s in CONTENT_SECTIONS)
)


def parse_learned_sections(body: str) -> dict[str, str]:
    sections = {s: "" for s in CONTENT_SECTIONS}
    current = None
    for line in body.splitlines():
        match = _SECTION_LINE.match(line.strip())
        if match is not None:
            current = match.group("key").lower()
            sections[current] = match.group("value")
        elif current is not None and line.strip():
            sections[current] += " " + line.strip()
    return sections


def skill_fingerprint(skill: Skill) -> str:
    """The fingerprint of a stored learned skill, comparable with a mutation's."""
    sections = parse_learned_sections(skill.body)
    return fingerprint(",".join(skill.scope), sections["trigger"], sections["rule"])


@dataclass
class GateVerdict:
    """The quality gate's verdict on a mutation: accepted, or the constraint it broke."""

    accepted: bool
    rejected_by: Optional[str] = None
    detail: str = ""


class SkillStore:
    """The evolution workspace: its only reader and single writer, and the
    one place that knows its layout.

    One store serves a whole command. It reads ``learned/`` once, on first
    use, into ``view``, and ``materialize`` records each file it writes
    there, so the view matches the directory. It reads ``episodes.jsonl``
    once, on first use of ``history``, parsing only the last
    ``REFLECTION_HISTORY`` lines into a bounded tail of read-only summaries
    (``bus.read_only``) that ``record_episode`` extends and ``history``
    hands out uncopied. It lists the workspace's trajectories once, on
    first use of ``next_episode_id``. All of this holds only while the store is the
    workspace's one writer: a workspace must not be written by two stores,
    or two processes, at once.

    Reading creates nothing. ``record_episode`` and ``audit`` append one
    line each through ``write_jsonl``, and the first append to a missing
    workspace, or a missing ``learned/``, makes it; an append into a
    directory that exists makes no ``mkdir`` call."""

    def __init__(self, workspace: Path):
        self.workspace = Path(workspace)
        self.learned_dir = self.workspace / "learned"
        self.audit_path = self.learned_dir / "audit.log"
        self.history_path = self.workspace / "episodes.jsonl"
        # the last summaries, read-only, so handed out as they are
        self._tail: Optional[deque[dict]] = None
        self._episodes = 0  # summaries in episodes.jsonl, once _tail is read
        self._last_id: Optional[int] = None  # the last id handed out, once listed

    def trajectory_path(self, episode_id: str) -> Path:
        return self.workspace / f"{episode_id}.jsonl"

    # -- learned skills ------------------------------------------------

    def load_all(self) -> dict[str, tuple[Skill, Path]]:
        """Read the directory: the highest version per skill name, with the
        file it came from. Archived files (``*.skill.archived``) do not
        match and are skipped; a file whose header names a category other
        than ``learned`` is a SkillError naming it."""
        best: dict[str, tuple[Skill, Path]] = {}
        for path, skill in skill_files(self.learned_dir, LEARNED):
            if skill.name not in best or skill.version > best[skill.name][0].version:
                best[skill.name] = (skill, path)
        return best

    @functools.cached_property
    def view(self) -> dict[str, tuple[Skill, Path]]:
        """``load_all`` as first read, plus every file written since."""
        return self.load_all()

    def fingerprints(self) -> set[str]:
        return {skill_fingerprint(skill) for skill, _path in self.view.values()}

    # -- episode history -----------------------------------------------

    def _read_history(self) -> deque[dict]:
        if self._tail is None:
            path = self.history_path
            tail: deque[dict] = deque(maxlen=REFLECTION_HISTORY)
            count, records = (read_jsonl(path, EvolutionError, REFLECTION_HISTORY)
                              if path.exists() else (0, ()))
            for number, record in records:
                problem = field_problem(_SUMMARY_FIELDS, _json_object(path, number, record),
                                        _SUMMARY_DEFAULTS, closed=True)
                if problem is not None:
                    raise EvolutionError(
                        f"{path} line {number}: not an episode summary ({problem})"
                    )
                tail.append(read_only({**_SUMMARY_DEFAULTS, **record}))
            self._tail, self._episodes = tail, count
        return self._tail

    def history(self) -> list[dict]:
        """The workspace's last ``REFLECTION_HISTORY`` episode summaries,
        oldest first, in a new list. Each is the store's own read-only
        entry: changing one raises TypeError, so nothing reaches the store."""
        return list(self._read_history())

    def next_episode_id(self) -> str:
        """A new ``ep-NNNNNN``, after every summary, ``ep-NNNNNN.jsonl`` and
        id the workspace has: a round that died before its summary keeps its log."""
        if self._last_id is None:
            numbers = [p.stem[3:] for p in self.workspace.glob("ep-*.jsonl")]
            self._last_id = max((int(n) for n in numbers if n.isascii() and n.isdecimal()),
                                default=0)
        self._read_history()
        self._last_id = max(self._last_id, self._episodes) + 1
        return f"ep-{self._last_id:06d}"

    def record_episode(self, summary: dict) -> None:
        write_jsonl(self.history_path, [summary], "a")
        if self._tail is not None:  # else the first read finds it in the file
            self._tail.append(read_only(summary))
            self._episodes += 1

    # -- audit ---------------------------------------------------------

    def audit(self, record: dict) -> None:
        write_jsonl(self.audit_path, [record], "a")

    def audit_records(self) -> list[dict]:
        if not self.audit_path.exists():
            return []
        return [_json_object(self.audit_path, number, record)
                for number, record in read_jsonl(self.audit_path, EvolutionError, None)[1]]


def _json_object(path: Path, number: int, value) -> dict:
    """``value``, read from line ``number`` of the workspace file ``path``,
    if it is an object; else an EvolutionError naming the file and line."""
    if not isinstance(value, dict):
        raise EvolutionError(f"{path} line {number}: not a JSON object")
    return value


def _require_change(mutation: MutationDecision) -> None:
    """An EvolutionError unless ``mutation`` is valid and changes a skill."""
    mutation.validate()
    if mutation.action == ACTION_NO_CHANGE:
        raise EvolutionError("no_change changes no skill")


def _first_failure(mutation: MutationDecision, store: SkillStore,
                   episode_task: str) -> GateVerdict:
    """The first of the gate's constraints that ``mutation`` breaks, or acceptance."""
    content = mutation.content or {}
    checked_text = " ".join(str(content.get(s, "")) for s in CONTENT_SECTIONS).lower()
    existing = store.view  # read first: a learned/ that does not parse fails every call
    for phrase in DEFAULT_BLACKLIST:
        if phrase.lower() in checked_text:
            return GateVerdict(False, REJECT_SAFETY, f"blacklisted phrase {phrase!r}")
    if mutation.action in CONTENT_ACTIONS:
        print_ = fingerprint(mutation.scope, content.get("trigger", ""), content.get("rule", ""))
        if print_ in store.fingerprints():
            return GateVerdict(False, REJECT_DUPLICATE, f"fingerprint {print_}")
    if mutation.scope != episode_task:
        return GateVerdict(False, REJECT_SCOPE,
                           f"mutation scope {mutation.scope!r} != episode task {episode_task!r}")
    if mutation.action in TARGETED_ACTIONS and mutation.target not in existing:
        return GateVerdict(False, REJECT_PARENT, f"target {mutation.target!r} not a learned skill")
    return GateVerdict(accepted=True)


def quality_gate(
    mutation: MutationDecision,
    store: SkillStore,
    episode_task: str,
    episode_id: str = "",
) -> GateVerdict:
    """Four constraints in order, first failure wins; each verdict is one audit log line.
    An invalid or no_change decision is an EvolutionError, not a verdict."""
    _require_change(mutation)
    verdict = _first_failure(mutation, store, episode_task)
    store.audit(
        {
            "episode": episode_id,
            "action": mutation.action,
            "verdict": "accepted" if verdict.accepted else "rejected",
            "reason": verdict.rejected_by or "",
            "detail": verdict.detail,
        }
    )
    return verdict


# ---------------------------------------------------------------------------
# Materialization and retrieval
# ---------------------------------------------------------------------------


def _slug(text: str) -> str:
    slug = ""
    for word in words(text):
        extended = f"{slug}-{word}" if slug else word
        if len(extended) > SLUG_LIMIT:
            break
        slug = extended
    return slug or "learned-skill"


def _keywords_from(content: dict) -> list[str]:
    keywords = []
    for section in ("intent", "trigger"):
        for word in words(content.get(section, "")):
            if len(word) > 3 and word not in keywords:
                keywords.append(word)
    return keywords[:8]


def _render_sections(content: dict) -> str:
    return "\n".join(
        f"{section.capitalize()}: {content.get(section, '')}"
        for section in CONTENT_SECTIONS
    )


def materialize(
    mutation: MutationDecision, store: SkillStore, episode_id: str = ""
) -> Skill:
    """Write an accepted mutation as a learned-skill file and record it in the store's
    view. An invalid or no_change decision, or a missing target, is an EvolutionError."""
    _require_change(mutation)
    existing = store.view
    provenance = f"evolved:{episode_id}"
    content = mutation.content
    try:
        if mutation.action == ACTION_CREATE:
            name = _slug(content["intent"])
            if name in existing:
                suffix = 2
                while f"{name}-{suffix}" in existing:
                    suffix += 1
                name = f"{name}-{suffix}"
            skill = Skill(
                name=name,
                category=LEARNED,
                routing_summary=content["intent"],
                keywords=_keywords_from(content),
                body=_render_sections(content),
                scope=[mutation.scope],
                version=1,
                provenance=provenance,
            )
        else:
            if mutation.target not in existing:
                raise EvolutionError(f"target {mutation.target!r} is not in the store")
            current, current_path = existing[mutation.target]
            # overlay and rewrite: the next version of the same learned skill
            successor = {"version": current.version + 1, "provenance": provenance}
            if mutation.action == ACTION_DISABLE:
                skill = replace(current, enabled=False)
            elif mutation.action == ACTION_OVERLAY:
                skill = replace(
                    current,
                    **successor,
                    keywords=sorted(set(current.keywords) | set(_keywords_from(content))),
                    body=current.body
                    + f"\n\nOverlay v{current.version + 1} ({episode_id}):\n"
                    + _render_sections(content),
                )
            else:  # rewrite
                skill = replace(
                    current,
                    **successor,
                    routing_summary=content["intent"],
                    keywords=_keywords_from(content),
                    body=_render_sections(content),
                )
        # a disabled skill keeps its file; any other change is a new version's
        path = (current_path if mutation.action == ACTION_DISABLE
                else store.learned_dir / f"{skill.name}.v{skill.version}.skill")
        text = render_skill(skill)
        with open_for_write(path) as fh:
            fh.write(text)
        if mutation.action == ACTION_REWRITE:
            # archived only once its successor is written: a failed write
            # must not leave the skill with no active version
            current_path.rename(current_path.with_suffix(".skill.archived"))
        existing[skill.name] = (skill, path)
        return skill
    except OSError as exc:
        raise StoreWriteFailure(str(exc)) from exc


def select_learned(task_kind: str, description: str, store: SkillStore) -> list[Skill]:
    """The ``LEARNED_TOP_K`` best enabled learned skills for this task, ranked
    by keyword overlap with the description; ties break to higher version,
    then newer episode (ids are zero-padded, so newer is greater), then name."""
    wanted = set(words(description))
    candidates = [skill for skill, _path in store.view.values()
                  if skill.enabled and skill.applies_to(task_kind)]
    # three stable sorts, the least significant key first
    candidates.sort(key=lambda skill: skill.name)
    candidates.sort(key=lambda skill: skill.provenance.split(":", 1)[-1], reverse=True)
    candidates.sort(key=lambda skill: (-len(skill.matched(wanted)), -skill.version))
    return candidates[:LEARNED_TOP_K]


# ---------------------------------------------------------------------------
# Post-episode pipeline
# ---------------------------------------------------------------------------


def run_evolution(
    summary: dict,
    active_skills: list[str],
    provider: DecisionProvider,
    store: SkillStore,
) -> dict:
    """Reflect on the episode against the store's history, then gate and
    materialize. Returns an event record for the log, with the reflection's justification."""
    learned_names = sorted(store.view)
    mutation = reflect(summary, store.history(), active_skills, provider, learned_names)
    event = {"action": mutation.action, "accepted": False, "skill": None,
             "justification": mutation.justification}
    if mutation.action == ACTION_NO_CHANGE:
        return event
    verdict = quality_gate(mutation, store, summary["task_kind"], summary["episode_id"])
    if not verdict.accepted:
        event["rejected_by"] = verdict.rejected_by
        return event
    skill = materialize(mutation, store, summary["episode_id"])
    event.update(accepted=True, skill=skill.name, version=skill.version)
    return event
