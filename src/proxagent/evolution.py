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
import json
import marshal
import re
import sys
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from .bus import dumps_strict, loads
from .env import MAX_STEP_TRANSLATION
from .reasoning import CALL_REFLECT, DecisionProvider, ProviderRequest
from .skills import LEARNED, Skill, render_skill, skill_files, words
from .trajectory import Outcome, Trajectory, open_for_write

ACTION_CREATE = "create"
ACTION_OVERLAY = "overlay"
ACTION_REWRITE = "rewrite"
ACTION_DISABLE = "disable"
ACTION_NO_CHANGE = "no_change"
ACTIONS = (ACTION_CREATE, ACTION_OVERLAY, ACTION_REWRITE, ACTION_DISABLE, ACTION_NO_CHANGE)

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


@dataclass
class EpisodeSummary:
    episode_id: str
    task_kind: str
    success: Optional[bool]
    terminal_distance: Optional[float]
    score: Optional[float]
    steps: int
    reason: str
    movement: list[dict] = field(default_factory=list)
    movement_omitted: int = 0
    perception: list[dict] = field(default_factory=list)
    perception_omitted: int = 0
    max_attempted_translation: float = 0.0
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return dict(vars(self))


def _digest_edges(entries: list[dict]) -> tuple[list[dict], int]:
    """The first and last ``MOVEMENT_DIGEST_EDGE`` entries, and how many
    were left out between them."""
    omitted = len(entries) - 2 * MOVEMENT_DIGEST_EDGE
    if omitted <= 0:
        return entries, 0
    return entries[:MOVEMENT_DIGEST_EDGE] + entries[-MOVEMENT_DIGEST_EDGE:], omitted


def summarize_episode(
    trajectory: Trajectory, outcome: Outcome, task_kind: str, episode_id: str = ""
) -> EpisodeSummary:
    """Deterministic, bounded digest of an ended trajectory."""
    movement = []
    max_translation = 0.0
    perception = []
    for record in trajectory.steps:
        call = record.call
        movement.append({"step": record.step, "tool": call["tool"], "args": call["args"]})
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
        obs = record.observation
        perception.append(
            {
                "step": record.step,
                "brightness": obs.get("mean_brightness"),
                "visible": obs.get("visible"),
            }
        )
    movement, movement_omitted = _digest_edges(movement)
    perception, perception_omitted = _digest_edges(perception)
    reason = outcome.reason if trajectory.steps else "error"
    return EpisodeSummary(
        episode_id=episode_id,
        task_kind=task_kind,
        success=outcome.success,
        terminal_distance=outcome.terminal_distance,
        score=outcome.score,
        steps=outcome.steps,
        reason=reason,
        movement=movement,
        movement_omitted=movement_omitted,
        perception=perception,
        perception_omitted=perception_omitted,
        max_attempted_translation=round(max_translation, 4),
    )


# ---------------------------------------------------------------------------
# Mutation decisions
# ---------------------------------------------------------------------------


@dataclass
class MutationDecision:
    action: str
    scope: str
    target: Optional[str] = None
    content: Optional[dict] = None  # intent/trigger/rule/constraints/evidence
    justification: str = ""

    def validate(self) -> Optional[str]:
        if self.action not in ACTIONS:
            return f"unknown action {self.action!r}"
        if self.action in (ACTION_OVERLAY, ACTION_REWRITE, ACTION_DISABLE):
            if not self.target:
                return f"{self.action} requires a target"
        elif self.target:
            return f"{self.action} must not carry a target"
        if self.action in (ACTION_CREATE, ACTION_OVERLAY, ACTION_REWRITE):
            if not self.content:
                return f"{self.action} requires content"
            for section in CONTENT_SECTIONS:
                if not str(self.content.get(section, "")).strip():
                    return f"content section {section!r} is empty"
        elif self.content:
            return f"{self.action} must not carry content"
        return None


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
    problem = decision.validate()
    if problem is not None:
        raise EvolutionError(problem)
    return decision


def no_change(scope: str, justification: str = "") -> MutationDecision:
    return MutationDecision(action=ACTION_NO_CHANGE, scope=scope, justification=justification)


def reflect(
    summary: EpisodeSummary,
    history: list[EpisodeSummary],
    active_skills: list[str],
    provider: DecisionProvider,
    learned_names: Optional[list[str]] = None,
) -> MutationDecision:
    """Reflection call; malformed output degrades to no_change, never raises."""
    request = ProviderRequest(
        call_kind=CALL_REFLECT,
        prompt="Reflect on the episode and propose at most one skill mutation.",
        task_kind=summary.task_kind,
        extra={
            "summary": summary.to_dict(),
            "history": [h.to_dict() for h in history[-REFLECTION_HISTORY:]],
            "active_skills": active_skills,
            "learned_names": learned_names or [],
        },
    )
    try:
        raw = provider.complete(request)
        return parse_mutation(raw)
    except Exception:
        return no_change(summary.task_kind, "reflection output malformed")


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
    ``REFLECTION_HISTORY`` lines into a bounded tail that ``record_episode``
    extends. Both hold only while the store is the workspace's one writer:
    a workspace must not be written by two stores, or two processes, at
    once.

    Reading creates nothing. ``record_episode`` and ``audit`` append one
    sorted-key JSON line each, and the first append to a missing
    workspace, or a missing ``learned/``, makes it; an append into a
    directory that exists makes no ``mkdir`` call."""

    def __init__(self, workspace: Path):
        self.workspace = Path(workspace)
        self.learned_dir = self.workspace / "learned"
        self.audit_path = self.learned_dir / "audit.log"
        self.history_path = self.workspace / "episodes.jsonl"
        # summaries as marshal bytes, so every read of the tail is a private
        # copy (marshal: the quickest copy of JSON-shaped data, and built in)
        self._tail: Optional[deque[bytes]] = None
        self._episodes = 0  # summaries in episodes.jsonl, once _tail is read

    def trajectory_path(self, episode_id: str) -> Path:
        return self.workspace / f"{episode_id}.jsonl"

    @staticmethod
    def _read_jsonl(path: Path, last: Optional[int] = None) -> tuple[int, list[tuple[int, dict]]]:
        """The number of non-blank lines of ``path``, and (line number,
        record) for each of them, or for the last ``last`` of them only; a
        line that is not a JSON object is an error naming the file and the
        line."""
        if not path.exists():
            return 0, []
        count = 0
        lines: deque[tuple[int, str]] = deque(maxlen=last)
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                if line.strip():
                    count += 1
                    lines.append((number, line))
        records = []
        for number, line in lines:
            try:
                record = loads(line)
            except json.JSONDecodeError as exc:
                raise EvolutionError(f"{path} line {number}: not JSON ({exc.msg})") from None
            except RecursionError:
                raise EvolutionError(f"{path} line {number}: not JSON "
                                     "(nests too deeply)") from None
            if not isinstance(record, dict):
                raise EvolutionError(f"{path} line {number}: not a JSON object")
            records.append((number, record))
        return count, records

    @staticmethod
    def _append_jsonl(path: Path, record: dict) -> None:
        """Append ``record`` as one strict sorted-key JSON line; the first
        append to a missing directory makes it."""
        line = dumps_strict(record) + "\n"
        with open_for_write(path, "a") as fh:
            fh.write(line)

    # -- learned skills ------------------------------------------------

    def load_all(self) -> dict[str, tuple[Skill, Path]]:
        """Read the directory: the highest version per skill name, with the
        file it came from. Archived files (``*.skill.archived``) do not
        match and are skipped."""
        best: dict[str, tuple[Skill, Path]] = {}
        for path, skill in skill_files(self.learned_dir):
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

    def _read_history(self) -> deque[bytes]:
        if self._tail is None:
            tail: deque[bytes] = deque(maxlen=REFLECTION_HISTORY)
            count, records = self._read_jsonl(self.history_path, REFLECTION_HISTORY)
            for number, record in records:
                try:
                    EpisodeSummary(**record)
                except TypeError as exc:
                    raise EvolutionError(
                        f"{self.history_path} line {number}: not an episode summary ({exc})"
                    ) from None
                tail.append(marshal.dumps(record))
            self._tail, self._episodes = tail, count
        return self._tail

    def history(self) -> list[EpisodeSummary]:
        """The workspace's last ``REFLECTION_HISTORY`` episode summaries,
        oldest first, as copies: nothing done to them reaches the store."""
        return [EpisodeSummary(**marshal.loads(entry)) for entry in self._read_history()]

    def episode_count(self) -> int:
        """How many episode summaries the workspace holds."""
        self._read_history()
        return self._episodes

    def record_episode(self, summary: EpisodeSummary) -> None:
        record = summary.to_dict()
        self._append_jsonl(self.history_path, record)
        if self._tail is not None:  # else the first read finds it in the file
            self._tail.append(marshal.dumps(record))
            self._episodes += 1

    # -- audit ---------------------------------------------------------

    def audit(self, record: dict) -> None:
        self._append_jsonl(self.audit_path, record)

    def audit_records(self) -> list[dict]:
        return [record for _number, record in self._read_jsonl(self.audit_path)[1]]


def quality_gate(
    mutation: MutationDecision,
    store: SkillStore,
    episode_task: str,
    episode_id: str = "",
) -> GateVerdict:
    """Four constraints, applied in order; first failure wins."""
    if mutation.action == ACTION_NO_CHANGE:
        raise EvolutionError("no_change does not pass through the gate")

    verdict = GateVerdict(accepted=True)
    content = mutation.content or {}
    checked_text = " ".join(
        str(content.get(s, "")) for s in CONTENT_SECTIONS
    ).lower()
    existing = store.view

    for phrase in DEFAULT_BLACKLIST:
        if phrase.lower() in checked_text:
            verdict = GateVerdict(False, REJECT_SAFETY, f"blacklisted phrase {phrase!r}")
            break
    if verdict.accepted and mutation.action in (ACTION_CREATE, ACTION_OVERLAY, ACTION_REWRITE):
        print_ = fingerprint(
            mutation.scope, content.get("trigger", ""), content.get("rule", "")
        )
        if print_ in store.fingerprints():
            verdict = GateVerdict(False, REJECT_DUPLICATE, f"fingerprint {print_}")
    if verdict.accepted and mutation.scope != episode_task:
        verdict = GateVerdict(
            False, REJECT_SCOPE,
            f"mutation scope {mutation.scope!r} != episode task {episode_task!r}",
        )
    if verdict.accepted and mutation.action in (ACTION_OVERLAY, ACTION_REWRITE, ACTION_DISABLE):
        entry = existing.get(mutation.target or "")
        if entry is None or entry[0].category != LEARNED:
            verdict = GateVerdict(
                False, REJECT_PARENT, f"target {mutation.target!r} not a learned skill"
            )

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
    """Write an accepted mutation to the store as a learned-skill file and
    record it in the store's view."""
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
            current, current_path = existing[mutation.target]
            # overlay and rewrite: the next version of the same learned skill
            successor = {"category": LEARNED, "version": current.version + 1,
                         "provenance": provenance}
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
            elif mutation.action == ACTION_REWRITE:
                skill = replace(
                    current,
                    **successor,
                    routing_summary=content["intent"],
                    keywords=_keywords_from(content),
                    body=_render_sections(content),
                )
            else:
                raise EvolutionError(f"cannot materialize action {mutation.action!r}")
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
    then newer episode."""
    wanted = set(words(description))
    candidates = []
    for skill, _path in store.view.values():
        if not skill.enabled or not skill.applies_to(task_kind):
            continue
        overlap = len(wanted & {kw.lower() for kw in skill.keywords})
        episode = skill.provenance.split(":", 1)[-1]
        candidates.append((-overlap, -skill.version, episode, skill.name, skill))
    candidates.sort(key=lambda item: (item[0], item[1], _episode_recency(item[2]), item[3]))
    return [item[4] for item in candidates[:LEARNED_TOP_K]]


def _episode_recency(episode: str) -> str:
    # newer episode ids sort first (ids are zero-padded and sortable)
    return "".join(chr(255 - ord(c)) for c in episode)


# ---------------------------------------------------------------------------
# Scripted reflection (deterministic rule table)
# ---------------------------------------------------------------------------

LOW_SCORE_THRESHOLD = 40.0
HARMFUL_MARKER = "harmful-skill:"


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
# Post-episode pipeline
# ---------------------------------------------------------------------------


def run_evolution(
    summary: EpisodeSummary,
    active_skills: list[str],
    provider: DecisionProvider,
    store: SkillStore,
) -> dict:
    """Reflect on the episode against the store's history, then gate and
    materialize. Returns an event record for the log."""
    learned_names = sorted(store.view)
    mutation = reflect(summary, store.history(), active_skills, provider, learned_names)
    event = {"action": mutation.action, "accepted": False, "skill": None}
    if mutation.action == ACTION_NO_CHANGE:
        return event
    verdict = quality_gate(mutation, store, summary.task_kind, episode_id=summary.episode_id)
    if not verdict.accepted:
        event["rejected_by"] = verdict.rejected_by
        return event
    skill = materialize(mutation, store, episode_id=summary.episode_id)
    event.update(accepted=True, skill=skill.name, version=skill.version)
    return event
