"""Skill layer: skill files, catalog, gateway routing, and prompt assembly.

A skill file is a front-matter header (``key: value`` lines), a ``---``
delimiter, and a free-text body that is injected verbatim into the system
prompt. The catalog is a directory scan over
``skills/{core,task,helper,mode}/NAME.skill``. Learned skills are not in it:
they live in a workspace's ``learned/``, read and written only by
``evolution.SkillStore``.

Routing picks exactly one task skill and up to two helper skills. A
misbehaving router can never produce an invalid result: any malformed or
constraint-violating output falls back to the configured defaults.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

CORE = "core"
TASK = "task"
HELPER = "helper"
MODE = "mode"
LEARNED = "learned"
CATEGORIES = (CORE, TASK, HELPER, MODE, LEARNED)

PROVENANCE_HAND = "hand-authored"

# Reasoning-mode names and the mode skills they inject
MODE_STANDARD = "standard"
MODE_REACT = "react"
MODE_PROSPECTIVE = "prospective"
MODE_SKILLS = {
    MODE_STANDARD: [],
    MODE_REACT: ["react-loop"],
    MODE_PROSPECTIVE: ["prospective-plan", "prospective-select"],
}
REASONING_MODES = tuple(MODE_SKILLS)

# Default (task skill, helper skills) per task kind, used as routing fallback
DEFAULT_ROUTES = {
    "rendezvous": ("approach", ["distance"]),
    "search": ("search", ["target-recovery", "distance"]),
    "inspection": ("inspection", ["perception"]),
}

ROUTER_GRAMMAR = re.compile(
    r"^task=(?P<task>[a-z0-9_-]+); helpers=(?P<helpers>[a-z0-9_,-]*); "
    r"because=(?P<because>.+)$",
    re.DOTALL,
)

SECTION_DELIM = "=" * 8


class SkillError(Exception):
    pass


class DisabledSkillIncluded(SkillError):
    pass


class NoDefaults(SkillError):
    pass


@dataclass(frozen=True)
class Skill:
    name: str
    category: str
    routing_summary: str = ""
    keywords: list[str] = field(default_factory=list)
    body: str = ""
    scope: list[str] = field(default_factory=list)  # empty = universal
    version: int = 1
    provenance: str = PROVENANCE_HAND  # or "evolved:<episode_id>"
    enabled: bool = True

    def applies_to(self, task_kind: str) -> bool:
        return not self.scope or task_kind in self.scope


def parse_skill_text(text: str) -> Skill:
    if "---" not in text:
        raise SkillError("skill file missing '---' delimiter")
    header_text, body = text.split("---", 1)
    header: dict[str, str] = {}
    for line in header_text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise SkillError(f"bad header line: {line!r}")
        key, value = line.split(":", 1)
        key = key.strip()
        if key in header:
            raise SkillError(f"repeated header key {key!r}")
        header[key] = value.strip()
    for required in ("name", "category"):
        if required not in header:
            raise SkillError(f"skill header missing {required!r}")
    category = header["category"]
    if category not in CATEGORIES:
        raise SkillError(f"unknown category {category!r}")
    keywords = [k.strip() for k in header.get("keywords", "").split(",") if k.strip()]
    scope = [s.strip() for s in header.get("scope", "").split(",") if s.strip()]
    try:
        version = int(header.get("version", "1"))
    except ValueError:
        raise SkillError(f"bad version {header['version']!r}") from None
    return Skill(
        name=header["name"],
        category=category,
        routing_summary=header.get("routing_summary", ""),
        keywords=keywords,
        body=body.strip("\n"),
        scope=scope,
        version=version,
        provenance=header.get("provenance", PROVENANCE_HAND),
        enabled=header.get("enabled", "true").lower() != "false",
    )


def render_skill(skill: Skill) -> str:
    lines = [
        f"name: {skill.name}",
        f"category: {skill.category}",
        f"routing_summary: {skill.routing_summary}",
        f"keywords: {', '.join(skill.keywords)}",
        f"scope: {', '.join(skill.scope)}",
        f"version: {skill.version}",
        f"provenance: {skill.provenance}",
        f"enabled: {'true' if skill.enabled else 'false'}",
        "---",
        skill.body,
        "",
    ]
    return "\n".join(lines)


def words(text: str) -> list[str]:
    """Lower-cased alphanumeric runs of ``text``; everything else separates."""
    return "".join(c.lower() if c.isalnum() else " " for c in text).split()


def skill_files(directory: Path) -> list[tuple[Path, Skill]]:
    """``(path, skill)`` for every ``*.skill`` file in ``directory``, by name.

    A missing directory holds no skills. A file that does not parse raises
    a ``SkillError`` that names it.
    """
    try:
        names = sorted(n for n in os.listdir(directory) if n.endswith(".skill"))
    except FileNotFoundError:
        return []
    files = []
    for name in names:
        path = Path(directory, name)
        try:
            files.append((path, parse_skill_text(path.read_text(encoding="utf-8"))))
        except SkillError as exc:
            raise SkillError(f"{path}: {exc}") from None
    return files


@dataclass
class RoutingResult:
    task_skill: str
    helper_skills: list[str]
    justification: str
    used_fallback: bool = False


@dataclass
class AssembledPrompt:
    text: str
    skill_names: list[str]


class SkillCatalog:
    """Immutable collection of hand-authored skills, loaded from a directory
    once and shared by every episode that runs with it."""

    def __init__(self, skills: list[Skill]):
        self.skills = list(skills)
        self.by_name: dict[str, Skill] = {}
        # keyword routes by (description, task kind); see ``route``
        self.keyword_routes: dict[tuple[str, str], RoutingResult] = {}
        for skill in skills:
            if skill.name in self.by_name:
                raise SkillError(f"duplicate skill name {skill.name!r}")
            self.by_name[skill.name] = skill

    @classmethod
    def load(cls, root: Path) -> "SkillCatalog":
        root = Path(root)
        if not root.is_dir():
            raise SkillError(f"skills root {root} is not a directory")
        skills: list[Skill] = []
        for category in (CORE, TASK, HELPER, MODE):
            for path, skill in skill_files(root / category):
                if skill.category != category:
                    raise SkillError(
                        f"{path}: category {skill.category!r} does not match directory"
                    )
                skills.append(skill)
        return cls(skills)

    def of_category(self, category: str) -> list[Skill]:
        return [s for s in self.skills if s.category == category]

    def enabled(self, name: str) -> Optional[Skill]:
        skill = self.by_name.get(name)
        return skill if skill is not None and skill.enabled else None

    def mode_skills(self, mode: str) -> list[Skill]:
        """The skills ``mode`` injects; one missing or disabled is a SkillError."""
        for name in MODE_SKILLS[mode]:
            if self.enabled(name) is None:
                state = "disabled in" if name in self.by_name else "missing from"
                raise SkillError(f"{mode} mode needs skill {name!r}, which is {state} "
                                 "the catalog")
        return [self.by_name[name] for name in MODE_SKILLS[mode]]


def _default_route(task_kind: str, catalog: SkillCatalog) -> RoutingResult:
    if task_kind not in DEFAULT_ROUTES:
        raise NoDefaults(f"no default route for task kind {task_kind!r}")
    task_name, helper_names = DEFAULT_ROUTES[task_kind]
    if catalog.enabled(task_name) is None:
        raise NoDefaults(f"default task skill {task_name!r} missing or disabled")
    helpers = [h for h in helper_names if catalog.enabled(h) is not None]
    return RoutingResult(
        task_skill=task_name,
        helper_skills=helpers,
        justification="configured default combination",
        used_fallback=True,
    )


def _validate_route(
    task_name: str, helper_names: list[str], catalog: SkillCatalog
) -> bool:
    task_skill = catalog.enabled(task_name)
    if task_skill is None or task_skill.category != TASK:
        return False
    if len(helper_names) > 2 or len(set(helper_names)) != len(helper_names):
        return False
    for name in helper_names:
        helper = catalog.enabled(name)
        if helper is None or helper.category != HELPER:
            return False
    return True


def keyword_fallback_router(
    description: str, task_kind: str, catalog: SkillCatalog
) -> RoutingResult:
    """Deterministic router: keyword overlap, argmax, lexicographic tie-break."""
    wanted = set(words(description))

    def overlap(skill: Skill) -> int:
        return len(wanted & {k.lower() for k in skill.keywords})

    tasks = [s for s in catalog.of_category(TASK) if s.enabled]
    if not tasks:
        return _default_route(task_kind, catalog)
    scored = sorted(tasks, key=lambda s: (-overlap(s), s.name))
    if overlap(scored[0]) == 0:
        return _default_route(task_kind, catalog)
    task_skill = scored[0]

    helpers = [s for s in catalog.of_category(HELPER) if s.enabled and overlap(s) >= 1]
    helpers.sort(key=lambda s: (-overlap(s), s.name))
    helper_names = [s.name for s in helpers[:2]]
    matched = sorted(wanted & {k.lower() for k in task_skill.keywords})
    return RoutingResult(
        task_skill=task_skill.name,
        helper_skills=helper_names,
        justification=f"keyword match on {matched}",
        used_fallback=False,
    )


def parse_router_output(text: str) -> Optional[tuple[str, list[str], str]]:
    match = ROUTER_GRAMMAR.match(text.strip())
    if match is None:
        return None
    helpers = [h for h in match.group("helpers").split(",") if h]
    return match.group("task"), helpers, match.group("because").strip()


def route(
    description: str,
    task_kind: str,
    mode: str,
    catalog: SkillCatalog,
    router=None,
) -> RoutingResult:
    """Gateway routing. ``router`` is a decision provider; None uses keywords.

    Never raises on router misbehavior: malformed output or constraint
    violations fall back to the configured defaults. Keyword routes are
    pure, so each catalog computes one once per (description, task kind)
    and hands out copies; a router's answers are never reused.
    """
    if router is None:
        key = (description, task_kind)
        routed = catalog.keyword_routes.get(key)
        if routed is None:
            routed = keyword_fallback_router(description, task_kind, catalog)
            catalog.keyword_routes[key] = routed
        return replace(routed, helper_skills=list(routed.helper_skills))
    from .reasoning import CALL_ROUTE, ProviderRequest  # local to avoid cycle

    lines = [
        f"- {s.name}: {s.routing_summary}"
        for s in catalog.of_category(TASK) + catalog.of_category(HELPER)
        if s.enabled
    ]
    request = ProviderRequest(
        call_kind=CALL_ROUTE,
        prompt=(
            "Select skills for this task. Answer exactly:\n"
            "task=<name>; helpers=<a,b>; because=<text>\n"
            "Catalog:\n" + "\n".join(lines)
        ),
        task_kind=task_kind,
        extra={"description": description, "mode": mode},
    )
    try:
        raw = router.complete(request)
    except Exception:
        raw = ""
    parsed = parse_router_output(raw) if isinstance(raw, str) else None
    if parsed is None or not _validate_route(parsed[0], parsed[1], catalog):
        return _default_route(task_kind, catalog)
    return RoutingResult(*parsed, used_fallback=False)


def assemble_prompt(
    core_skills: list[Skill],
    routed: RoutingResult,
    mode_skills: list[Skill],
    learned_skills: list[Skill],
    catalog: SkillCatalog,
) -> AssembledPrompt:
    """Deterministic concatenation: core, task, helpers, mode, learned."""
    task_skill = catalog.by_name[routed.task_skill]
    helpers = [catalog.by_name[name] for name in routed.helper_skills]
    ordered = list(core_skills) + [task_skill] + helpers + list(mode_skills) + list(
        learned_skills
    )
    for skill in ordered:
        if not skill.enabled:
            raise DisabledSkillIncluded(skill.name)
    sections = []
    for skill in ordered:
        sections.append(
            f"{SECTION_DELIM} SKILL {skill.name} ({skill.category}) {SECTION_DELIM}\n"
            f"{skill.body}"
        )
    return AssembledPrompt(
        text="\n\n".join(sections), skill_names=[s.name for s in ordered]
    )
