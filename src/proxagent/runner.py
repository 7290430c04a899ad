"""Episode orchestration: setup, closed loop, and post-episode evolution.

One episode is three phases. Setup routes skills, assembles the system
prompt, and resets the simulator behind the bus bridge. The loop commits
exactly one control-or-terminal tool call per outer step until the episode
terminates, collides, or times out, logging every step as a sorted-key
JSON line. Teardown scores the trajectory; with a workspace, it also
summarizes the episode into the workspace's history and, when evolution is
enabled, first reflects that summary into a gated skill mutation.

The evolution layer (``proxagent.evolution``) is imported by the first
episode or campaign with a workspace, so importing this module, and running
episodes without a workspace, never loads it.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from . import bus as busmod
from .env import (
    EnvBridge,
    SimEnv,
    TaskSpec,
    evaluate,
    load_satellite_catalog,
)
from .reasoning import (
    MODES,
    DecisionProvider,
    MemoryState,
    ReasoningError,
    ScriptedProvider,
    StepContext,
    update_memory,
)
from .skills import CORE, SkillCatalog, assemble_prompt, route
from .tools import (
    TERMINATE,
    ToolDispatcher,
    builtin_catalog,
    builtin_profiles,
    visible_tools,
)
from .trajectory import (
    ENDED_COLLISION,
    ENDED_ERROR,
    ENDED_TERMINATE,
    ENDED_TIMEOUT,
    Outcome,
    StepRecord,
    Trajectory,
)

if TYPE_CHECKING:
    from .evolution import SkillStore

# Each mode's step function, called through this plain dict: a tracer patches its entries
_MODE_STEP = {name: mode.step for name, mode in MODES.items()}


class RunnerError(Exception):
    pass


@dataclass
class EpisodeConfig:
    """What one episode runs: task, tool profile, mode, seed and where it writes."""

    task: TaskSpec
    profile: str = "hybrid-nav"
    mode: str = "standard"                 # a key of reasoning.MODES
    seed: int = 0
    episode_id: Optional[str] = None       # None: the store's next, else ep-000001
    workspace: Optional[Path] = None       # a SkillStore's workspace
    trajectory_path: Optional[Path] = None
    evolve: bool = False
    router: Optional[DecisionProvider] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise RunnerError(f"unknown reasoning mode {self.mode!r}")
        if self.profile not in builtin_profiles():
            raise RunnerError(f"unknown tool profile {self.profile!r}")


@dataclass
class EpisodeResult:
    """A finished episode: its trajectory, its outcome and any evolution event."""

    trajectory: Trajectory
    outcome: Outcome
    evolution: Optional[dict] = None


def default_skills_root() -> Path:
    return Path(str(resources.files("proxagent.data").joinpath("skills")))


@functools.cache
def shipped_catalog() -> SkillCatalog:
    """The package's own skills, loaded by the first caller that needs them.

    They are installed package data, so one load serves the process.
    """
    return SkillCatalog.load(default_skills_root())


def provider_view(obs: dict, profile: frozenset[str]) -> dict:
    """Observation record as the decision layer sees it.

    Ground-truth range is never exposed; the LiDAR reading is exposed only
    when the profile grants the LiDAR tool.
    """
    view = {k: v for k, v in obs.items() if k != "true_range"}
    if "lidar_range" not in profile:
        view.pop("lidar_range", None)
    return view


def is_terminated(call_tool: str, obs: dict, step_count: int, max_steps: int) -> Optional[str]:
    """Episode end cause after a committed call, or None to continue."""
    if call_tool == TERMINATE:
        return ENDED_TERMINATE
    if obs.get("collided"):
        return ENDED_COLLISION
    if step_count >= max_steps:
        return ENDED_TIMEOUT
    return None


def _observation(obs: Optional[dict]) -> dict:
    if obs is None:
        raise RunnerError("no observation on the bus")
    return obs


def _workspace_store(workspace: Optional[Path],
                     store: Optional[SkillStore]) -> Optional[SkillStore]:
    """The store of ``workspace``: ``store`` if given, which must be that
    workspace's, else a new one (or none without a workspace)."""
    if store is None:
        if workspace is None:
            return None
        from .evolution import SkillStore  # noqa: PLC0415

        return SkillStore(workspace)
    if workspace is None or Path(workspace) != store.workspace:
        raise RunnerError(f"the store is for workspace {store.workspace}, "
                          f"the episode's is {workspace}")
    return store


def run_episode(
    config: EpisodeConfig,
    provider: Optional[DecisionProvider] = None,
    satellites: Optional[dict] = None,
    skill_catalog: Optional[SkillCatalog] = None,
    backend: Optional[busmod.BusBackend] = None,
    store: Optional[SkillStore] = None,
) -> EpisodeResult:
    """Run one full episode and return its scored result.

    ``provider`` serves this one episode, and defaults to a new
    ``ScriptedProvider``: a provider keeps per-episode state, so each
    episode is given its own. ``skill_catalog`` defaults to the shipped
    skills. ``store`` is the ``SkillStore`` of ``config.workspace``, shared
    by the caller's episodes; without one, an episode with a workspace
    opens its own. An episode without an ``episode_id`` takes the store's
    next one (``SkillStore.next_episode_id``), or ``ep-000001`` without a
    workspace.
    """
    task = config.task
    provider = ScriptedProvider() if provider is None else provider
    satellites = load_satellite_catalog() if satellites is None else satellites
    skill_catalog = shipped_catalog() if skill_catalog is None else skill_catalog
    backend = busmod.InProcessBus() if backend is None else backend

    # -- phase 1: setup ------------------------------------------------
    catalog = builtin_catalog()
    profile = builtin_profiles()[config.profile]
    visible = visible_tools(catalog, profile)

    routing = route(task.description, task.kind, config.mode, skill_catalog,
                    router=config.router)
    core_skills = skill_catalog.of_category(CORE)
    mode_skills = skill_catalog.mode_skills(MODES[config.mode].skills)

    store = _workspace_store(config.workspace, store)
    episode_id = config.episode_id
    if episode_id is None:
        episode_id = "ep-000001" if store is None else store.next_episode_id()
    learned = []
    if store is not None:
        from .evolution import select_learned  # noqa: PLC0415

        learned = select_learned(task.kind, task.description, store)
    prompt = assemble_prompt(core_skills, routing, mode_skills, learned, skill_catalog)

    env = SimEnv(satellites)
    bridge = EnvBridge(env, backend)
    bridge.reset(task, seed=config.seed)
    dispatcher = ToolDispatcher(backend, catalog, profile, satellites, task.satellite_id)
    memory = MemoryState()
    step_fn = _MODE_STEP[config.mode]

    trajectory = Trajectory(
        meta={
            "episode_id": episode_id,
            "task_kind": task.kind,
            "satellite_id": task.satellite_id,
            "condition": task.condition.id,
            "profile": config.profile,
            "mode": config.mode,
            "seed": config.seed,
            "provider": provider.identity,
            "skills": prompt.skill_names,
        }
    )

    # -- phase 2: closed loop ------------------------------------------
    ended_by = ENDED_TIMEOUT
    try:
        obs = _observation(dispatcher.latest_observation())
        for step_index in range(task.max_steps):
            step = step_fn(StepContext(
                provider_view(obs, profile), prompt, memory, visible,
                provider, dispatcher, task.kind, step_index,
            ))
            call = step.call
            result = dispatcher.dispatch(call)
            post_obs = _observation(dispatcher.observation_after(result))

            digest = busmod.dumps_strict(result.payload)[:120]
            memory = update_memory(
                memory,
                {
                    "step": step_index,
                    "tool": call.tool,
                    "args": call.args,
                    "result_digest": digest,
                    "bearing_az": post_obs.get("bearing_az"),
                },
            )
            memory_hash = hashlib.blake2b(
                memory.memory_text().encode(), digest_size=8
            ).hexdigest()

            trajectory.steps.append(
                StepRecord(
                    step=step_index,
                    observation=post_obs,
                    call=call.to_dict(),
                    result=result.to_dict(),
                    inner=step.inner,
                    memory_hash=memory_hash,
                    provider_calls=step.provider_calls,
                )
            )
            cause = is_terminated(call.tool, post_obs, step_index + 1, task.max_steps)
            if cause is not None:
                ended_by = cause
                break
            # inner rounds dispatch only non-control tools, so nothing is
            # published before the next step: its observation is this one
            obs = post_obs
    except ReasoningError:
        ended_by = ENDED_ERROR
    finally:
        bridge.close()
    trajectory.ended_by = ended_by

    # -- phase 3: teardown ---------------------------------------------
    if config.trajectory_path is not None:
        trajectory.write(Path(config.trajectory_path))

    outcome = evaluate(trajectory, task, satellites[task.satellite_id])
    evolution_event = None
    if store is not None:
        from .evolution import run_evolution, summarize_episode  # noqa: PLC0415

        summary = summarize_episode(trajectory, outcome, task.kind, episode_id)
        if config.evolve:
            evolution_event = run_evolution(summary, prompt.skill_names, provider, store)
        store.record_episode(summary)
    return EpisodeResult(trajectory, outcome, evolution_event)


@dataclass
class CampaignReport:
    """The per-round records of one evolution campaign."""

    rounds: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"rounds": self.rounds, "successes": sum(1 for r in self.rounds if r["success"])}


def run_campaign(
    base: EpisodeConfig,
    rounds: int,
    workspace: Path,
    provider_factory=None,
    satellites: Optional[dict] = None,
    skill_catalog: Optional[SkillCatalog] = None,
    backend: Optional[busmod.BusBackend] = None,
    store: Optional[SkillStore] = None,
) -> CampaignReport:
    """Sequential multi-round campaign over a shared evolution workspace,
    whose one ``SkillStore`` (``store``, or a new one) serves every round
    and numbers it (``SkillStore.next_episode_id``), so each episode id
    names one episode of the workspace."""
    store = _workspace_store(Path(workspace), store)
    satellites = load_satellite_catalog() if satellites is None else satellites
    provider_factory = ScriptedProvider if provider_factory is None else provider_factory
    report = CampaignReport()
    for _ in range(rounds):
        episode_id = store.next_episode_id()
        config = replace(
            base, episode_id=episode_id, workspace=store.workspace,
            trajectory_path=store.trajectory_path(episode_id), evolve=True,
        )
        result = run_episode(
            config, provider=provider_factory(), satellites=satellites,
            skill_catalog=skill_catalog, backend=backend, store=store,
        )
        report.rounds.append({
            "episode_id": episode_id, **result.outcome.to_dict(),
            "success": bool(result.outcome.success),  # False, not None, for inspection
            "passed": result.outcome.passed,
            "evolution": result.evolution,
        })
    return report
