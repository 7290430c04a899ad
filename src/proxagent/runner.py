"""Episode orchestration: setup, closed loop, and post-episode evolution.

One episode is three phases. Setup routes skills, assembles the system
prompt, and resets the simulator behind the bus bridge. The loop commits
exactly one control-or-terminal tool call per outer step until the episode
terminates, collides, or times out, logging every step as a sorted-key
JSON line. Teardown scores the trajectory; with a workspace, it also
summarizes the episode into the workspace's history and, when evolution is
enabled, first reflects that summary into a gated skill mutation.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Optional

from . import bus as busmod
from .env import (
    EnvBridge,
    SimEnv,
    TaskSpec,
    evaluate,
    load_satellite_catalog,
)
from .evolution import (
    SkillStore,
    run_evolution,
    select_learned,
    summarize_episode,
)
from .reasoning import (
    DecisionProvider,
    MemoryState,
    ReasoningError,
    ScriptedProvider,
    StepContext,
    step_prospective,
    step_react,
    step_standard,
    update_memory,
)
from .skills import (
    CORE,
    MODE_STANDARD,
    REASONING_MODES,
    SkillCatalog,
    assemble_prompt,
    route,
)
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

_MODE_STEP = {
    "standard": step_standard,
    "react": step_react,
    "prospective": step_prospective,
}


class RunnerError(Exception):
    pass


@dataclass
class EpisodeConfig:
    task: TaskSpec
    profile: str = "hybrid-nav"
    mode: str = MODE_STANDARD
    seed: int = 0
    episode_id: str = "ep-000001"
    workspace: Optional[Path] = None       # a SkillStore's workspace
    trajectory_path: Optional[Path] = None
    evolve: bool = False
    router: Optional[DecisionProvider] = None

    def __post_init__(self) -> None:
        if self.mode not in REASONING_MODES:
            raise RunnerError(f"unknown reasoning mode {self.mode!r}")
        if self.profile not in builtin_profiles():
            raise RunnerError(f"unknown tool profile {self.profile!r}")


@dataclass
class EpisodeResult:
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
        return None if workspace is None else SkillStore(workspace)
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

    ``skill_catalog`` defaults to the shipped skills. ``store`` is the
    ``SkillStore`` of ``config.workspace``, shared by the caller's episodes;
    without one, an episode with a workspace opens its own.
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
    mode_skills = skill_catalog.mode_skills(config.mode)

    store = _workspace_store(config.workspace, store)
    learned = []
    if store is not None:
        learned = select_learned(task.kind, task.description, store)
    prompt = assemble_prompt(core_skills, routing, mode_skills, learned, skill_catalog)

    env = SimEnv(satellites)
    bridge = EnvBridge(env, backend)
    bridge.reset(task, seed=config.seed)
    dispatcher = ToolDispatcher(backend, catalog, profile, satellites, task.satellite_id)
    provider.reset_episode(config.episode_id)
    memory = MemoryState()
    step_fn = _MODE_STEP[config.mode]

    trajectory = Trajectory(
        meta={
            "episode_id": config.episode_id,
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

            digest = busmod.dumps_sorted(result.payload)[:120]
            memory = update_memory(
                memory,
                {
                    "step": step_index,
                    "tool": call.tool,
                    "args": call.args,
                    "result_digest": digest,
                    "bearing_az": post_obs.get("bearing_az"),
                },
                provider,
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
        summary = summarize_episode(trajectory, outcome, task.kind, config.episode_id)
        if config.evolve:
            evolution_event = run_evolution(summary, prompt.skill_names, provider, store)
        store.record_episode(summary)
    return EpisodeResult(trajectory, outcome, evolution_event)


@dataclass
class CampaignReport:
    rounds: list[dict] = field(default_factory=list)

    def successes(self) -> int:
        return sum(1 for r in self.rounds if r["success"])

    def to_dict(self) -> dict:
        return {"rounds": self.rounds, "successes": self.successes()}


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
    whose one ``SkillStore`` (``store``, or a new one) serves every round.
    Rounds are numbered after the episodes the workspace already holds, so
    each episode id names one episode of the workspace."""
    store = _workspace_store(Path(workspace), store)
    satellites = load_satellite_catalog() if satellites is None else satellites
    provider_factory = ScriptedProvider if provider_factory is None else provider_factory
    report = CampaignReport()
    first = store.episode_count() + 1
    for index in range(rounds):
        episode_id = f"ep-{first + index:06d}"
        config = replace(
            base, episode_id=episode_id, workspace=store.workspace,
            trajectory_path=store.trajectory_path(episode_id), evolve=True,
        )
        result = run_episode(
            config, provider=provider_factory(), satellites=satellites,
            skill_catalog=skill_catalog, backend=backend, store=store,
        )
        report.rounds.append(
            {
                "episode_id": episode_id,
                "steps": result.outcome.steps,
                "success": bool(result.outcome.success),
                "reason": result.outcome.reason,
                "terminal_distance": result.outcome.terminal_distance,
                "score": result.outcome.score,
                "evolution": result.evolution,
            }
        )
    return report
