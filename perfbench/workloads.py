"""Workload generation and the closed-loop episode driver.

Every workload is a fixed list of episode (or campaign) specs generated from
the bench seed. One *pass* runs that list once, in order, with one client:
the next episode starts when the previous one returns. The driver touches the
program only through its public API: ``make_task``, ``EpisodeConfig``,
``run_episode``, ``run_campaign``, ``Trajectory.read`` and ``evaluate``.
The runner functions are looked up on their module at call time, so a
traced pass reaches the wrapped ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

from proxagent.env import evaluate, make_task
from proxagent.reasoning import ScriptedPolicyConfig, ScriptedProvider
from proxagent import runner
from proxagent.runner import EpisodeConfig
from proxagent.trajectory import ENDED_ERROR, Trajectory

import calibrate
from accounting import CountingProvider, ProviderStats

NAV_MATRIX = "nav-matrix"
INSPECT_SWEEP = "inspect-sweep"
EVOLVE_CAMPAIGN = "evolve-campaign"
WORKLOADS = (NAV_MATRIX, INSPECT_SWEEP, EVOLVE_CAMPAIGN)

CONDITIONS = ("C1", "C2", "C3")
PROFILES = ("vision-only", "hybrid-nav", "hybrid-nav-code")
MODES = ("standard", "react", "prospective")

# A pass holds at least 200 episodes, so that 10 lie beyond its p95. Every
# factor is crossed in full and each episode draws its own env seed, so the
# mix of a pass is the same for every bench seed.
NAV_KINDS = ("rendezvous", "search")   # x 5 satellites x 3 x 3 x 3 = 270
INSPECT_REPEATS = 2                    # 5 satellites x 3 x 3 x 3 x 2 = 270
CAMPAIGN_ROUNDS = 10
CAMPAIGN_REPEATS = 2
CAMPAIGN_PROFILE = "hybrid-nav"
# The mis-tuned policy of the self-evolution acceptance criterion: its first
# navigation rounds overshoot the actuator limit, so reflection has work to do.
MISTUNED_POLICY = {"max_forward_step": 6.0, "forward_fraction": 0.5}
# Calibration chunks per pass, spread evenly between its specs.
CALIBRATIONS_PER_PASS = 54


@dataclass(frozen=True)
class EpisodeSpec:
    kind: str
    satellite: str
    condition: str
    profile: str
    mode: str
    env_seed: int


def generate(workload: str, seed: int, satellite_ids: list[str]) -> list[EpisodeSpec]:
    """The spec list of one pass. The same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    sats = sorted(satellite_ids)
    specs: list[EpisodeSpec] = []
    if workload == NAV_MATRIX:
        specs = _matrix(rng, NAV_KINDS, sats)
    elif workload == INSPECT_SWEEP:
        specs = _matrix(rng, ("inspection",) * INSPECT_REPEATS, sats)
    elif workload == EVOLVE_CAMPAIGN:
        # Each spec is a whole campaign: 3 kinds x 3 conditions x 3 modes x 2
        # x 10 rounds = 540 episodes; satellites go round in turn.
        for _ in range(CAMPAIGN_REPEATS):
            for kind in ("rendezvous", "search", "inspection"):
                for condition in CONDITIONS:
                    for mode in MODES:
                        specs.append(EpisodeSpec(
                            kind, sats[len(specs) % len(sats)], condition,
                            CAMPAIGN_PROFILE, mode, rng.randrange(1 << 30),
                        ))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return specs


def _matrix(rng: random.Random, kinds, sats: list[str]) -> list[EpisodeSpec]:
    return [
        EpisodeSpec(kind, satellite, condition, profile, mode, rng.randrange(1 << 30))
        for kind in kinds
        for satellite in sats
        for condition in CONDITIONS
        for profile in PROFILES
        for mode in MODES
    ]


@contextlib.contextmanager
def scratch_dir(root: Path):
    """A private directory for campaign workspaces under ``root/.perfbench_tmp``,
    removed with everything in it afterwards."""
    parent = root / ".perfbench_tmp"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()   # only once no other run uses it


def episodes_per_spec(workload: str) -> int:
    return CAMPAIGN_ROUNDS if workload == EVOLVE_CAMPAIGN else 1


def outcome_points(success: Optional[bool], score: Optional[float]) -> float:
    """100 per navigation success, 0 per failure, the 0-100 score for inspection."""
    if score is not None:
        return float(score)
    return 100.0 if success else 0.0


@dataclass
class PassResult:
    """What one pass over the spec list produced and how long it took."""

    episode_seconds: list[float] = field(default_factory=list)
    steps: int = 0
    failed: int = 0
    episode_digests: list[str] = field(default_factory=list)
    points: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    chunk_seconds: list[float] = field(default_factory=list)
    provider: ProviderStats = field(default_factory=ProviderStats)
    _hasher: object = field(default_factory=lambda: hashlib.blake2b(digest_size=16))

    @property
    def episodes(self) -> int:
        return len(self.episode_seconds)

    @property
    def wall(self) -> float:
        return sum(self.episode_seconds)

    @property
    def slowdown(self) -> float:
        """The machine's slowdown over the pass, from its calibration chunks."""
        return calibrate.slowdown(self.chunk_seconds)

    @property
    def digest(self) -> str:
        return self._hasher.hexdigest()

    def record_steps(self, lines: list[str]) -> None:
        """Fold one episode's ``StepRecord.to_json()`` lines into the digests."""
        episode = hashlib.blake2b(digest_size=16)
        for line in lines:
            data = line.encode("utf-8") + b"\n"
            episode.update(data)
            self._hasher.update(data)
        self.episode_digests.append(episode.hexdigest())
        self.steps += len(lines)


def run_pass(workload: str, specs: list[EpisodeSpec], satellites: dict,
             scratch: Path, tracer=None) -> PassResult:
    """Run every spec once. Only the calls into the program are timed.

    Between specs, outside the timed calls, the pass times calibration chunks
    (``calibrate.py``), which give its ``slowdown``. ``tracer`` is given for a
    traced pass, so that tracing pauses while the bench re-reads and checks
    what a campaign wrote.
    """
    result = PassResult()
    every = max(1, len(specs) // CALIBRATIONS_PER_PASS)
    for index, spec in enumerate(specs):
        if workload == EVOLVE_CAMPAIGN:
            _campaign(index, spec, satellites, scratch, result, tracer)
        else:
            _episode(index, spec, satellites, result)
        if (index + 1) % every == 0:
            result.chunk_seconds.append(calibrate.chunk())
    return result


def _episode(index: int, spec: EpisodeSpec, satellites: dict, result: PassResult) -> None:
    provider = CountingProvider(ScriptedProvider(), result.provider)
    start = perf_counter()
    try:
        task = make_task(spec.kind, satellite_id=spec.satellite, condition=spec.condition)
        config = EpisodeConfig(
            task=task, profile=spec.profile, mode=spec.mode, seed=spec.env_seed,
            episode_id=f"ep-{index + 1:06d}",
        )
        episode = runner.run_episode(config, provider=provider, satellites=satellites)
    except Exception as exc:  # counted as a failed episode, the pass goes on
        result.episode_seconds.append(perf_counter() - start)
        result.failed += 1
        result.problems.append(f"episode {index} raised {exc!r}")
        result.record_steps([])
        return
    result.episode_seconds.append(perf_counter() - start)
    trajectory = episode.trajectory
    if trajectory.ended_by == ENDED_ERROR:
        result.failed += 1
    result.record_steps([record.to_json() for record in trajectory.steps])
    result.points.append(outcome_points(episode.outcome.success, episode.outcome.score))


def _campaign(index: int, spec: EpisodeSpec, satellites: dict, scratch: Path,
              result: PassResult, tracer) -> None:
    workspace = Path(tempfile.mkdtemp(prefix=f"campaign-{index}-", dir=scratch))
    # run_campaign builds each round's provider right before running the
    # round, so the factory's call times split the campaign into episodes.
    marks: list[float] = []

    def factory():
        marks.append(perf_counter())
        return CountingProvider(
            ScriptedProvider(ScriptedPolicyConfig(**MISTUNED_POLICY)), result.provider)

    try:
        start = perf_counter()
        try:
            task = make_task(spec.kind, satellite_id=spec.satellite, condition=spec.condition)
            base = EpisodeConfig(task=task, profile=spec.profile, mode=spec.mode,
                                 seed=spec.env_seed)
            report = runner.run_campaign(base, CAMPAIGN_ROUNDS, workspace,
                                  provider_factory=factory, satellites=satellites)
        except Exception as exc:  # counted as failed episodes, the pass goes on
            end = perf_counter()
            result.episode_seconds.extend(
                [(end - start) / CAMPAIGN_ROUNDS] * CAMPAIGN_ROUNDS
            )
            result.failed += CAMPAIGN_ROUNDS
            result.problems.append(f"campaign {index} raised {exc!r}")
            for _ in range(CAMPAIGN_ROUNDS):
                result.record_steps([])
            return
        end = perf_counter()
        bounds = [start] + marks[1:] + [end]
        result.episode_seconds.extend(b - a for a, b in zip(bounds, bounds[1:]))
        _check_campaign(index, task, report.rounds, workspace, satellites, result, tracer)
    finally:
        shutil.rmtree(workspace, ignore_errors=True)


def _check_campaign(index, task, rounds, workspace, satellites, result, tracer) -> None:
    """Each written trajectory, re-read and re-scored, must give the outcome
    the campaign returned."""
    if tracer is not None:
        tracer.enabled = False
    try:
        for row in rounds:
            trajectory = Trajectory.read(workspace / f"{row['episode_id']}.jsonl")
            if trajectory.ended_by == ENDED_ERROR:
                result.failed += 1
            result.record_steps([record.to_json() for record in trajectory.steps])
            outcome = evaluate(trajectory, task, satellites[task.satellite_id])
            returned = {k: row[k] for k in ("steps", "success", "reason",
                                            "terminal_distance", "score")}
            # run_campaign reports success as a bool, also for inspection
            recomputed = {**outcome.to_dict(), "success": bool(outcome.success)}
            if recomputed != returned:
                result.problems.append(
                    f"campaign {index} {row['episode_id']}: re-evaluated "
                    f"{recomputed} != returned {returned}"
                )
            result.points.append(outcome_points(row["success"], row["score"]))
    finally:
        if tracer is not None:
            tracer.enabled = True
