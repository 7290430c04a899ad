"""Operator command-line entry point.

Exit codes: 0 success, 2 task failure, 3 configuration error, 4 episode
error. Flags override per-task overrides, which override the
configuration file; a flag left out overrides nothing.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import click

from . import bus as busmod
from .config import ConfigError, RootConfig, load_config
from .env import evaluate, load_satellite_catalog, make_task
from .evolution import SkillStore
from .reasoning import make_provider
from .runner import default_skills_root, run_campaign, run_episode, shipped_catalog
from .skills import SkillCatalog, route
from .tools import builtin_profiles
from .trajectory import ENDED_ERROR, Trajectory, open_for_write

EXIT_OK = 0
EXIT_TASK_FAILURE = 2
EXIT_CONFIG_ERROR = 3
EXIT_EPISODE_ERROR = 4


def _load_root(config_path) -> RootConfig:
    if config_path:
        return load_config(config_path)
    return RootConfig()


@contextlib.contextmanager
def _config_errors():
    """Any error raised inside is reported as a configuration error (exit 3)."""
    try:
        yield
    except Exception as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(EXIT_CONFIG_ERROR)


def _write_out(out: str, document: dict) -> None:
    """Write ``document`` to ``--out`` as indented JSON, making a missing
    directory; a write that still fails is a configuration error."""
    with _config_errors():
        try:
            with open_for_write(Path(out)) as fh:
                fh.write(json.dumps(document, indent=2, sort_keys=True))
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out!r}: {exc.strerror}") from None


def _check_satellite(satellites: dict, satellite_id) -> None:
    if satellite_id not in satellites:
        raise ConfigError(f"unknown satellite {satellite_id!r}; "
                          f"the catalog has {sorted(satellites)}")


def _lock_workspace(workspace: Path) -> int:
    """A descriptor holding the exclusive ``flock`` of ``<workspace>/.lock``,
    which is made, with the workspace, if missing, and never removed. A lock
    another process holds is a configuration error: a workspace has one
    writer at a time."""
    workspace.mkdir(parents=True, exist_ok=True)
    fd = os.open(workspace / ".lock", os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError as exc:
        os.close(fd)
        if isinstance(exc, BlockingIOError):
            raise ConfigError(f"workspace {str(workspace)!r} is in use") from None
        raise
    return fd


class Setup:
    """What every episode of one command runs with, built once from the
    configuration: a provider per episode from one spec (checked here by
    building one), the satellite catalog, the skill catalog (``skills_root``
    if set, else the shipped skills), the bus backend and one
    ``SkillStore`` per workspace, which the command's sequential episodes
    share. Each of the command's episodes must target a satellite in the
    catalog, find its task skill by the keyword route the episode takes and
    its reasoning mode's skills in the skill catalog, enabled, and have a
    workspace, if any, that is a directory or does not exist yet, whose
    learned skills (and, if the episode evolves, history) read cleanly.

    The command holds each of its workspaces' locks until it ends, so a
    second writer exits 3 before any episode."""

    def __init__(self, root: RootConfig, episodes) -> None:
        self.provider_spec = root.provider.spec()
        make_provider(self.provider_spec)
        self.satellites = load_satellite_catalog(root.satellite_catalog)
        self.skill_catalog = (SkillCatalog.load(root.skills_root) if root.skills_root
                              else shipped_catalog())
        episodes = list(episodes)
        for episode in episodes:
            _check_satellite(self.satellites, episode.task.satellite_id)
            route(episode.task.description, episode.task.kind, episode.mode,
                  self.skill_catalog)
            self.skill_catalog.mode_skills(episode.mode)
        self.backend = busmod.make_backend(root.bus.backend, url=root.bus.redis_url)
        self.stores: dict[Path, SkillStore] = {}
        self._locks: list[int] = []
        try:
            for episode in episodes:
                workspace = episode.workspace
                if workspace is None:
                    continue
                if workspace not in self.stores:
                    if workspace.exists() and not workspace.is_dir():
                        raise ConfigError(f"workspace {str(workspace)!r} is not a directory")
                    self._locks.append(_lock_workspace(workspace))
                    self.stores[workspace] = SkillStore(workspace)
                store = self.stores[workspace]
                store.view  # read now, so a malformed file fails before any episode
                if episode.evolve:
                    store.history()
        except BaseException:
            self.close()
            raise
        click.get_current_context().call_on_close(self.close)

    def close(self) -> None:
        """Release the workspace locks."""
        for fd in self._locks:
            os.close(fd)
        self._locks.clear()

    def provider(self):
        return make_provider(self.provider_spec)

    def run(self, episode):
        return run_episode(episode, provider=self.provider(), satellites=self.satellites,
                           skill_catalog=self.skill_catalog, backend=self.backend,
                           store=self.stores.get(episode.workspace))

    def campaign(self, base, rounds: int):
        return run_campaign(base, rounds, base.workspace, provider_factory=self.provider,
                            satellites=self.satellites, skill_catalog=self.skill_catalog,
                            backend=self.backend, store=self.stores[base.workspace])


def _error_text(exc: Exception) -> str:
    """How an episode's exception is kept in an ``--out`` record."""
    return f"{type(exc).__name__}: {exc}"


def _outcome_line(outcome) -> str:
    if outcome.score is not None:
        return f"{outcome.reason} score={outcome.score:.1f} steps={outcome.steps}"
    verdict = "success" if outcome.success else "failure"
    dist = "n/a" if outcome.terminal_distance is None else f"{outcome.terminal_distance:.2f}"
    return f"{verdict} ({outcome.reason}) dist={dist} steps={outcome.steps}"


def _outcome_exit(outcome, ended_by: str) -> int:
    if ended_by == ENDED_ERROR:
        return EXIT_EPISODE_ERROR
    if outcome.success is True:
        return EXIT_OK
    if outcome.success is None:  # inspection: a scored report counts as completion
        return EXIT_OK if outcome.reason == "terminate" else EXIT_TASK_FAILURE
    return EXIT_TASK_FAILURE


def _render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(str(headers[i]).ljust(widths[i]) for i in range(len(headers))),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(str(row[i]).ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


@click.group()
def main() -> None:
    """Closed-loop proximity-operations agent harness."""


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--task", type=str, default=None)
@click.option("--satellite", type=str, default=None)
@click.option("--condition", type=str, default=None)
@click.option("--profile", type=str, default=None)
@click.option("--mode", type=str, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--max-steps", type=int, default=None)
@click.option("--trajectory", type=click.Path(), default=None)
@click.option("--workspace", type=click.Path(), default=None)
@click.option("--evolve/--no-evolve", default=None)
def run(config_path, task, satellite, condition, profile, mode, seed,
        max_steps, trajectory, workspace, evolve) -> None:
    """Run one episode and print its outcome line."""
    with _config_errors():
        root = _load_root(config_path)
        effective = root.effective_run(
            task=task, satellite=satellite, condition=condition, profile=profile,
            mode=mode, seed=seed, max_steps=max_steps, workspace=workspace, evolve=evolve,
        )
        episode = effective.episode_config(
            "ep-000001", trajectory=trajectory,
            workspace=effective.workspace, evolve=effective.evolve,
        )
        setup = Setup(root, [episode])
    try:
        result = setup.run(episode)
    except Exception as exc:
        click.echo(f"episode error: {exc}", err=True)
        sys.exit(EXIT_EPISODE_ERROR)
    click.echo(_outcome_line(result.outcome))
    sys.exit(_outcome_exit(result.outcome, result.trajectory.ended_by))


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--profiles", type=str, default=None,
              help="Comma-separated profile names; default: all shipped profiles.")
@click.option("--tasks", "task_list", type=str, default="rendezvous,search")
@click.option("--condition", type=str, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default=None,
              help="Also write the report as structured JSON.")
def ablate(config_path, profiles, task_list, condition, seed, out) -> None:
    """Run a tool-profile ablation matrix and print the result table."""
    with _config_errors():
        root = _load_root(config_path)
        names = [p.strip() for p in (profiles or ",".join(builtin_profiles())).split(",")]
        kinds = [t.strip() for t in task_list.split(",")]
        episodes = {
            (name, kind): root.effective_run(
                task=kind, profile=name, condition=condition, seed=seed,
            ).episode_config(f"ablate-{name}-{kind}")
            for name in names for kind in kinds
        }
        setup = Setup(root, episodes.values())

    rows, records = [], []
    for name in names:
        cells = [name]
        for kind in kinds:
            error = None
            try:
                result = setup.run(episodes[name, kind])
                outcome = result.outcome
                passed = outcome.success is True
                cell = (
                    f"PASS dist={outcome.terminal_distance:.2f} steps={outcome.steps}"
                    if passed else f"FAIL ({outcome.reason})"
                )
            except Exception as exc:
                outcome, passed, cell = None, False, f"FAIL (error: {exc})"
                error = _error_text(exc)
            cells.append(cell)
            records.append(
                {"profile": name, "task": kind, "passed": passed,
                 "outcome": outcome.to_dict() if outcome else None, "error": error}
            )
        rows.append(cells)
    click.echo(_render_table(["profile"] + kinds, rows))
    if out:
        _write_out(out, {"ablation": records})
    sys.exit(EXIT_OK)


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--task", type=str, default=None)
@click.option("--runs", type=int, default=5)
@click.option("--condition", type=str, default=None)
@click.option("--mode", type=str, default=None)
@click.option("--profile", type=str, default=None)
@click.option("--seed", type=int, default=None, help="The first seed of the sweep.")
@click.option("--out", type=click.Path(), default=None)
def sweep(config_path, task, runs, condition, mode, profile, seed, out) -> None:
    """Run one task over consecutive seeds and report the pass count."""
    with _config_errors():
        if runs < 1:
            raise ConfigError(f"--runs must be >= 1, got {runs}")
        root = _load_root(config_path)
        effective = root.effective_run(task=task, condition=condition,
                                       mode=mode, profile=profile, seed=seed)
        seeds = range(effective.seed, effective.seed + runs)
        episodes = [replace(effective, seed=seed).episode_config(f"sweep-{seed:04d}")
                    for seed in seeds]
        setup = Setup(root, episodes)
    records = []
    for seed, episode in zip(seeds, episodes):
        outcome = error = None
        try:
            outcome = setup.run(episode).outcome
        except Exception as exc:
            click.echo(f"episode error (seed {seed}): {exc}", err=True)
            error = _error_text(exc)
        records.append(
            {"seed": seed, "outcome": outcome.to_dict() if outcome else None,
             "passed": bool(outcome and outcome.success), "error": error}
        )
    passed = sum(1 for r in records if r["passed"])
    rows = [
        [r["seed"], "PASS" if r["passed"] else "FAIL",
         "n/a" if not r["outcome"] else r["outcome"]["steps"]]
        for r in records
    ]
    click.echo(_render_table(["seed", "result", "steps"], rows))
    click.echo(f"pass count: {passed}/{runs}")
    if out:
        _write_out(out, {"sweep": records, "passed": passed})
    sys.exit(EXIT_OK)


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--task", type=str, default=None)
@click.option("--rounds", type=int, default=5)
@click.option("--workspace", type=click.Path(), required=True)
@click.option("--out", type=click.Path(), default=None)
def evolve(config_path, task, rounds, workspace, out) -> None:
    """Run a shared-workspace evolution campaign and list learned skills."""
    with _config_errors():
        if rounds < 1:
            raise ConfigError(f"--rounds must be >= 1, got {rounds}")
        root = _load_root(config_path)
        base = root.effective_run(task=task).episode_config(
            "ep-000000", workspace=workspace, evolve=True,
        )
        setup = Setup(root, [base])
    try:
        report = setup.campaign(base, rounds)
    except Exception as exc:
        click.echo(f"episode error: {exc}", err=True)
        sys.exit(EXIT_EPISODE_ERROR)
    rows = [
        [r["episode_id"], "PASS" if r["success"] else "FAIL", r["steps"],
         r["reason"], json.dumps(r["evolution"]) if r["evolution"] else "-"]
        for r in report.rounds
    ]
    click.echo(_render_table(["round", "result", "steps", "reason", "evolution"], rows))
    inventory = [
        [skill.name, skill.version, skill.provenance, "yes" if skill.enabled else "no"]
        for skill, _path in sorted(setup.stores[base.workspace].view.values(),
                                   key=lambda e: e[0].name)
    ]
    click.echo("\nlearned skills:")
    click.echo(_render_table(["name", "version", "provenance", "enabled"], inventory))
    if out:
        _write_out(out, report.to_dict())
    sys.exit(EXIT_OK)


@main.command()
@click.option("--trajectory", "trajectory_path", type=click.Path(exists=True),
              required=True)
@click.option("--config", "config_path", type=click.Path(), default=None)
def report(trajectory_path, config_path) -> None:
    """Recompute and print the outcome of a persisted trajectory log."""
    with _config_errors():
        root = _load_root(config_path)
        trajectory = Trajectory.read(Path(trajectory_path))
        meta = trajectory.meta
        for name in ("task_kind", "satellite_id", "condition"):
            if not isinstance(meta.get(name), str):
                raise ConfigError(f"{trajectory_path} header field {name!r} "
                                  "is missing or not a string")
        task = make_task(
            meta["task_kind"], satellite_id=meta["satellite_id"],
            condition=meta["condition"],
        )
        satellites = load_satellite_catalog(root.satellite_catalog)
        _check_satellite(satellites, task.satellite_id)
        outcome = evaluate(trajectory, task, satellites[task.satellite_id])
    click.echo(_outcome_line(outcome))
    click.echo(json.dumps(outcome.to_dict(), indent=2, sort_keys=True))
    sys.exit(EXIT_OK)


@main.group()
def skills() -> None:
    """Inspect the skill catalog and the evolution audit log."""


@skills.command("list")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--workspace", type=click.Path(exists=True, file_okay=False), default=None,
              help="Also list learned skills from this workspace.")
def skills_list(config_path, workspace) -> None:
    with _config_errors():
        root = _load_root(config_path)
        catalog = SkillCatalog.load(root.skills_root or default_skills_root())
        learned = SkillStore(workspace).load_all() if workspace else {}
    rows = [
        [s.name, s.category, s.version, s.provenance, "yes" if s.enabled else "no"]
        for s in catalog.skills
    ]
    for skill, _path in sorted(learned.values(), key=lambda e: e[0].name):
        rows.append(
            [skill.name, skill.category, skill.version, skill.provenance,
             "yes" if skill.enabled else "no"]
        )
    click.echo(_render_table(["name", "category", "version", "provenance", "enabled"], rows))
    sys.exit(EXIT_OK)


@skills.command("audit")
@click.option("--workspace", type=click.Path(exists=True, file_okay=False), required=True)
def skills_audit(workspace) -> None:
    with _config_errors():
        records = SkillStore(workspace).audit_records()
    if not records:
        click.echo("audit log is empty")
        sys.exit(EXIT_OK)
    rows = [
        [r.get("episode", ""), r.get("action", ""), r.get("verdict", ""),
         r.get("reason", ""), r.get("detail", "")]
        for r in records
    ]
    click.echo(_render_table(["episode", "action", "verdict", "reason", "detail"], rows))
    sys.exit(EXIT_OK)


if __name__ == "__main__":  # pragma: no cover
    main()
