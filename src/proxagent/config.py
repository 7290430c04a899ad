"""Declarative run configuration.

One YAML file drives every run: bus backend, provider, default episode
parameters, and optional per-task overrides. The whole document is
validated before any episode starts; unknown keys are rejected, and
parse -> serialize -> parse is the identity.

The YAML parser is imported only when a configuration file is read
(``load_config``) or written (``dump_config``), so a run built from
``RootConfig()`` or ``parse_config`` never loads it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Optional, get_type_hints

from .bus import BACKENDS, field_problem, parameter_table
from .env import DEFAULT_CONDITION, DEFAULT_SATELLITE, EnvError, make_task
from .reasoning import DEFAULT_PROVIDER_KIND, ReasoningError, make_provider
from .runner import EpisodeConfig, RunnerError


class ConfigError(Exception):
    pass


def _fields(cls, record, where: str, keys=None) -> dict:
    """Keyword arguments for the dataclass ``cls`` from the configuration
    mapping at ``where``.

    A key set to null is left out, so it takes its default. The allowed keys
    are ``keys``, by default every field, and each value must be of its
    field's kind (``bus.parameter_table``); a field typed as a section is
    built the same way.
    """
    if isinstance(record, dict):
        record = {key: value for key, value in record.items() if value is not None}
    elif record is None:
        record = {}
    table, defaulted = parameter_table(cls)
    if keys is not None:
        table = {key: table[key] for key in keys}
    problem = field_problem(table, record, defaulted, closed=True, noun="key")
    if problem is not None:
        raise ConfigError(f"{where}: {problem}")
    hints = get_type_hints(cls)
    for key, value in record.items():
        if is_dataclass(hints[key]):
            record[key] = hints[key](**_fields(hints[key], value, key))
    return record


@dataclass
class BusSection:
    """The ``bus:`` section: the bus backend episodes run on, and Redis's URL."""

    backend: str = "inprocess"
    redis_url: str = "redis://localhost:6379/0"

    def validate(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown bus backend {self.backend!r}")


@dataclass
class ProviderSection:
    """The ``provider:`` section: the provider's kind and its factory options."""

    kind: str = DEFAULT_PROVIDER_KIND
    options: dict = field(default_factory=dict)  # passed to the provider factory

    def validate(self) -> None:
        """A provider section is valid exactly when its provider can be built."""
        try:
            make_provider(self.spec())
        except ReasoningError as exc:
            raise ConfigError(f"provider: {exc}") from None

    def spec(self) -> dict:
        return {"kind": self.kind, **self.options}


@dataclass
class RunSection:
    """The ``run:`` section: one episode's task, target, start, profile, mode and seed."""

    task: str = "rendezvous"
    satellite: str = DEFAULT_SATELLITE
    condition: str = DEFAULT_CONDITION
    profile: str = EpisodeConfig.profile
    mode: str = EpisodeConfig.mode
    seed: int = EpisodeConfig.seed
    max_steps: Optional[int] = None
    evolve: bool = EpisodeConfig.evolve
    workspace: Optional[str] = None

    def episode_config(self, episode_id: Optional[str], trajectory=None, workspace=None,
                       evolve: bool = False) -> EpisodeConfig:
        task = make_task(
            self.task,
            satellite_id=self.satellite,
            condition=self.condition,
            max_steps=self.max_steps,
        )
        return EpisodeConfig(
            task=task,
            profile=self.profile,
            mode=self.mode,
            seed=self.seed,
            episode_id=episode_id,
            workspace=Path(workspace) if workspace else None,
            trajectory_path=Path(trajectory) if trajectory else None,
            evolve=evolve,
        )

    def validate(self) -> None:
        """A run is valid exactly when its episode can be built."""
        try:
            self.episode_config("validate")
        except (EnvError, RunnerError) as exc:
            raise ConfigError(str(exc)) from exc


# Per-task override fields operators may set under ``tasks:``
_OVERRIDE_FIELDS = ("satellite", "condition", "profile", "mode", "seed", "max_steps")


@dataclass
class RootConfig:
    """A whole configuration document, as ``parse_config`` validated it."""

    bus: BusSection = field(default_factory=BusSection)
    provider: ProviderSection = field(default_factory=ProviderSection)
    run: RunSection = field(default_factory=RunSection)
    tasks: dict = field(default_factory=dict)  # task kind -> override record
    skills_root: Optional[str] = None
    satellite_catalog: Optional[str] = None

    def validate(self) -> None:
        """A run's errors name its section: ``run: …`` or ``tasks.<kind>: …``."""
        self.bus.validate()
        self.provider.validate()
        runs = [("run", self.run)] + [(f"tasks.{kind}", self._merged(kind)) for kind in self.tasks]
        for where, run in runs:
            try:
                run.validate()
            except ConfigError as exc:
                raise ConfigError(f"{where}: {exc}") from None

    def effective_run(self, task: Optional[str] = None, **flags) -> RunSection:
        """Precedence: flags given (not None) > per-task overrides > ``run``."""
        run = self._merged(task or self.run.task, **flags)
        run.validate()
        return run

    def _merged(self, kind: str, **flags) -> RunSection:
        overrides = _fields(RunSection, self.tasks.get(kind), f"tasks.{kind}", _OVERRIDE_FIELDS)
        flags = {k: v for k, v in flags.items() if v is not None}
        return RunSection(**{**asdict(self.run), "task": kind, **overrides, **flags})

    def to_dict(self) -> dict:
        return asdict(self)


def parse_config(record: dict) -> RootConfig:
    config = RootConfig(**_fields(RootConfig, record, "root"))
    config.validate()
    return config


def load_config(path) -> RootConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from exc
    import yaml  # noqa: PLC0415

    try:
        record = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"configuration is not valid YAML: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"configuration {str(path)!r} nests too deeply") from None
    return parse_config(record)


def dump_config(config: RootConfig) -> str:
    import yaml  # noqa: PLC0415

    return yaml.safe_dump(config.to_dict(), sort_keys=True)
