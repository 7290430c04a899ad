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

from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Optional, get_args, get_type_hints

from .bus import BACKENDS
from .env import EnvError, make_task
from .reasoning import PROVIDER_KINDS
from .runner import EpisodeConfig, RunnerError


class ConfigError(Exception):
    pass


def _fields(cls, record, where: str, keys=None) -> dict:
    """Keyword arguments for the dataclass ``cls`` from a configuration mapping.

    The allowed keys are ``keys``, by default the dataclass fields. Each
    value must have its field's type (``bool`` is not an ``int``); a field
    typed as a section is built the same way. A key set to null is left out,
    so it takes its default.
    """
    if record is None:
        record = {}
    if not isinstance(record, dict):
        raise ConfigError(f"{where} must be a mapping, got {record!r}")
    unknown = set(record) - set(keys or (f.name for f in fields(cls)))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    hints = get_type_hints(cls)
    values = {}
    for key, value in record.items():
        hint = hints[key]
        if is_dataclass(hint):
            values[key] = hint(**_fields(hint, value, key))
        elif value is not None:
            types = get_args(hint) or (hint,)  # Optional[int] -> (int, NoneType)
            if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
                raise ConfigError(f"{where}.{key} must be {types[0].__name__}, got {value!r}")
            values[key] = value
    return values


@dataclass
class BusSection:
    backend: str = "inprocess"
    redis_url: str = "redis://localhost:6379/0"

    def validate(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown bus backend {self.backend!r}")


@dataclass
class ProviderSection:
    kind: str = "scripted"
    options: dict = field(default_factory=dict)  # passed to the provider factory

    def validate(self) -> None:
        if self.kind not in PROVIDER_KINDS:
            raise ConfigError(f"unknown provider kind {self.kind!r}")

    def spec(self) -> dict:
        return {"kind": self.kind, **self.options}


@dataclass
class RunSection:
    task: str = "rendezvous"
    satellite: str = "CAPSTONE"
    condition: str = "C1"
    profile: str = "hybrid-nav"
    mode: str = "standard"
    seed: int = 0
    max_steps: Optional[int] = None
    evolve: bool = False
    workspace: Optional[str] = None

    def episode_config(self, episode_id: str, trajectory=None, workspace=None,
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
_OVERRIDE_FIELDS = {"satellite", "condition", "profile", "mode", "seed", "max_steps"}


@dataclass
class RootConfig:
    bus: BusSection = field(default_factory=BusSection)
    provider: ProviderSection = field(default_factory=ProviderSection)
    run: RunSection = field(default_factory=RunSection)
    tasks: dict = field(default_factory=dict)  # task kind -> override record
    skills_root: Optional[str] = None
    satellite_catalog: Optional[str] = None

    def validate(self) -> None:
        self.bus.validate()
        self.provider.validate()
        self.run.validate()
        for kind in self.tasks:
            self.effective_run(kind)

    def effective_run(self, task: Optional[str] = None, **flags) -> RunSection:
        """Precedence: flags given (not None) > per-task overrides > ``run``."""
        kind = task or self.run.task
        overrides = _fields(RunSection, self.tasks.get(kind), f"tasks.{kind}", _OVERRIDE_FIELDS)
        flags = {k: v for k, v in flags.items() if v is not None}
        run = RunSection(**{**asdict(self.run), "task": kind, **overrides, **flags})
        run.validate()
        return run

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
        record = yaml.safe_load(text) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"configuration is not valid YAML: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"configuration {str(path)!r} nests too deeply") from None
    return parse_config(record)


def dump_config(config: RootConfig) -> str:
    import yaml  # noqa: PLC0415

    return yaml.safe_dump(config.to_dict(), sort_keys=True)
