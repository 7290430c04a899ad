"""Trajectory and outcome records shared by the simulator and the runner.

Step records are serialized as sorted-key JSON lines so that two runs with
the same configuration and seed produce byte-identical logs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Optional, get_type_hints

from .bus import dumps_strict, loads

ENDED_TERMINATE = "terminate"
ENDED_TIMEOUT = "timeout"
ENDED_COLLISION = "collision"
ENDED_ERROR = "error"

SCHEMA_VERSION = 1


def open_for_write(path: Path, mode: str = "w") -> IO[str]:
    """``open(path, mode)`` as UTF-8 text. A missing parent directory is
    made, with its own missing parents, only when the open fails for want
    of it; a parent that is a file still raises."""
    try:
        return open(path, mode, encoding="utf-8")
    except FileNotFoundError:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        return open(path, mode, encoding="utf-8")


@dataclass
class StepRecord:
    step: int
    observation: dict          # observation after the committed action
    call: dict                 # {"tool", "args", "step_index", "inner_round"}
    result: dict               # {"ok", "payload", "error_kind"}
    inner: list = field(default_factory=list)  # inner-round records
    memory_hash: str = ""
    provider_calls: int = 0

    def to_json(self) -> str:
        return dumps_strict(vars(self))


_STEP_TYPES = get_type_hints(StepRecord)


def _step_record(data: dict) -> StepRecord:
    """A step line as a StepRecord; a field not of its annotated type, or a
    call without a str ``tool`` and a dict ``args``, is a TypeError."""
    record = StepRecord(**data)
    for name, wanted in _STEP_TYPES.items():
        value = getattr(record, name)
        if not isinstance(value, wanted) or isinstance(value, bool):
            raise TypeError(f"{name} must be {wanted.__name__}, got {value!r}")
    if not isinstance(record.call.get("tool"), str):
        raise TypeError(f"call.tool must be str, got {record.call.get('tool')!r}")
    if not isinstance(record.call.get("args"), dict):
        raise TypeError(f"call.args must be dict, got {record.call.get('args')!r}")
    return record


@dataclass
class Trajectory:
    steps: list[StepRecord] = field(default_factory=list)
    ended_by: str = ENDED_ERROR
    meta: dict = field(default_factory=dict)

    def write(self, path: Path) -> None:
        """Write the log in one call, making its directory if it is missing.
        Every line is encoded first, so a NaN or Infinity anywhere raises
        ValueError before the file is opened."""
        header = dict(self.meta)
        header["schema_version"] = SCHEMA_VERSION
        lines = [dumps_strict({"header": header})]
        lines.extend(record.to_json() for record in self.steps)
        lines.append(dumps_strict({"ended_by": self.ended_by}))
        text = "\n".join(lines) + "\n"
        with open_for_write(path) as fh:
            fh.write(text)

    @classmethod
    def read(cls, path: Path) -> "Trajectory":
        """Read a log that ``write`` wrote. A line that is not JSON, or not
        a header, step or footer record (a step's fields of their annotated
        types), is a ValueError naming the file and the line."""
        traj = cls()
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = loads(line)
                    if "header" in data:
                        traj.meta = {
                            k: v for k, v in data["header"].items() if k != "schema_version"
                        }
                    elif "ended_by" in data:
                        traj.ended_by = data["ended_by"]
                    else:
                        traj.steps.append(_step_record(data))
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path} line {number}: not JSON ({exc.msg})") from None
                except RecursionError:
                    raise ValueError(f"{path} line {number}: not JSON "
                                     "(nests too deeply)") from None
                except (TypeError, AttributeError) as exc:
                    raise ValueError(f"{path} line {number}: not a trajectory record "
                                     f"({exc})") from None
        return traj


@dataclass
class Outcome:
    """Episode result. Navigation carries success+distance, inspection a score."""

    steps: int
    reason: str
    success: Optional[bool] = None
    terminal_distance: Optional[float] = None
    score: Optional[float] = None

    def to_dict(self) -> dict:
        return dict(vars(self))
