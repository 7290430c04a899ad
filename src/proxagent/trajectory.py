"""Trajectory and outcome records shared by the simulator and the runner.

Step records are serialized as sorted-key JSON lines so that two runs with
the same configuration and seed produce byte-identical logs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ENDED_TERMINATE = "terminate"
ENDED_TIMEOUT = "timeout"
ENDED_COLLISION = "collision"
ENDED_ERROR = "error"

SCHEMA_VERSION = 1


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
        return json.dumps(vars(self), sort_keys=True, allow_nan=False)


@dataclass
class Trajectory:
    steps: list[StepRecord] = field(default_factory=list)
    ended_by: str = ENDED_ERROR
    meta: dict = field(default_factory=dict)

    def write(self, path: Path) -> None:
        """Write the log; a NaN or Infinity anywhere raises ValueError."""
        with open(path, "w", encoding="utf-8") as fh:
            header = dict(self.meta)
            header["schema_version"] = SCHEMA_VERSION
            fh.write(json.dumps({"header": header}, sort_keys=True, allow_nan=False) + "\n")
            for record in self.steps:
                fh.write(record.to_json() + "\n")
                fh.flush()
            fh.write(json.dumps({"ended_by": self.ended_by}, sort_keys=True) + "\n")

    @classmethod
    def read(cls, path: Path) -> "Trajectory":
        traj = cls()
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                data = json.loads(line)
                if "header" in data:
                    traj.meta = {
                        k: v for k, v in data["header"].items() if k != "schema_version"
                    }
                elif "ended_by" in data:
                    traj.ended_by = data["ended_by"]
                else:
                    traj.steps.append(StepRecord(**data))
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
