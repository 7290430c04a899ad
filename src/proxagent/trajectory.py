"""Trajectory and outcome records shared by the simulator and the runner.

Step records are serialized as sorted-key JSON lines so that two runs with
the same configuration and seed produce byte-identical logs.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional

from .bus import OBJECT, STRING, dumps_strict, field_problem, loads, parameter_table

ENDED_TERMINATE = "terminate"
ENDED_TIMEOUT = "timeout"
ENDED_COLLISION = "collision"
ENDED_ERROR = "error"
ENDINGS = (ENDED_TERMINATE, ENDED_TIMEOUT, ENDED_COLLISION, ENDED_ERROR)

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


def write_jsonl(path: Path, records: Iterable[dict], mode: str) -> None:
    """The program's one JSON-lines writer: ``records`` as strict sorted-key
    lines, all encoded before ``open_for_write(path, mode)``, written at once."""
    text = "\n".join(map(dumps_strict, records)) + "\n"
    with open_for_write(path, mode) as fh:
        fh.write(text)


def read_jsonl(path: Path, error: type[Exception],
               last: Optional[int]) -> tuple[int, Iterator[tuple[int, object]]]:
    """The program's one JSON-lines reader: the number of non-blank lines of
    ``path``, and (line number, value) for each, or for the last ``last``,
    decoded as the iterator reaches it; a line that is not JSON is an
    ``error`` naming the file and the line."""
    count = 0
    lines: deque[tuple[int, str]] = deque(maxlen=last)
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.isspace():
                count += 1
                lines.append((number, line))

    def decoded() -> Iterator[tuple[int, object]]:
        for number, line in lines:
            try:
                value = loads(line)
            except ValueError as exc:  # a JSONDecodeError, or an integer int() refuses
                reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
                raise error(f"{path} line {number}: not JSON ({reason})") from None
            except RecursionError:
                raise error(f"{path} line {number}: not JSON (nests too deeply)") from None
            yield number, value

    return count, decoded()


@dataclass
class StepRecord:
    """One logged outer step: committed call, result, observation and inner rounds."""

    step: int
    observation: dict          # observation after the committed action
    call: dict                 # {"tool", "args", "step_index", "inner_round"}
    result: dict               # {"ok", "payload", "error_kind"}
    inner: list = field(default_factory=list)  # inner-round records
    memory_hash: str = ""
    provider_calls: int = 0

    def to_json(self) -> str:
        return dumps_strict(vars(self))


_CALL_FIELDS = {"tool": STRING, "args": OBJECT}
_CALL = (lambda v: field_problem(_CALL_FIELDS, v) is None,
         "an object with a string 'tool' and an object 'args'")

# The field tables of a step line, the StepRecord parameters, of which those
# with a default may be left out, and of the footer
_STEP_FIELDS, _STEP_OPTIONAL = parameter_table(StepRecord)
_STEP_FIELDS["call"] = _CALL
_FOOTER_FIELDS = {"ended_by": (lambda v: v in ENDINGS, f"one of {', '.join(ENDINGS)}")}
# The fields of the header that scoring reads, and the format's version; the
# runner writes others (episode, profile, mode, seed, ...), which are kept
_HEADER_FIELDS = {
    **dict.fromkeys(("task_kind", "satellite_id", "condition"), STRING),
    "schema_version": (lambda v: type(v) is int and v == SCHEMA_VERSION, str(SCHEMA_VERSION)),
}


def _fitting(table: dict, data, optional=()) -> dict:
    """``data``, which must fit the closed field ``table``; else a TypeError."""
    problem = field_problem(table, data, optional, closed=True)
    if problem is not None:
        raise TypeError(problem)
    return data


@dataclass
class Trajectory:
    """An episode's log: its header fields, its step records and what ended it."""

    steps: list[StepRecord] = field(default_factory=list)
    ended_by: str = ENDED_ERROR
    meta: dict = field(default_factory=dict)

    def write(self, path: Path) -> None:
        """Write the log; a NaN or Infinity raises ValueError before the
        file is opened."""
        header = {**self.meta, "schema_version": SCHEMA_VERSION}
        write_jsonl(path, [{"header": header}, *map(vars, self.steps),
                           {"ended_by": self.ended_by}], "w")

    @classmethod
    def read(cls, path: Path) -> "Trajectory":
        """Read a log that ``write`` wrote. A line that is not JSON, or not
        a header, step or footer record (a line that does not fit its field
        table), is a ValueError naming the file and the line, and so are a
        header after the first line and any line after the footer; a log
        without a header line is a ValueError naming the file."""
        traj = cls()
        header = footer = None
        for index, (number, data) in enumerate(read_jsonl(path, ValueError, None)[1]):
            # a line that is no object is refused as a step record
            keys = data if isinstance(data, dict) else ()
            if footer is not None:
                raise ValueError(f"{path} line {number}: a line after the footer "
                                 f"(line {footer})")
            try:
                if "header" in keys:
                    header = data["header"]
                    problem = field_problem(_HEADER_FIELDS, header)
                    if problem is not None:
                        raise TypeError(f"header: {problem}")
                    if index:
                        raise ValueError(f"{path} line {number}: a header after the first line")
                    traj.meta = {k: v for k, v in header.items() if k != "schema_version"}
                elif "ended_by" in keys:
                    traj.ended_by = _fitting(_FOOTER_FIELDS, data)["ended_by"]
                    footer = number
                else:
                    traj.steps.append(StepRecord(**_fitting(_STEP_FIELDS, data,
                                                            _STEP_OPTIONAL)))
            except TypeError as exc:
                raise ValueError(f"{path} line {number}: not a trajectory record "
                                 f"({exc})") from None
        if header is None:
            raise ValueError(f"{path}: no header line")
        return traj


@dataclass
class Outcome:
    """Episode result. Navigation carries success+distance, inspection a score."""

    steps: int
    reason: str
    success: Optional[bool] = None
    terminal_distance: Optional[float] = None
    score: Optional[float] = None

    @property
    def passed(self) -> bool:
        """Navigation passes on success; inspection, which has none, if ``terminate`` ended it."""
        return self.reason == ENDED_TERMINATE if self.success is None else self.success

    def to_dict(self) -> dict:
        return dict(vars(self))
