import contextlib
import fcntl
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from proxagent import cli
from proxagent.cli import main
from proxagent.config import ConfigError, dump_config, load_config, parse_config
from proxagent.env import SimEnv, load_satellite_catalog
from proxagent.skills import NoDefaults, SkillCatalog, parse_skill_text, render_skill


@pytest.fixture()
def runner():
    return CliRunner()


# -- config -------------------------------------------------------------


def test_config_round_trip(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(
        "run:\n  task: search\n  seed: 3\ntasks:\n  inspection:\n"
        "    profile: hybrid-nav-code\n"
    )
    config = load_config(path)
    again = parse_config(yaml.safe_load(dump_config(config)))
    assert again.to_dict() == config.to_dict()


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("run:\n  task: search\nextra_section: true\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("run:\n  warp: 9\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_validates_names(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("run:\n  profile: psychic\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_flag_precedence_over_task_overrides(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(
        "run:\n  mode: standard\ntasks:\n  search:\n    mode: react\n"
    )
    config = load_config(path)
    assert config.effective_run(task="search").mode == "react"
    assert config.effective_run(task="search", mode="prospective").mode == "prospective"
    assert config.effective_run(task="rendezvous").mode == "standard"


def test_shipped_default_config_parses():
    from importlib import resources

    text = resources.files("proxagent.data").joinpath("default_config.yaml").read_text()
    config = parse_config(yaml.safe_load(text))
    assert config.run.profile == "hybrid-nav"


_IMPORT_CLI = """
import sys
import proxagent.cli
print(sorted(m for m in ("yaml", "requests", "redis") if m in sys.modules))
"""


def test_importing_the_cli_loads_no_optional_parser_or_client():
    src = Path(cli.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", _IMPORT_CLI], check=True, timeout=60,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("text, message", [
    ("run: [unclosed\n", "configuration is not valid YAML: "),
    ("- a\n- b\n", "root must be a mapping, got ['a', 'b']"),
])
def test_load_config_names_what_is_wrong_with_the_text(tmp_path, text, message):
    path = tmp_path / "c.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(path)


def test_load_config_names_a_file_it_cannot_read(tmp_path):
    with pytest.raises(ConfigError, match="^cannot read configuration: "):
        load_config(tmp_path / "missing.yaml")


@pytest.mark.parametrize("record", [
    {"bus": 5},
    {"run": 7},
    {"tasks": 5},
    {"tasks": {"search": 5}},
    {"run": {"seed": "x"}},
    {"run": {"seed": True}},
    {"run": {"max_steps": "5"}},
    {"run": {"max_steps": 0}},
    {"run": {"evolve": "yes"}},
    {"provider": {"options": 3}},
    {"tasks": {"search": {"task": "rendezvous"}}},
    {"tasks": {"search": {"condition": "C9"}}},
    {"tasks": {"docking": {}}},
    {"provider": {"kind": "psychic"}},
    {"bus": {"backend": "carrier-pigeon"}},
    {"provider": {"kind": "replay"}},
])
def test_config_rejects_wrong_shapes_and_types(record):
    with pytest.raises(ConfigError):
        parse_config(record)


def test_config_null_keys_take_their_defaults():
    config = parse_config({"bus": None, "tasks": None, "run": {"seed": None}})
    assert config.to_dict() == parse_config({}).to_dict()


# -- commands -----------------------------------------------------------


def test_run_success_exit_zero(runner, tmp_path):
    traj = tmp_path / "t.jsonl"
    result = runner.invoke(
        main, ["run", "--task", "rendezvous", "--trajectory", str(traj)]
    )
    assert result.exit_code == 0, result.output
    assert result.output.startswith("success")
    assert traj.exists()


def test_run_unknown_profile_exits_three(runner):
    result = runner.invoke(main, ["run", "--profile", "nope"])
    assert result.exit_code == 3
    assert "nope" in result.output


def test_run_task_failure_exits_two(runner):
    result = runner.invoke(
        main, ["run", "--task", "rendezvous", "--profile", "vision-only"]
    )
    assert result.exit_code == 2
    assert result.output.startswith("failure")


def test_run_prospective_logs_plan_select_pairs(runner, tmp_path):
    traj = tmp_path / "t.jsonl"
    result = runner.invoke(
        main, ["run", "--mode", "prospective", "--trajectory", str(traj)]
    )
    assert result.exit_code == 0
    lines = [json.loads(l) for l in traj.read_text().splitlines()]
    steps = [l for l in lines if "step" in l]
    assert steps and all(s["provider_calls"] == 2 for s in steps)


def test_ablate_table_shape(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(
        main, ["ablate", "--tasks", "rendezvous,search", "--out", str(out)]
    )
    assert result.exit_code == 0
    assert "vision-only" in result.output and "FAIL" in result.output
    assert "hybrid-nav" in result.output and "PASS" in result.output
    records = json.loads(out.read_text())["ablation"]
    assert len(records) == 6  # 3 profiles x 2 tasks
    assert all(r["error"] is None for r in records)
    by_profile = {
        (r["profile"], r["task"]): r["passed"] for r in records
    }
    assert not by_profile[("vision-only", "rendezvous")]
    assert by_profile[("hybrid-nav", "rendezvous")]


def test_sweep_reports_pass_count(runner):
    result = runner.invoke(main, ["sweep", "--task", "rendezvous", "--runs", "3"])
    assert result.exit_code == 0
    assert "pass count: 3/3" in result.output


def test_evolve_and_skills_commands(runner, tmp_path):
    ws = tmp_path / "ws"
    config = tmp_path / "c.yaml"
    config.write_text(
        "provider:\n  kind: scripted\n  options:\n"
        "    max_forward_step: 6.0\n    forward_fraction: 0.5\n"
    )
    result = runner.invoke(
        main,
        ["evolve", "--task", "rendezvous", "--rounds", "3",
         "--workspace", str(ws), "--config", str(config)],
    )
    assert result.exit_code == 0, result.output
    assert "learned skills:" in result.output
    assert "evolved:ep-000001" in result.output

    listed = runner.invoke(main, ["skills", "list", "--workspace", str(ws)])
    assert listed.exit_code == 0
    assert "learned" in listed.output

    audit = runner.invoke(main, ["skills", "audit", "--workspace", str(ws)])
    assert audit.exit_code == 0
    assert "accepted" in audit.output


def test_skills_list_and_audit_leave_an_empty_workspace_empty(runner, tmp_path):
    ws = tmp_path / "ws"
    ws.mkdir()
    listed = runner.invoke(main, ["skills", "list", "--workspace", str(ws)])
    assert listed.exit_code == 0, listed.output
    audit = runner.invoke(main, ["skills", "audit", "--workspace", str(ws)])
    assert audit.exit_code == 0, audit.output
    assert "audit log is empty" in audit.output
    assert list(ws.iterdir()) == []


def test_skills_list_on_a_missing_workspace_fails_and_creates_nothing(runner, tmp_path):
    missing = tmp_path / "no-such-ws"
    listed = runner.invoke(main, ["skills", "list", "--workspace", str(missing)])
    assert listed.exit_code != 0
    assert not missing.exists()


@pytest.mark.parametrize("command", [["run"], ["evolve", "--rounds", "1"]])
def test_workspace_that_is_a_file_exits_three_before_any_episode(runner, tmp_path,
                                                                 command):
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    result = runner.invoke(main, command + ["--workspace", str(afile)])
    assert result.exit_code == 3, result.output
    assert "configuration error" in result.output
    assert "not a directory" in result.output
    assert afile.read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("command", [["run", "--evolve"], ["evolve", "--rounds", "1"]])
def test_malformed_history_exits_three_before_any_episode(runner, tmp_path, command):
    ws = tmp_path / "ws"
    ws.mkdir()
    (ws / "episodes.jsonl").write_text("not json\n", encoding="utf-8")
    result = runner.invoke(main, command + ["--workspace", str(ws)])
    assert result.exit_code == 3, result.output
    assert f"configuration error: {ws / 'episodes.jsonl'} line 1: " in result.output
    assert sorted(p.name for p in ws.iterdir()) == [".lock", "episodes.jsonl"]


_TOO_DEEP_LINE = "[" * 100_000 + "]" * 100_000  # beyond what json.loads can recurse


@pytest.mark.parametrize("command", [["run", "--evolve"], ["evolve", "--rounds", "1"]])
def test_a_history_line_nested_too_deeply_is_named(runner, tmp_path, command):
    ws = tmp_path / "ws"
    ws.mkdir()
    (ws / "episodes.jsonl").write_text(_TOO_DEEP_LINE + "\n", encoding="utf-8")
    result = runner.invoke(main, command + ["--workspace", str(ws)])
    assert result.exit_code == 3, result.output
    assert (f"configuration error: {ws / 'episodes.jsonl'} line 1: not JSON "
            "(nests too deeply)") in result.output


def malformed_learned_workspace(tmp_path):
    ws = tmp_path / "ws"
    (ws / "learned").mkdir(parents=True)
    (ws / "learned" / "x.v1.skill").write_text("name: x\ncategory: learned\n",
                                              encoding="utf-8")
    return ws


def test_skills_list_with_a_malformed_learned_skill_exits_three(runner, tmp_path):
    ws = malformed_learned_workspace(tmp_path)
    result = runner.invoke(main, ["skills", "list", "--workspace", str(ws)])
    assert result.exit_code == 3, result.output
    assert "configuration error: " in result.output
    assert "x.v1.skill" in result.output


def test_skills_audit_with_a_malformed_audit_log_exits_three(runner, tmp_path):
    ws = tmp_path / "ws"
    (ws / "learned").mkdir(parents=True)
    (ws / "learned" / "audit.log").write_text('{"verdict": "accepted"}\n[]\n',
                                              encoding="utf-8")
    result = runner.invoke(main, ["skills", "audit", "--workspace", str(ws)])
    assert result.exit_code == 3, result.output
    assert "audit.log line 2: not a JSON object" in result.output


@pytest.mark.parametrize("command", [["run"], ["evolve", "--rounds", "1"]])
def test_malformed_learned_skill_exits_three_before_any_episode(runner, tmp_path,
                                                                command):
    ws = malformed_learned_workspace(tmp_path)
    result = runner.invoke(main, command + ["--workspace", str(ws)])
    assert result.exit_code == 3, result.output
    assert "configuration error: " in result.output
    assert "x.v1.skill" in result.output
    assert sorted(p.name for p in ws.iterdir()) == [".lock", "learned"]


# -- one writer per workspace --------------------------------------------

_HOLD_LOCK = ("import fcntl, sys; lock = open(sys.argv[1], 'a'); "
              "fcntl.flock(lock, fcntl.LOCK_EX); print('held', flush=True); sys.stdin.read()")


@contextlib.contextmanager
def lock_held_by_another_process(workspace):
    """Another process holds ``workspace``'s lock until the block ends."""
    workspace.mkdir(parents=True, exist_ok=True)
    with subprocess.Popen([sys.executable, "-c", _HOLD_LOCK, str(workspace / ".lock")],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as holder:
        assert holder.stdout.readline() == "held\n"
        yield
    assert holder.returncode == 0


@pytest.mark.parametrize("command", [["run"], ["run", "--evolve"], ["evolve", "--rounds", "1"]])
def test_a_second_writer_exits_three_and_writes_nothing(runner, tmp_path, command):
    ws = tmp_path / "ws"
    command = command + ["--workspace", str(ws)]
    with lock_held_by_another_process(ws):
        result = runner.invoke(main, command)
        assert result.exit_code == 3, result.output
        assert f"configuration error: workspace {str(ws)!r} is in use" in result.output
        assert sorted(p.name for p in ws.iterdir()) == [".lock"]
    result = runner.invoke(main, command)  # the lock is free again
    assert result.exit_code == 0, result.output
    assert "episodes.jsonl" in {p.name for p in ws.iterdir()}


def test_skills_list_and_audit_take_no_lock(runner, tmp_path):
    ws = tmp_path / "ws"
    assert runner.invoke(main, ["evolve", "--rounds", "1", "--workspace", str(ws)]).exit_code == 0
    with lock_held_by_another_process(ws):
        for command in (["skills", "list"], ["skills", "audit"]):
            result = runner.invoke(main, command + ["--workspace", str(ws)])
            assert result.exit_code == 0, result.output


def test_a_writer_holds_the_lock_until_the_command_ends(runner, tmp_path, monkeypatch):
    ws = tmp_path / "ws"
    seen = []

    def try_lock():
        with open(ws / ".lock", "a", encoding="utf-8") as other:
            try:
                fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                return "held"
            return "free"

    run_episode = cli.run_episode

    def checking(*args, **kwargs):
        seen.append(try_lock())
        return run_episode(*args, **kwargs)

    monkeypatch.setattr(cli, "run_episode", checking)
    result = runner.invoke(main, ["run", "--workspace", str(ws)])
    assert result.exit_code == 0, result.output
    assert seen == ["held"]
    assert try_lock() == "free"


def test_report_recomputes_outcome(runner, tmp_path):
    traj = tmp_path / "t.jsonl"
    assert runner.invoke(
        main, ["run", "--task", "rendezvous", "--trajectory", str(traj)]
    ).exit_code == 0
    result = runner.invoke(main, ["report", "--trajectory", str(traj)])
    assert result.exit_code == 0
    assert result.output.startswith("success")


_STEP = '"step": 0, "observation": {}, "call": {"tool": "x", "args": {}}, "result": {}'


@pytest.mark.parametrize("bad_line,problem", [
    ("not json", "line 2: not JSON (Expecting value)"),
    ('{"stepp": 0}', "line 2: not a trajectory record (StepRecord.__init__() got an "
                     "unexpected keyword argument 'stepp')"),
    ("[1, 2]", "line 2: not a trajectory record"),
    ('{"header": 5}', "line 2: not a trajectory record"),
    ('{"step": 0, "observation": 5, "call": {}, "result": {}}',
     "line 2: not a trajectory record (observation must be dict, got 5)"),
    ('{"step": 0, "observation": {}, "call": {}, "result": {}}',
     "line 2: not a trajectory record (call.tool must be str, got None)"),
    ('{"step": 0, "observation": {}, "call": {"tool": "x", "args": []}, "result": {}}',
     "line 2: not a trajectory record (call.args must be dict, got [])"),
    ('{"step": "0", "observation": {}, "call": {"tool": "x", "args": {}}, "result": {}}',
     "line 2: not a trajectory record (step must be int, got '0')"),
    ("{" + _STEP + ', "provider_calls": true}',
     "line 2: not a trajectory record (provider_calls must be int, got True)"),
    ("{" + _STEP.replace('"result": {}', '"result": []') + "}",
     "line 2: not a trajectory record (result must be dict, got [])"),
    ("{" + _STEP + ', "inner": {}}', "line 2: not a trajectory record (inner must be list"),
    ("{" + _STEP + ', "memory_hash": 7}',
     "line 2: not a trajectory record (memory_hash must be str, got 7)"),
    pytest.param(_TOO_DEEP_LINE, "line 2: not JSON (nests too deeply)", id="nests-too-deeply"),
    # a later header replaces the first
    ('{"header": {}}', "header field 'task_kind' is missing or not a string"),
    ('{"header": {"task_kind": "rendezvous", "condition": "C1"}}',
     "header field 'satellite_id' is missing or not a string"),
    ('{"header": {"task_kind": "rendezvous", "satellite_id": "CAPSTONE"}}',
     "header field 'condition' is missing or not a string"),
    ('{"header": {"task_kind": "rendezvous", "satellite_id": ["X"], "condition": "C1"}}',
     "header field 'satellite_id' is missing or not a string"),
])
def test_report_names_the_file_and_line_of_a_bad_log(runner, tmp_path, bad_line, problem):
    traj = tmp_path / "t.jsonl"
    assert runner.invoke(
        main, ["run", "--task", "rendezvous", "--trajectory", str(traj)]
    ).exit_code == 0
    lines = traj.read_text(encoding="utf-8").splitlines()
    lines.insert(1, bad_line)
    traj.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["report", "--trajectory", str(traj)])
    assert result.exit_code == 3, result.output
    assert f"configuration error: {traj} {problem}" in result.output


def test_report_names_a_log_without_a_header_and_an_unknown_satellite(runner, tmp_path):
    traj = tmp_path / "t.jsonl"
    traj.write_text('{"ended_by": "timeout"}\n', encoding="utf-8")
    result = runner.invoke(main, ["report", "--trajectory", str(traj)])
    assert result.exit_code == 3, result.output
    assert (f"configuration error: {traj} header field 'task_kind' is missing or not a "
            "string") in result.output
    header = {"task_kind": "rendezvous", "satellite_id": "NOPE", "condition": "C1"}
    traj.write_text(json.dumps({"header": header}) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["report", "--trajectory", str(traj)])
    assert result.exit_code == 3, result.output
    assert ("configuration error: unknown satellite 'NOPE'; the catalog has "
            f"{sorted(load_satellite_catalog())}") in result.output


def test_full_cross_product_smoke(runner):
    for task in ("rendezvous", "search"):
        for mode in ("standard", "react", "prospective"):
            result = runner.invoke(
                main, ["run", "--task", task, "--mode", mode, "--seed", "1"]
            )
            assert result.exit_code == 0, (task, mode, result.output)


def _config(tmp_path, text):
    path = tmp_path / "c.yaml"
    path.write_text(text)
    return str(path)


def test_ablate_unknown_condition_exits_three(runner):
    result = runner.invoke(main, ["ablate", "--condition", "C9"])
    assert result.exit_code == 3
    assert "C9" in result.output


@pytest.mark.parametrize("args", [
    ["sweep", "--runs", "-2"],
    ["sweep", "--runs", "0"],
    ["evolve", "--rounds", "0", "--workspace", "ws"],
])
def test_counts_below_one_exit_three(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    assert "configuration error" in result.output


def test_every_episode_command_uses_skills_root(runner, tmp_path):
    skills = tmp_path / "skills"
    shutil.copytree(resources.files("proxagent.data").joinpath("skills"), skills)
    (skills / "task" / "approach.skill").unlink()
    config = _config(tmp_path, f"skills_root: {skills}\n")

    result = runner.invoke(main, ["run", "--config", config])
    assert result.exit_code == 3
    assert "approach" in result.output
    result = runner.invoke(main, ["sweep", "--config", config, "--runs", "1"])
    assert result.exit_code == 3
    assert "approach" in result.output
    result = runner.invoke(main, ["ablate", "--config", config, "--tasks", "rendezvous",
                                  "--profiles", "hybrid-nav"])
    assert result.exit_code == 3
    assert "approach" in result.output


def test_a_skill_sentence_ending_in_a_directive_runs(runner, tmp_path):
    skills = tmp_path / "skills"
    shutil.copytree(resources.files("proxagent.data").joinpath("skills"), skills)
    with open(skills / "core" / "safety-constraints.skill", "a", encoding="utf-8") as fh:
        fh.write("Never exceed max_forward_step: 2.0.\n")
    config = _config(tmp_path, f"skills_root: {skills}\n")
    result = runner.invoke(main, ["run", "--config", config])
    assert result.exit_code == 0, result.output


def _broken_skills_root(tmp_path, broken):
    skills = tmp_path / "skills"
    if broken == "not a directory":
        skills.write_text("", encoding="utf-8")
        return skills
    shutil.copytree(resources.files("proxagent.data").joinpath("skills"), skills)
    (skills / "helper" / "broken.skill").write_text(
        "name: broken\ncategory: helper\n", encoding="utf-8")
    return skills


@pytest.mark.parametrize("broken", ["malformed file", "not a directory"])
@pytest.mark.parametrize("command", [
    ["run"], ["sweep", "--runs", "2"], ["ablate"], ["evolve", "--rounds", "2"],
])
def test_broken_skills_root_exits_three_before_any_episode(runner, tmp_path, command,
                                                           broken):
    skills = _broken_skills_root(tmp_path, broken)
    config = _config(tmp_path, f"skills_root: {skills}\n")
    workspace = tmp_path / "ws"
    if command[0] in ("run", "evolve"):
        command = command + ["--workspace", str(workspace)]
    result = runner.invoke(main, command + ["--config", config])
    assert result.exit_code == 3, result.output
    assert "configuration error" in result.output
    assert ("broken.skill" if broken == "malformed file" else "not a directory") in result.output
    assert not workspace.exists()


def test_skills_root_is_loaded_once_per_command(runner, tmp_path, monkeypatch):
    skills = tmp_path / "skills"
    shutil.copytree(resources.files("proxagent.data").joinpath("skills"), skills)
    config = _config(tmp_path, f"skills_root: {skills}\n")
    loads = []
    load = SkillCatalog.load.__func__

    def counting_load(cls, root):
        loads.append(str(root))
        return load(cls, root)

    monkeypatch.setattr(SkillCatalog, "load", classmethod(counting_load))
    result = runner.invoke(main, ["sweep", "--config", config, "--runs", "3"])
    assert result.exit_code == 0, result.output
    assert loads == [str(skills)]


@pytest.mark.parametrize("command,key", [
    (["sweep", "--runs", "2"], "sweep"),
    (["ablate", "--tasks", "rendezvous", "--profiles", "hybrid-nav"], "ablation"),
])
def test_out_keeps_the_error_of_an_episode_that_raised(runner, tmp_path, monkeypatch,
                                                       command, key):
    def raising(*args, **kwargs):
        raise NoDefaults("default task skill 'approach' missing or disabled")

    monkeypatch.setattr("proxagent.cli.run_episode", raising)
    out = tmp_path / "out.json"
    result = runner.invoke(main, command + ["--out", str(out)])
    assert result.exit_code == 0, result.output
    records = json.loads(out.read_text())[key]
    assert records
    for record in records:
        assert record["outcome"] is None
        assert record["error"] == (
            "NoDefaults: default task skill 'approach' missing or disabled")


@pytest.mark.parametrize("command,key", [
    (["sweep", "--runs", "1"], "sweep"),
    (["ablate", "--tasks", "rendezvous", "--profiles", "hybrid-nav"], "ablation"),
    (["evolve", "--rounds", "1"], "rounds"),
])
def test_out_makes_its_directory_and_a_file_in_the_way_exits_three(runner, tmp_path,
                                                                   command, key):
    if command[0] == "evolve":
        command = command + ["--workspace", str(tmp_path / "ws")]
    out = tmp_path / "new" / "dir" / "out.json"
    result = runner.invoke(main, command + ["--out", str(out)])
    assert result.exit_code == 0, result.output
    text = out.read_text(encoding="utf-8")
    assert key in json.loads(text)
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)

    blocked = tmp_path / "new" / "dir" / "out.json" / "again.json"
    result = runner.invoke(main, command + ["--out", str(blocked)])
    assert result.exit_code == 3, result.output
    assert f"configuration error: cannot write --out {str(blocked)!r}: Not a directory" \
        in result.output


@pytest.mark.parametrize("command", [
    ["run"], ["sweep", "--runs", "1"], ["ablate"], ["evolve", "--rounds", "1"],
])
def test_unusable_bus_exits_three(runner, tmp_path, command):
    config = _config(
        tmp_path, "bus:\n  backend: redis\n  redis_url: redis://127.0.0.1:1/0\n")
    if command[0] == "evolve":
        command = command + ["--workspace", str(tmp_path / "ws")]
    result = runner.invoke(main, command + ["--config", config])
    assert result.exit_code == 3, result.output
    assert "configuration error" in result.output


@pytest.mark.parametrize("command", [["run"], ["sweep", "--runs", "1"]])
def test_unusable_provider_exits_three(runner, tmp_path, command):
    config = _config(
        tmp_path,
        "provider:\n  kind: remote\n  options:\n"
        "    endpoint: http://127.0.0.1:1\n    temperature: 0.9\n",
    )
    result = runner.invoke(main, command + ["--config", config])
    assert result.exit_code == 3, result.output
    assert "temperature" in result.output


@pytest.mark.parametrize("command", [
    ["run", "--satellite", "Sputnik"],
    ["sweep", "--runs", "1"],
    ["ablate", "--tasks", "rendezvous"],
    ["evolve", "--rounds", "1"],
])
def test_unknown_satellite_exits_three_before_any_episode(runner, tmp_path, command):
    config = _config(tmp_path, "run:\n  satellite: Sputnik\n")
    if command[0] == "evolve":
        command = command + ["--workspace", str(tmp_path / "ws")]
    result = runner.invoke(main, command + ["--config", config])
    assert result.exit_code == 3, result.output
    assert "unknown satellite 'Sputnik'" in result.output
    assert not (tmp_path / "ws").exists()


@pytest.mark.parametrize("options,problem", [
    ("max_forward_stepp: 6.0", "max_forward_stepp"),
    ("max_forward_step: '6'", "max_forward_step must be a finite number"),
])
def test_bad_scripted_provider_options_exit_three(runner, tmp_path, options, problem):
    config = _config(tmp_path, f"provider:\n  kind: scripted\n  options:\n    {options}\n")
    result = runner.invoke(main, ["run", "--config", config])
    assert result.exit_code == 3, result.output
    assert problem in result.output


def _mode_skill_unusable(tmp_path, how):
    skills = tmp_path / "skills"
    shutil.copytree(resources.files("proxagent.data").joinpath("skills"), skills)
    path = skills / "mode" / "prospective-select.skill"
    if how == "missing":
        path.unlink()
    else:
        skill = parse_skill_text(path.read_text(encoding="utf-8"))
        path.write_text(render_skill(replace(skill, enabled=False)), encoding="utf-8")
    return _config(tmp_path, f"skills_root: {skills}\nrun:\n  mode: prospective\n")


@pytest.mark.parametrize("how", ["missing", "disabled"])
@pytest.mark.parametrize("command", [
    ["run"], ["sweep", "--runs", "2"], ["ablate", "--tasks", "rendezvous"],
    ["evolve", "--rounds", "1"],
])
def test_unusable_mode_skill_exits_three_before_any_episode(runner, tmp_path, command, how):
    config = _mode_skill_unusable(tmp_path, how)
    workspace = tmp_path / "ws"
    if command[0] in ("run", "evolve"):
        command = command + ["--workspace", str(workspace)]
    result = runner.invoke(main, command + ["--config", config])
    assert result.exit_code == 3, result.output
    assert "configuration error" in result.output
    assert f"'prospective-select', which is {how}" in result.output
    assert not workspace.exists()


def test_remote_provider_option_typo_exits_three(runner, tmp_path):
    config = _config(
        tmp_path,
        "provider:\n  kind: remote\n  options:\n"
        "    endpoint: http://127.0.0.1:1\n    modle: gpt\n",
    )
    result = runner.invoke(main, ["run", "--config", config])
    assert result.exit_code == 3, result.output
    assert "unknown remote provider options: ['modle']" in result.output


@pytest.mark.parametrize("command,flags,runs", [
    (["sweep", "--runs", "2"], [], [("search", "C2", 3), ("search", "C2", 4)]),
    (["sweep", "--runs", "1"], ["--task", "rendezvous", "--condition", "C3", "--seed", "5"],
     [("rendezvous", "C3", 5)]),
    (["ablate", "--tasks", "search", "--profiles", "hybrid-nav"], [], [("search", "C2", 3)]),
    (["ablate", "--tasks", "search", "--profiles", "hybrid-nav"],
     ["--condition", "C1", "--seed", "5"], [("search", "C1", 5)]),
    (["evolve", "--rounds", "1"], [], [("search", "C2", 3)]),
    (["evolve", "--rounds", "1"], ["--task", "inspection"], [("inspection", "C2", 3)]),
])
def test_an_omitted_flag_leaves_the_config_file_in_force(runner, tmp_path, monkeypatch,
                                                        command, flags, runs):
    started = []
    reset = SimEnv.reset

    def recording_reset(self, task, seed=0):
        started.append((task.kind, task.condition.id, seed))
        return reset(self, task, seed=seed)

    monkeypatch.setattr(SimEnv, "reset", recording_reset)
    config = _config(tmp_path, "run:\n  task: search\n  condition: C2\n  seed: 3\n")
    if command[0] == "evolve":
        command = command + ["--workspace", str(tmp_path / "ws")]
    result = runner.invoke(main, command + flags + ["--config", config])
    assert result.exit_code == 0, result.output
    assert started == runs


@pytest.mark.parametrize("command", [["run"], ["sweep", "--runs", "1"]])
def test_a_config_file_nested_too_deeply_is_named(runner, tmp_path, command):
    config = _config(tmp_path, "run: " + "[" * 5000 + "]" * 5000 + "\n")
    result = runner.invoke(main, command + ["--config", config])
    assert result.exit_code == 3, result.output
    assert f"configuration {config!r} nests too deeply" in result.output


@pytest.mark.parametrize("command", [
    ["run"], ["sweep", "--runs", "1"], ["ablate"], ["evolve", "--rounds", "1"],
])
def test_a_bad_satellite_catalog_exits_three_naming_the_entry(runner, tmp_path, command):
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps([{"id": "X", "position": [0, 0, 0], "parts": [],
                                    "ground_truth_report": {}}]))
    config = _config(tmp_path, f"satellite_catalog: {catalog}\n")
    if command[0] == "evolve":
        command = command + ["--workspace", str(tmp_path / "ws")]
    result = runner.invoke(main, command + ["--config", config])
    assert result.exit_code == 3, result.output
    assert (f"satellite catalog {str(catalog)!r} entry 0 ('X'): "
            "missing field 'bounding_radius'") in result.output
    assert not (tmp_path / "ws").exists()
