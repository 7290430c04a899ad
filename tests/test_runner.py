import copy
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxagent import evolution, runner
from proxagent.bus import SENSOR_LIDAR, SENSOR_RGB, InProcessBus
from proxagent.evolution import REFLECTION_HISTORY, SkillStore
from proxagent.env import UnknownSatellite, evaluate, load_satellite_catalog, make_task
from proxagent.reasoning import (
    CALL_REFLECT,
    CALL_ROUTE,
    DecisionProvider,
    ScriptedPolicyConfig,
    ScriptedProvider,
)
from proxagent.runner import (
    EpisodeConfig,
    RunnerError,
    is_terminated,
    provider_view,
    run_campaign,
    run_episode,
)
from proxagent.skills import SkillCatalog
from proxagent.tools import (
    CATEGORY_PERCEPTION,
    ERR_ENV_TIMEOUT,
    ToolDispatcher,
    builtin_catalog,
)
from proxagent.trajectory import (
    ENDED_COLLISION,
    ENDED_ERROR,
    ENDED_TERMINATE,
    ENDED_TIMEOUT,
    StepRecord,
    Trajectory,
)


@pytest.fixture(scope="module")
def satellites():
    return load_satellite_catalog()


def config(kind="rendezvous", **over):
    fields = {"task": make_task(kind), "seed": 0, "episode_id": "ep-000001"}
    fields.update(over)
    return EpisodeConfig(**fields)


def test_config_validation():
    with pytest.raises(RunnerError):
        config(mode="contemplative")
    with pytest.raises(RunnerError):
        config(profile="everything")


def test_is_terminated_table():
    assert is_terminated("terminate", {}, 1, 50) == "terminate"
    assert is_terminated("set_position", {"collided": True}, 1, 50) == "collision"
    assert is_terminated("set_position", {}, 50, 50) == "timeout"
    assert is_terminated("zoom", {}, 10, 50) is None


def test_provider_view_masks_ground_truth():
    obs = {"true_range": 5.0, "lidar_range": 4.5, "visible": True}
    assert provider_view(obs, {"lidar_range"}) == {"lidar_range": 4.5, "visible": True}
    assert provider_view(obs, set()) == {"visible": True}


def test_rendezvous_episode_succeeds(satellites, tmp_path):
    path = tmp_path / "traj.jsonl"
    result = run_episode(config(trajectory_path=path), satellites=satellites)
    assert result.outcome.success is True
    assert 1.0 <= result.outcome.terminal_distance <= 3.0
    assert result.outcome.steps <= 50
    assert result.trajectory.ended_by == "terminate"
    # evaluation recomputed from the persisted log matches the live outcome
    reread = Trajectory.read(path)
    again = evaluate(reread, config().task, satellites["CAPSTONE"])
    assert again.to_dict() == result.outcome.to_dict()


def test_search_episode_sweeps_then_approaches(satellites):
    result = run_episode(config("search"), satellites=satellites)
    assert result.outcome.success is True
    tools_used = [s.call["tool"] for s in result.trajectory.steps]
    first_translation = tools_used.index("set_position")
    assert "set_attitude" in tools_used[:first_translation]  # sweep first
    assert tools_used[-1] == "terminate"


def test_inspection_episode_reports(satellites):
    result = run_episode(
        config("inspection", profile="hybrid-nav-code"), satellites=satellites
    )
    assert result.trajectory.ended_by == "terminate"
    assert result.outcome.score >= 60.0
    last = result.trajectory.steps[-1]
    assert set(last.call["args"]["report"]) == {
        "structure", "appendages", "surface", "condition", "scale",
    }


def test_vision_only_profile_fails_navigation(satellites):
    result = run_episode(config(profile="vision-only"), satellites=satellites)
    assert result.outcome.success is False


def test_exactly_one_committed_control_call_per_step(satellites):
    result = run_episode(config("search", mode="react"), satellites=satellites)
    control = {"set_position", "set_attitude", "set_exposure", "terminate"}
    for step in result.trajectory.steps:
        assert step.call["tool"] in control
        for inner in step.inner:
            assert inner["tool"] not in control


def test_trajectory_meta_names_the_setup(satellites):
    result = run_episode(config(mode="prospective"), satellites=satellites)
    meta = result.trajectory.meta
    assert meta["mode"] == "prospective"
    assert meta["provider"] == "scripted-policy"
    assert "approach" in meta["skills"]


def test_same_seed_same_trajectory_bytes(satellites, tmp_path):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        run_episode(config(trajectory_path=path, seed=5), satellites=satellites)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_different_seeds_differ(satellites, tmp_path):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for i, path in enumerate(paths):
        run_episode(config(trajectory_path=path, seed=i), satellites=satellites)
    assert paths[0].read_bytes() != paths[1].read_bytes()


def induced_provider():
    return ScriptedProvider(
        ScriptedPolicyConfig(max_forward_step=6.0, forward_fraction=0.5)
    )


def test_an_empty_satellite_catalog_is_not_replaced_by_the_shipped_one(tmp_path):
    with pytest.raises(UnknownSatellite):
        run_episode(config(), satellites={})
    with pytest.raises(UnknownSatellite):
        run_campaign(config(), 1, tmp_path / "ws", satellites={})


def test_campaign_lifecycle(satellites, tmp_path):
    report = run_campaign(
        config(), 5, tmp_path / "ws", provider_factory=induced_provider,
        satellites=satellites,
    )
    rounds = report.rounds
    assert rounds[0]["success"] is False
    assert rounds[0]["evolution"]["accepted"] is True
    for r in rounds[1:]:
        assert r["success"] is True
    learned = list((tmp_path / "ws" / "learned").glob("*.skill"))
    assert len(learned) == 1


def test_skill_learned_in_one_round_is_in_the_next_rounds_prompt(satellites, tmp_path):
    ws = tmp_path / "ws"
    report = run_campaign(config(), 2, ws, provider_factory=induced_provider,
                          satellites=satellites)
    assert report.rounds[0]["evolution"]["accepted"] is True
    (learned_name,) = SkillStore(ws).load_all()
    first, second = (Trajectory.read(ws / f"{row['episode_id']}.jsonl").meta["skills"]
                     for row in report.rounds)
    assert learned_name not in first
    assert learned_name in second


def test_campaign_reads_the_learned_store_once_per_campaign(satellites, tmp_path,
                                                           monkeypatch):
    reads = []
    load_all = SkillStore.load_all

    def counting_load_all(store):
        reads.append(store.learned_dir)
        return load_all(store)

    monkeypatch.setattr(SkillStore, "load_all", counting_load_all)
    report = run_campaign(config(), 3, tmp_path / "ws", provider_factory=induced_provider,
                          satellites=satellites)
    assert report.rounds[0]["evolution"]["accepted"] is True
    assert len(reads) == 1


def test_campaign_opens_the_history_for_reading_once(satellites, tmp_path, monkeypatch):
    ws = tmp_path / "ws"
    run_campaign(config(), 4, ws, satellites=satellites)
    history_reads = []

    def counting_open(file, mode="r", *args, **kwargs):
        if Path(file) == ws / "episodes.jsonl" and "r" in mode:
            history_reads.append(file)
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(evolution, "open", counting_open, raising=False)
    run_campaign(config(), 30, ws, provider_factory=induced_provider, satellites=satellites)
    assert len(history_reads) == 1
    monkeypatch.undo()
    assert len((ws / "episodes.jsonl").read_text().splitlines()) == 34


def test_campaign_store_history_matches_the_workspace_after_every_round(satellites,
                                                                       tmp_path):
    ws = tmp_path / "ws"
    store = SkillStore(ws)
    tails = []

    def checking_factory():
        tails.append((store.history(), SkillStore(ws).history()))
        return induced_provider()

    report = run_campaign(config(), 5, ws, provider_factory=checking_factory,
                          satellites=satellites, store=store)
    tails.append((store.history(), SkillStore(ws).history()))
    assert report.rounds[0]["evolution"]["accepted"] is True
    assert [len(fresh) for _kept, fresh in tails] == [0, 1, 2, 3, 3, 3]
    for kept, fresh in tails:
        assert kept == fresh


def test_history_handed_to_reflection_cannot_change_the_store(satellites, tmp_path):
    seen = []

    class MutatingReflector(DecisionProvider):
        identity = "mutating-reflector"

        def __init__(self):
            self.inner = induced_provider()

        def reset_episode(self, episode_id=""):
            self.inner.reset_episode(episode_id)

        def complete(self, request):
            if request.call_kind == CALL_REFLECT:
                history = request.extra["history"]
                seen.append(copy.deepcopy(history))
                for record in history:
                    record["movement"].clear()
                    record["perception"].append({"step": -1})
                    record["notes"].append("tampered")
                history.clear()
            return self.inner.complete(request)

    ws = tmp_path / "ws"
    run_campaign(config(), 5, ws, provider_factory=MutatingReflector, satellites=satellites)
    lines = (ws / "episodes.jsonl").read_text(encoding="utf-8").splitlines()
    recorded = [json.loads(line) for line in lines]
    assert seen == [recorded[max(0, i - REFLECTION_HISTORY):i] for i in range(5)]


def test_a_store_of_another_workspace_is_refused(satellites, tmp_path):
    other = SkillStore(tmp_path / "other")
    with pytest.raises(RunnerError):
        run_episode(config(workspace=tmp_path / "ws"), satellites=satellites, store=other)
    with pytest.raises(RunnerError):
        run_episode(config(), satellites=satellites, store=other)
    with pytest.raises(RunnerError):
        run_campaign(config(), 1, tmp_path / "ws", satellites=satellites, store=other)
    assert not (tmp_path / "ws").exists() and not other.workspace.exists()


def test_shipped_catalog_is_loaded_once_per_process(satellites, monkeypatch):
    loads = []
    load = SkillCatalog.load.__func__

    def counting_load(cls, root):
        loads.append(root)
        return load(cls, root)

    monkeypatch.setattr(SkillCatalog, "load", classmethod(counting_load))
    runner.shipped_catalog.cache_clear()
    try:
        for seed in range(3):
            for kind in ("rendezvous", "search", "inspection"):
                run_episode(config(kind, seed=seed), satellites=satellites)
    finally:
        runner.shipped_catalog.cache_clear()
    assert len(loads) == 1


def test_campaign_rounds_inherit_the_base_config(satellites, tmp_path):
    class CountingRouter(DecisionProvider):
        def __init__(self):
            self.routes = 0

        def complete(self, request):
            if request.call_kind == CALL_ROUTE:
                self.routes += 1
            return ""  # malformed: routing falls back to the defaults

    router = CountingRouter()
    base = config(profile="hybrid-nav-code", mode="react", seed=7, router=router)
    report = run_campaign(base, 3, tmp_path / "ws", satellites=satellites)
    assert [r["episode_id"] for r in report.rounds] == [
        "ep-000001", "ep-000002", "ep-000003"]
    for row in report.rounds:
        meta = Trajectory.read(tmp_path / "ws" / f"{row['episode_id']}.jsonl").meta
        assert meta["episode_id"] == row["episode_id"]
        assert (meta["profile"], meta["mode"], meta["seed"]) == (
            "hybrid-nav-code", "react", 7)
    assert router.routes == 3


def test_campaign_without_evolution_leaves_no_skills(satellites, tmp_path):
    ws = tmp_path / "ws"
    for i in range(2):
        run_episode(
            config(episode_id=f"ep-{i + 1:06d}", workspace=ws),
            satellites=satellites,
        )
    assert list((ws / "learned").glob("*.skill")) == []
    assert not (ws / "learned").exists()
    assert (ws / "episodes.jsonl").exists()  # history still recorded


def test_campaign_records_each_round_in_the_store_history(satellites, tmp_path):
    ws = tmp_path / "ws"
    run_campaign(config(), 2, ws, satellites=satellites)
    assert [s.episode_id for s in SkillStore(ws).history()] == ["ep-000001", "ep-000002"]


def test_campaigns_on_one_workspace_number_rounds_after_its_episodes(satellites, tmp_path):
    ws = tmp_path / "ws"
    first = run_campaign(config(), 2, ws, provider_factory=induced_provider,
                         satellites=satellites)
    kept = (ws / "ep-000001.jsonl").read_bytes()
    second = run_campaign(config(), 1, ws, satellites=satellites)
    store = SkillStore(ws)
    third = run_campaign(config(), 2, ws, satellites=satellites, store=store)
    fourth = run_campaign(config(), 1, ws, satellites=satellites, store=store)
    ids = [f"ep-{i:06d}" for i in range(1, 7)]
    assert [row["episode_id"] for report in (first, second, third, fourth)
            for row in report.rounds] == ids
    history = (ws / "episodes.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["episode_id"] for line in history] == ids
    assert sorted(path.name for path in ws.glob("ep-*.jsonl")) == [f"{i}.jsonl" for i in ids]
    assert (ws / "ep-000001.jsonl").read_bytes() == kept


def test_episodes_back_to_back_on_one_bus_match_fresh_buses(satellites, tmp_path):
    shared = InProcessBus()
    for index, (kind, seed) in enumerate(
        [("rendezvous", 0), ("search", 1), ("inspection", 2), ("rendezvous", 3)]
    ):
        episode = config(kind, seed=seed, episode_id=f"ep-{index:06d}")
        on_shared = run_episode(episode, satellites=satellites, backend=shared)
        on_fresh = run_episode(episode, satellites=satellites)
        assert [s.to_json() for s in on_shared.trajectory.steps] == [
            s.to_json() for s in on_fresh.trajectory.steps]

    for ws, backend in ((tmp_path / "shared", InProcessBus()), (tmp_path / "fresh", None)):
        run_campaign(config(), 3, ws, satellites=satellites, backend=backend)
    for name in ("ep-000001.jsonl", "ep-000002.jsonl", "ep-000003.jsonl"):
        assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


class _ReadLog(InProcessBus):
    """The in-process bus, logging the key of every read."""

    def __init__(self):
        super().__init__()
        self.reads = []

    def get_latest(self, key):
        self.reads.append(key)
        return super().get_latest(key)


def test_each_step_reads_the_bus_three_times(satellites):
    catalog = builtin_catalog()
    perception_calls = 0
    for mode in ("standard", "react", "prospective"):
        for condition in ("C1", "C2"):  # C2 starts underexposed: perception calls
            backend = _ReadLog()
            result = run_episode(config(mode=mode, task=make_task("rendezvous",
                                                                  condition=condition)),
                                 satellites=satellites, backend=backend)
            # camera and LiDAR before step 0; in each step, both for each
            # perception call, then after a motion or exposure command the
            # sequence before publishing, the awaited camera record and the
            # LiDAR, and after terminate the latest camera record and LiDAR
            want = [SENSOR_RGB, SENSOR_LIDAR]
            for step in result.trajectory.steps:
                for inner in step.inner:
                    if catalog.get(inner["tool"]).category == CATEGORY_PERCEPTION:
                        want += [SENSOR_RGB, SENSOR_LIDAR]
                        perception_calls += 1
                if step.call["tool"] == "terminate":
                    want += [SENSOR_RGB, SENSOR_LIDAR]
                else:
                    want += [SENSOR_RGB, SENSOR_RGB, SENSOR_LIDAR]
            assert backend.reads == want
            assert result.trajectory.ended_by == ENDED_TERMINATE
    assert perception_calls


def test_the_observation_after_a_command_is_the_latest_one(satellites):
    """The step's observation built from the control result equals a fresh
    read of the latest camera record and LiDAR, for every committed call."""
    latest = []
    observation_after = ToolDispatcher.observation_after

    def checked(self, result):
        obs = observation_after(self, result)
        latest.append(obs == self.latest_observation())
        return obs

    for mode in ("standard", "react", "prospective"):
        for kind, condition in (("rendezvous", "C3"), ("search", "C2")):
            latest.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ToolDispatcher, "observation_after", checked)
                result = run_episode(
                    config(mode=mode, task=make_task(kind, condition=condition)),
                    satellites=satellites)
            assert latest == [True] * len(result.trajectory.steps)


class _NanReport(DecisionProvider):
    """Ends every inspection with a report holding a NaN."""

    kind = "scripted"
    identity = "nan-report"

    def complete(self, request):
        if request.call_kind == CALL_ROUTE:
            return ""
        return 'TOOL terminate ARGS {"report": {"structure": NaN}}'


def test_non_finite_report_never_reaches_the_trajectory(satellites, tmp_path):
    path = tmp_path / "traj.jsonl"
    result = run_episode(config("inspection", trajectory_path=path),
                         provider=_NanReport(), satellites=satellites)
    assert result.trajectory.ended_by == "error"
    text = path.read_text()
    assert "NaN" not in text and "Infinity" not in text


def test_trajectory_never_writes_nan_or_infinity(tmp_path):
    step = StepRecord(step=0, observation={"true_range": float("inf")}, call={}, result={})
    with pytest.raises(ValueError):
        step.to_json()
    with pytest.raises(ValueError):
        Trajectory(meta={"seed": float("nan")}).write(tmp_path / "t.jsonl")


def test_the_trajectory_directory_is_made_by_the_write_not_the_runner(satellites, tmp_path,
                                                                       monkeypatch):
    path = tmp_path / "runs" / "nested" / "t.jsonl"
    parent_existed = []
    write = Trajectory.write

    def spy(self, where):
        parent_existed.append(where.parent.exists())
        write(self, where)

    monkeypatch.setattr(Trajectory, "write", spy)
    result = run_episode(config(trajectory_path=path), satellites=satellites)
    assert parent_existed == [False]
    assert Trajectory.read(path).steps == result.trajectory.steps


def test_a_trajectory_write_makes_a_directory_only_when_it_is_missing(tmp_path, monkeypatch):
    made = []
    mkdir = Path.mkdir

    def counted(self, *args, **kwargs):
        made.append(self)
        mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counted)
    step = StepRecord(step=0, observation={"range": 1.5}, call={"tool": "t"}, result={})
    trajectory = Trajectory(steps=[step, step], ended_by="terminate", meta={"seed": 1})
    trajectory.write(tmp_path / "t.jsonl")
    assert made == []
    trajectory.write(tmp_path / "a" / "b" / "t.jsonl")
    assert made[0] == tmp_path / "a" / "b"
    assert (tmp_path / "a" / "b" / "t.jsonl").read_bytes() == (tmp_path / "t.jsonl").read_bytes()


def test_a_failed_trajectory_write_leaves_nothing_behind(tmp_path):
    with pytest.raises(ValueError):
        Trajectory(meta={"seed": float("nan")}).write(tmp_path / "new" / "t.jsonl")
    assert not (tmp_path / "new").exists()
    (tmp_path / "file").write_text("")
    with pytest.raises(OSError):
        Trajectory().write(tmp_path / "file" / "t.jsonl")


# -- boundary: any provider output -----------------------------------------

_SPECIAL_VALUES = st.sampled_from([
    "1e400", "-1e400", "NaN", "Infinity", "-Infinity", "true", "false", "null", "[]",
    '{"structure": NaN}', '"1e308 * 10"', '"1 / 0"', '"2 ** 8"', '"(1"',
])
_NUMBERS = st.one_of(
    st.integers(-3, 3).map(str), st.floats(-30, 30).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e308", "-1e308", "9" * 400, "5e-324"]),
)
_DEPTHS = st.one_of(st.integers(1, 6000), st.sampled_from([990, 2000, 3000, 5000]))
_DEEP_VALUES = st.one_of(  # deep nesting and long operator chains
    _DEPTHS.map(lambda n: "[" * n + "]" * n),
    _DEPTHS.map(lambda n: '{"a": ' * n + "1" + "}" * n),
    _DEPTHS.map(lambda n: json.dumps("1+" * n + "1")),
)
_VALUES = st.one_of(_NUMBERS, st.text(max_size=8).map(json.dumps), _SPECIAL_VALUES,
                    _DEEP_VALUES)


@st.composite
def _tool_call(draw):
    """``TOOL <name> ARGS <json>``: mostly a catalog tool with most of its
    parameters, numbers mostly finite, sometimes an unknown tool, an extra
    key or args that are not JSON."""
    tool = draw(st.sampled_from(list(builtin_catalog().values())))
    name = tool.name if draw(st.integers(0, 9)) else "self_destruct"
    keys = [key for key in tool.params if draw(st.integers(0, 7))]
    if not draw(st.integers(0, 7)):
        keys.append("x")
    numeric = {key for key, meta in tool.params.items() if meta["type"] == "number"}
    args = "{" + ", ".join(
        f'"{key}": {draw(_NUMBERS if key in numeric and draw(st.integers(0, 4)) else _VALUES)}'
        for key in keys) + "}"
    if not draw(st.integers(0, 9)):
        args = draw(st.text(max_size=12))
    return f"TOOL {name} ARGS {args}"


_LINE = st.one_of(
    _tool_call(),
    st.builds("CANDIDATE {}: {} OUTCOME {} RISK {}".format, st.integers(0, 4), _tool_call(),
              st.text(max_size=8), st.sampled_from(["Low", "Medium", "High", "None"])),
    st.builds("SELECT {}".format, st.sampled_from(["0", "1", "2", "7", "-1", "x"])),
    st.text(max_size=40),
)
_OUTPUTS = st.lists(_LINE, max_size=4).map("\n".join)


class _OneString(DecisionProvider):
    """Answers every call, summaries included, with one drawn string."""

    identity = "one-string"
    kind = "fuzz"

    def __init__(self, output):
        self.output = output

    def complete(self, request):
        return self.output


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


@given(output=_OUTPUTS, kind=st.sampled_from(["rendezvous", "search", "inspection"]))
@settings(max_examples=150, deadline=None)
def test_any_provider_output_ends_an_episode_cleanly(satellites, tmp_path_factory, output,
                                                    kind):
    path = tmp_path_factory.getbasetemp() / "boundary.jsonl"
    for mode in ("standard", "react", "prospective"):
        episode = EpisodeConfig(task=make_task(kind, max_steps=7), mode=mode,
                                profile="hybrid-nav-code")
        result = run_episode(episode, provider=_OneString(output),
                             satellites=satellites)
        trajectory = result.trajectory
        assert trajectory.ended_by in {ENDED_TERMINATE, ENDED_TIMEOUT, ENDED_COLLISION,
                                       ENDED_ERROR}
        for step in trajectory.steps:
            assert all(math.isfinite(x) for x in _numbers(step.observation))
            assert step.result["error_kind"] != ERR_ENV_TIMEOUT
        trajectory.write(path)


class _Answers(DecisionProvider):
    """Answers the decide calls of an episode in order, then terminates."""

    identity = "answers"
    kind = "scripted"

    def __init__(self, *answers):
        self.answers = list(answers)

    def complete(self, request):
        return self.answers.pop(0) if self.answers else "TOOL terminate ARGS {}"


def test_a_translation_beyond_float_range_still_reaches_the_history(satellites, tmp_path):
    huge = 'TOOL set_position ARGS {"dx": 1e200, "dy": 0, "dz": 0}'
    ws = tmp_path / "ws"
    result = run_episode(config(workspace=ws, evolve=True), provider=_Answers(huge, huge),
                         satellites=satellites)
    assert result.trajectory.steps[0].result["error_kind"] == "StepLimitExceeded"
    (summary,) = SkillStore(ws).history()
    assert summary.max_attempted_translation == sys.float_info.max


def _refuse(constant):
    raise ValueError(f"{constant} is not strict JSON")


def test_a_translation_beyond_float_range_is_written_as_strict_json(satellites, tmp_path):
    huge = 'TOOL set_position ARGS {"dx": 1e200, "dy": 0, "dz": 0}'
    ws = tmp_path / "ws"
    run_episode(config(workspace=ws, evolve=True), provider=_Answers(huge, huge),
                satellites=satellites)
    (line,) = (ws / "episodes.jsonl").read_text(encoding="utf-8").splitlines()
    record = json.loads(line, parse_constant=_refuse)
    assert record["max_attempted_translation"] == sys.float_info.max


def test_a_long_operator_chain_ends_a_react_episode_cleanly(satellites):
    chain = 'TOOL eval_expr ARGS {"expression": "' + "1+" * 3000 + '1"}'
    episode = EpisodeConfig(task=make_task("rendezvous"), mode="react",
                            profile="hybrid-nav-code")
    result = run_episode(episode, provider=_Answers(chain), satellites=satellites)
    assert result.trajectory.ended_by == ENDED_TERMINATE
    (inner,) = result.trajectory.steps[0].inner
    assert inner["tool"] == "eval_expr"
    assert inner["result"]["error_kind"] == "ExpressionError"
