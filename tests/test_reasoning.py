import json
import re
from types import SimpleNamespace

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from proxagent import bus, reasoning
from proxagent.env import make_task
from proxagent.runner import EpisodeConfig, run_episode
from proxagent.tools import builtin_catalog, builtin_profiles, visible_tools

VISIBLE = visible_tools(builtin_catalog(), builtin_profiles()["hybrid-nav-code"])
CONTROL = [t for t in VISIBLE if t.category == "control"]


def obs(**over):
    record = {
        "visible": True, "bearing_az": 0.0, "bearing_el": 0.0,
        "angular_size": 4.0, "mean_brightness": 140.0, "exposure_gain": 1.0,
        "step_index": 0, "collided": False, "lidar_range": 10.0,
    }
    record.update(over)
    return record


def request(call_kind=reasoning.CALL_DECIDE, observation=None, prompt="",
            task_kind="rendezvous", inner_results=None, extra=None):
    return reasoning.ProviderRequest(
        call_kind=call_kind, prompt=prompt,
        observation=obs() if observation is None else observation,
        memory_text="", visible_tools=VISIBLE, task_kind=task_kind,
        inner_results=inner_results or [], extra=extra or {},
    )


# -- grammars -----------------------------------------------------------


def test_tool_call_grammar_round_trip():
    text = reasoning.format_tool_call("set_position", {"dx": 1.0, "dy": 0.0, "dz": 0.0})
    call = reasoning.parse_tool_call(text, VISIBLE)
    assert call.tool == "set_position"
    assert call.args == {"dx": 1.0, "dy": 0.0, "dz": 0.0}


@pytest.mark.parametrize(
    "text",
    [
        "",
        "please move forward",
        "TOOL warp_drive ARGS {}",
        'TOOL set_position ARGS {"dx": 1}',          # missing required args
        "TOOL set_position ARGS not-json",
        'TOOL set_position ARGS {"dx": true, "dy": 0, "dz": 0}',
        'TOOL set_position ARGS {"dx": NaN, "dy": 0, "dz": 0}',       # non-finite
        'TOOL set_position ARGS {"dx": Infinity, "dy": 0, "dz": 0}',
        'TOOL set_position ARGS {"dx": -Infinity, "dy": 0, "dz": 0}',
        'TOOL terminate ARGS {"report": {"structure": NaN}}',        # nested
        'TOOL terminate ARGS {"report": {"parts": [1, Infinity]}}',
    ],
)
def test_malformed_decide_outputs_raise(text):
    with pytest.raises(reasoning.MalformedOutput):
        reasoning.parse_tool_call(text, VISIBLE)


@pytest.mark.parametrize("report", [
    pytest.param("[" * 5000 + "]" * 5000, id="list-5000"),  # beyond json.loads
    pytest.param('{"a": ' * 990 + "1" + "}" * 990, id="object-990"),
])
def test_deeply_nested_args_are_malformed_output(report):
    text = 'TOOL terminate ARGS {"report": ' + report + "}"
    with pytest.raises(reasoning.MalformedOutput):
        reasoning.parse_tool_call(text, VISIBLE)
    provider = _QueueProvider([text, text])
    result = run_episode(EpisodeConfig(task=make_task("inspection")), provider=provider)
    assert result.trajectory.ended_by == "error"
    assert provider.calls == [reasoning.CALL_DECIDE] * 2  # the retry, then the end


def _padded(frames, fn):
    """``fn()`` called ``frames`` frames deeper than here."""
    return fn() if frames == 0 else _padded(frames - 1, fn)


def _nested_args(depth):
    """A terminate line whose args nest ``depth`` containers deep."""
    return ('TOOL terminate ARGS {"report": ' + '{"a": ' * (depth - 1) + "1"
            + "}" * depth)


_MOVE = '{"dx": 1.0, "dy": 0, "dz": 0}'


def _scanner_refuses(depth):
    """Whether json's scanner runs out of recursion on args ``depth`` deep."""
    try:
        json.loads(_nested_args(depth).split(" ARGS ")[1])
    except RecursionError:
        return True
    return False


@pytest.mark.parametrize("tool,args,verdict", [
    ("set_position", _MOVE, {"dx": 1.0, "dy": 0, "dz": 0}),
    ("set_position", _MOVE + "  \t ", {"dx": 1.0, "dy": 0, "dz": 0}),
    ("set_position", _MOVE + " {}",
     "args are not valid JSON: Extra data: line 1 column 31 (char 30)"),
    ("set_position", " " + _MOVE, {"dx": 1.0, "dy": 0, "dz": 0}),
    ("set_position", "\ufeff" + _MOVE, "args are not valid JSON: Unexpected UTF-8 BOM "
     "(decode using utf-8-sig): line 1 column 1 (char 0)"),
    ("set_position", _MOVE.replace("1.0", "NaN"), "arg 'dx' must be finite"),
    ("terminate", _nested_args(bus.MAX_JSON_DEPTH + 1).split(" ARGS ")[1],
     "arg report: nests more than 100 containers deep"),
    # the scanner refuses 5,000 deep where it recurses on the C stack
    # within Python's recursion limit (before 3.12); 100,000 deep everywhere
    ("terminate", _nested_args(5000).split(" ARGS ")[1],
     "args: nests more than 100 containers deep" if _scanner_refuses(5000)
     else "arg report: nests more than 100 containers deep"),
    ("terminate", _nested_args(100_000).split(" ARGS ")[1],
     "args: nests more than 100 containers deep"),
], ids=["well-formed", "trailing-blanks", "extra-data", "leading-blank", "bom", "nan",
        "101-deep", "5000-deep", "100000-deep"])
def test_args_verdicts_on_tool_and_candidate_lines(tool, args, verdict):
    # a tool line is stripped; a candidate line keeps blanks before OUTCOME
    lines = {
        "tool": (f"TOOL {tool} ARGS {args}",
                 lambda text: reasoning.parse_tool_call(text, VISIBLE).args),
        "candidate": (f"CANDIDATE 0: TOOL {tool} ARGS {args} OUTCOME closer RISK Low",
                      lambda text: reasoning.parse_candidates(text, VISIBLE)[0].action.args),
    }
    for text, parse in lines.values():
        if isinstance(verdict, dict):
            assert parse(text) == verdict
        else:
            with pytest.raises(reasoning.MalformedOutput) as refused:
                parse(text)
            assert str(refused.value) == verdict


@pytest.mark.parametrize("frames", [0, 300])
def test_args_nest_as_deeply_on_every_call_path(frames):
    deepest = bus.MAX_JSON_DEPTH
    call = _padded(frames, lambda: reasoning.parse_tool_call(_nested_args(deepest), VISIBLE))
    assert call.tool == "terminate"
    for depth in (deepest + 1, 701, 5000):
        with pytest.raises(reasoning.MalformedOutput,
                           match="nests more than 100 containers deep"):
            _padded(frames, lambda: reasoning.parse_tool_call(_nested_args(depth), VISIBLE))
    # brackets inside a string, an escaped quote before them included, do not nest
    for reason in ("[" * 500, '\\"' + "{" * 500):
        text = 'TOOL terminate ARGS {"reason": "' + reason + '"}'
        call = _padded(frames, lambda: reasoning.parse_tool_call(text, VISIBLE))
        assert call.args["reason"] == json.loads('"' + reason + '"')


def test_the_plans_fixed_candidates_are_their_args_formatted():
    hold = {"dyaw": 0.0, "dpitch": 0.0, "droll": 0.0}
    retreat = {"dx": -0.5, "dy": 0.0, "dz": 0.0}
    assert reasoning._HOLD_POSE_CANDIDATE == (
        f"CANDIDATE 1: {reasoning.format_tool_call('set_attitude', hold)} "
        "OUTCOME hold pose and reassess RISK Medium")
    assert reasoning._RETREAT_CANDIDATE == (
        f"CANDIDATE 2: {reasoning.format_tool_call('set_position', retreat)} "
        "OUTCOME retreat and widen the view RISK High")
    # an inspection plan without its evidence holds pose: both fixed lines
    plan = reasoning.ScriptedProvider().complete(
        request(reasoning.CALL_PLAN, task_kind="inspection"))
    assert plan.splitlines()[1:] == [reasoning._HOLD_POSE_CANDIDATE,
                                     reasoning._RETREAT_CANDIDATE]
    candidates = reasoning.parse_candidates(plan, CONTROL)
    assert [(c.action.tool, c.action.args) for c in candidates[1:]] == [
        ("set_attitude", hold), ("set_position", retreat)]


def test_candidate_grammar():
    text = "\n".join(
        [
            'CANDIDATE 0: TOOL set_position ARGS {"dx": 1.0, "dy": 0.0, "dz": 0.0} '
            "OUTCOME closes range RISK Low",
            'CANDIDATE 1: TOOL terminate ARGS {} OUTCOME ends episode RISK High',
        ]
    )
    candidates = reasoning.parse_candidates(text, CONTROL)
    assert len(candidates) == 2
    assert candidates[0].risk == "Low"
    assert candidates[1].action.tool == "terminate"


def test_candidates_capped_at_three():
    line = ('CANDIDATE {i}: TOOL terminate ARGS {{}} OUTCOME ends RISK Low')
    text = "\n".join(line.format(i=i) for i in range(6))
    assert len(reasoning.parse_candidates(text, CONTROL)) == 3


def test_select_grammar_bounds():
    assert reasoning.parse_select("SELECT 1", 3) == 1
    with pytest.raises(reasoning.MalformedOutput):
        reasoning.parse_select("SELECT 5", 3)
    with pytest.raises(reasoning.MalformedOutput):
        reasoning.parse_select("pick the first", 3)


# -- memory -------------------------------------------------------------


def make_step(i, tool="set_position"):
    return {"step": i, "tool": tool, "args": {"dx": 1.0, "dy": 0.0, "dz": 0.0},
            "result_digest": "{}", "bearing_az": float(i)}


def test_memory_window_and_eviction():
    memory = reasoning.MemoryState(n=5)
    for i in range(12):
        reasoning.update_memory(memory, make_step(i), None)
    assert len(memory.recent) == 5
    assert memory.stats["evicted"] == 7
    assert memory.stats["tool_counts"] == {"set_position": 7}
    assert memory.stats["net_dx"] == pytest.approx(7.0)
    assert "7 earlier steps compressed" in memory.long_term


def test_memory_text_deterministic_for_identical_histories():
    def build():
        memory = reasoning.MemoryState(n=3)
        for i in range(9):
            reasoning.update_memory(memory, make_step(i), None)
        return memory.memory_text()

    assert build() == build()


def test_memory_text_follows_every_update_including_evictions():
    memory = reasoning.MemoryState(n=3)
    texts = [memory.memory_text()]
    for i in range(8):
        reasoning.update_memory(memory, make_step(i), None)
        fresh = reasoning.MemoryState(
            n=memory.n, recent=list(memory.recent), long_term=memory.long_term
        )
        assert memory.memory_text() == fresh.memory_text()
        texts.append(memory.memory_text())
    assert len(set(texts)) == len(texts)   # every update changed the text
    assert "Long-term summary: 5 earlier steps compressed" in texts[-1]


def test_memory_text_renders_no_record_again(monkeypatch):
    memory = reasoning.MemoryState(n=3)
    for i in range(8):
        reasoning.update_memory(memory, make_step(i), None)
    expected = reasoning.MemoryState(
        n=memory.n, recent=list(memory.recent), long_term=memory.long_term
    ).memory_text()
    assert expected.count("\nstep ") == 3

    def no_dumps(*args, **kwargs):
        raise AssertionError("memory_text rendered a record")

    monkeypatch.setattr(reasoning, "dumps_sorted", no_dumps)
    assert memory.memory_text() == expected


def test_summarizer_failure_degrades_to_truncation():
    class Broken(reasoning.DecisionProvider):
        kind = "remote"

        def complete(self, request):
            raise RuntimeError("summarizer offline")

    memory = reasoning.MemoryState(n=1)
    for i in range(4):
        reasoning.update_memory(memory, make_step(i), Broken())
    assert len(memory.long_term) <= 2000
    assert memory.long_term  # raw-concatenation fallback kept something


@given(st.lists(st.integers(0, 4), min_size=0, max_size=200))
@settings(max_examples=30, deadline=None)
def test_memory_invariant_under_any_sequence(tool_ids):
    names = ["set_position", "set_attitude", "set_exposure", "zoom", "kb_lookup"]
    memory = reasoning.MemoryState(n=5)
    for i, t in enumerate(tool_ids):
        reasoning.update_memory(memory, make_step(i, tool=names[t]), None)
    assert len(memory.recent) <= 5
    assert memory.stats["evicted"] == max(0, len(tool_ids) - 5)


# -- scripted provider --------------------------------------------------


def test_scripted_exposure_priority():
    provider = reasoning.ScriptedProvider()
    raw = provider.complete(request(observation=obs(mean_brightness=14.0, exposure_gain=0.1)))
    call = reasoning.parse_tool_call(raw, VISIBLE)
    assert call.tool == "brightness_assess"  # diagnostic first
    raw = provider.complete(
        request(observation=obs(mean_brightness=14.0, exposure_gain=0.1),
                inner_results=[{"tool": "brightness_assess", "payload": {}}])
    )
    call = reasoning.parse_tool_call(raw, VISIBLE)
    assert call.tool == "set_exposure"
    assert call.args["gain_delta"] == pytest.approx(0.9)


def test_scripted_sweep_state_machine():
    provider = reasoning.ScriptedProvider()
    hidden = obs(visible=False, lidar_range=None, angular_size=0.0)
    deltas = []
    for _ in range(14):
        raw = provider.complete(request(observation=hidden))
        deltas.append(reasoning.parse_tool_call(raw, VISIBLE).args["dyaw"])
    assert deltas[:6] == [15.0] * 6        # up to +90
    assert deltas[6:] == [-15.0] * 8       # then back down toward -90
    assert max(abs(d) for d in deltas) <= 90.0


def test_scripted_terminates_inside_band():
    provider = reasoning.ScriptedProvider()
    raw = provider.complete(request(observation=obs(lidar_range=2.1)))
    call = reasoning.parse_tool_call(raw, VISIBLE)
    assert call.tool == "terminate"


def test_scripted_forward_step_is_range_proportional():
    provider = reasoning.ScriptedProvider()
    raw = provider.complete(request(observation=obs(lidar_range=5.0)))
    call = reasoning.parse_tool_call(raw, VISIBLE)
    assert call.tool == "set_position"
    assert call.args["dx"] == pytest.approx(1.0)  # 0.2 * range


def test_scripted_honors_learned_step_directives():
    provider = reasoning.ScriptedProvider(
        reasoning.ScriptedPolicyConfig(max_forward_step=6.0, forward_fraction=0.5)
    )
    prompt = (
        "keep steps within the actuator limit (max_forward_step: 2.0) and "
        "reduce close in (cap_forward_step: 0.5 within_range_m: 5.0)"
    )
    raw = provider.complete(request(observation=obs(lidar_range=15.0), prompt=prompt))
    assert reasoning.parse_tool_call(raw, VISIBLE).args["dx"] <= 2.0
    raw = provider.complete(request(observation=obs(lidar_range=4.0), prompt=prompt))
    assert reasoning.parse_tool_call(raw, VISIBLE).args["dx"] == pytest.approx(0.5)


@pytest.mark.parametrize("prompt, directives", [
    ("Never exceed max_forward_step: 2.0.", (2.0, None)),
    ("max_forward_step: 1.5. Then max_forward_step: .5, or max_forward_step: 3.",
     (0.5, None)),
    ("cap_forward_step: 0.5 within_range_m: 5.0.", (6.0, (0.5, 5.0))),
    ("cap_forward_step: 1. within_range_m: 4", (6.0, (1.0, 4.0))),
    ("max_forward_step: . and max_forward_step: none", (6.0, None)),  # no digits: ignored
    # any letter case, ":" or "=", a comma between the cap's two fields
    ("cap_forward_step: 0.5, within_range_m: 5.0", (6.0, (0.5, 5.0))),
    ("max_forward_step = 2.0", (2.0, None)),
    ("Max_Forward_Step: 2.0", (2.0, None)),
    ("CAP_FORWARD_STEP=1,WITHIN_RANGE_M = 4.", (6.0, (1.0, 4.0))),
])
def test_a_directive_is_one_number_even_at_the_end_of_a_sentence(prompt, directives):
    provider = reasoning.ScriptedProvider(reasoning.ScriptedPolicyConfig(max_forward_step=6.0))
    assert provider._directives(prompt) == directives


# ScriptedProvider._directives as it was before the parse was kept per prompt
# text and took other letter cases, "=" and a comma, kept as the reference:
# on the canonical form both must read the same directives.
_REFERENCE_DECIMAL = r"([0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
_REFERENCE_MAX_STEP = re.compile(r"max_forward_step:\s*" + _REFERENCE_DECIMAL)
_REFERENCE_CAP = re.compile(
    r"cap_forward_step:\s*" + _REFERENCE_DECIMAL + r"\s+within_range_m:\s*" + _REFERENCE_DECIMAL
)


def reference_directives(prompt, max_step):
    for match in _REFERENCE_MAX_STEP.finditer(prompt):
        max_step = min(max_step, float(match.group(1)))
    cap = None
    match = _REFERENCE_CAP.search(prompt)
    if match is not None:
        cap = (float(match.group(1)), float(match.group(2)))
    return max_step, cap


_NUMBER_TEXT = st.from_regex(r"[0-9]{1,3}(\.[0-9]{0,3})?|\.[0-9]{1,3}", fullmatch=True)
_BLANKS = st.text(" \t\n", max_size=2)
_DIRECTIVE_TEXT = st.one_of(
    st.builds("max_forward_step:{}{}".format, _BLANKS, _NUMBER_TEXT),
    st.builds("cap_forward_step:{}{} {}within_range_m:{}{}".format,
              _BLANKS, _NUMBER_TEXT, _BLANKS, _BLANKS, _NUMBER_TEXT),
)
# prose without ":" or "=", so every directive in a prompt is a canonical one
_PROSE = st.text(st.characters(blacklist_characters=":="), max_size=30)
_PROMPTS = st.lists(st.one_of(_DIRECTIVE_TEXT, _PROSE), max_size=6).map("".join)


@given(prompts=st.lists(_PROMPTS, min_size=1, max_size=3),
       order=st.lists(st.integers(0, 2), max_size=8),
       limit=st.floats(0.0, 10.0))
@settings(max_examples=200, deadline=None)
def test_per_prompt_directives_match_the_reference_scan(prompts, order, limit):
    provider = reasoning.ScriptedProvider(reasoning.ScriptedPolicyConfig(max_forward_step=limit))
    for index in order + list(range(len(prompts))):  # repeats are answered from the parse
        prompt = prompts[index % len(prompts)]
        assert provider._directives(prompt) == reference_directives(prompt, limit)


def test_scripted_vision_estimate_overshoots():
    provider = reasoning.ScriptedProvider()
    # without lidar the monocular estimate is biased 3x long
    estimate = provider._range_estimate(obs(lidar_range=None, angular_size=4.0))
    lidar = provider._range_estimate(obs(lidar_range=10.0))
    assert estimate > 2.5 * lidar


def test_remote_provider_rejects_hot_temperature():
    with pytest.raises(reasoning.ReasoningError):
        reasoning.RemoteProvider("http://localhost:9", "m", temperature=0.9)


# -- remote provider (requests.post stubbed: nothing leaves the process) --


class _Reply:
    def __init__(self, body, status=200):
        self.body, self.status = body, status

    def raise_for_status(self):
        if self.status >= 400:
            raise requests.HTTPError(f"{self.status} error")

    def json(self):
        return self.body


def _answer(content):
    return {"choices": [{"message": {"content": content}}]}


@pytest.fixture()
def posts(monkeypatch):
    """Stub ``requests.post``: it records each call's arguments in ``calls``
    and answers with ``reply``, or raises it if it is an exception."""
    stub = SimpleNamespace(reply=_Reply(_answer("SELECT 0")), calls=[])

    def post(url, **kwargs):
        stub.calls.append({"url": url, **kwargs})
        if isinstance(stub.reply, Exception):
            raise stub.reply
        return stub.reply

    monkeypatch.setattr(requests, "post", post)
    return stub


def _remote_request(**over):
    fields = dict(
        call_kind=reasoning.CALL_PLAN, prompt="You are the pilot.", observation=obs(),
        memory_text="step 0: lidar_range({}) -> {}", visible_tools=CONTROL,
        task_kind="rendezvous",
        inner_results=[{"tool": "lidar_range", "payload": {"range_m": 3.0}}],
        extra={"candidates": [{"index": 0}], "history": [1, 2]}, hint="no TOOL line found",
    )
    fields.update(over)
    return reasoning.ProviderRequest(**fields)


def test_a_request_without_observation_memory_or_tools_holds_empty_ones():
    a, b = (reasoning.ProviderRequest(reasoning.CALL_ROUTE, "p") for _ in range(2))
    assert a == reasoning.ProviderRequest(reasoning.CALL_ROUTE, "p", observation={},
                                          memory_text="", visible_tools=[])
    assert a.observation is not b.observation and a.visible_tools is not b.visible_tools


def test_remote_provider_sends_prompt_memory_observation_and_hints(posts):
    provider = reasoning.RemoteProvider("http://127.0.0.1:1/v1", "m", temperature=0.1,
                                        timeout=7.0, api_key="k")
    assert provider.complete(_remote_request()) == "SELECT 0"
    (sent,) = posts.calls
    assert sent["url"] == "http://127.0.0.1:1/v1"
    assert sent["timeout"] == 7.0
    assert sent["headers"] == {"Content-Type": "application/json", "Authorization": "Bearer k"}
    assert sent["json"]["model"] == "m" and sent["json"]["temperature"] == 0.1
    system, user = sent["json"]["messages"]
    assert system == {"role": "system",
                      "content": "You are the pilot.\n\nMemory:\nstep 0: lidar_range({}) -> {}"}
    assert user["role"] == "user"
    record, grammar, retry = user["content"].split("\n")
    assert json.loads(record) == {
        "observation": obs(),
        "visible_tools": [t.name for t in CONTROL],
        "inner_results": [{"tool": "lidar_range", "payload": {"range_m": 3.0}}],
        "extra": {"history": [1, 2]},  # the candidates are left out
    }
    assert grammar == reasoning.RemoteProvider._GRAMMAR_HINTS[reasoning.CALL_PLAN]
    assert retry == "Previous answer was malformed: no TOOL line found"


def test_remote_provider_leaves_out_empty_memory_hint_and_key(posts):
    provider = reasoning.RemoteProvider("http://127.0.0.1:1/v1", "m")
    provider.complete(_remote_request(call_kind=reasoning.CALL_DECIDE, memory_text="",
                                      hint=""))
    (sent,) = posts.calls
    assert sent["headers"] == {"Content-Type": "application/json"}
    system, user = sent["json"]["messages"]
    assert system["content"] == "You are the pilot."
    _, grammar = user["content"].split("\n")
    assert grammar == "Answer with exactly one line: TOOL <name> ARGS <json-object>."


def test_remote_provider_timeout_is_a_provider_timeout(posts):
    posts.reply = requests.Timeout("read timed out")
    provider = reasoning.RemoteProvider("http://127.0.0.1:1/v1", "m")
    with pytest.raises(reasoning.ProviderTimeout, match="read timed out"):
        provider.complete(_remote_request())


@pytest.mark.parametrize("body,missing", [
    ({"error": "quota"}, "choices"),
    ({"choices": []}, r"choices\[0\]"),
    ({"choices": [{}]}, r"choices\[0\]\.message"),
    ({"choices": [{"message": {"role": "assistant"}}]}, r"choices\[0\]\.message\.content"),
    ([], "choices"),
])
def test_a_remote_reply_without_content_is_a_named_reasoning_error(posts, body, missing):
    posts.reply = _Reply(body)
    provider = reasoning.RemoteProvider("http://127.0.0.1:1/v1", "m")
    with pytest.raises(reasoning.ReasoningError, match=f"remote reply has no {missing}$"):
        provider.complete(_remote_request())


@pytest.mark.parametrize("reply,ended_by", [
    (_Reply(_answer("TOOL terminate ARGS {}")), "terminate"),
    (_Reply({"error": "quota"}), "error"),
    (_Reply({"choices": []}), "error"),
    (_Reply({}, status=429), "error"),
])
def test_remote_provider_episode_ends_by_its_answer(posts, reply, ended_by):
    posts.reply = reply
    provider = reasoning.RemoteProvider("http://127.0.0.1:1/v1", "m")
    result = run_episode(EpisodeConfig(task=make_task("rendezvous")), provider=provider)
    assert result.trajectory.ended_by == ended_by
    assert len(result.trajectory.steps) == (ended_by == "terminate")
    assert posts.calls


def test_make_provider_kinds(tmp_path):
    assert reasoning.make_provider({"kind": "scripted"}).kind == "scripted"
    scripted = reasoning.make_provider(
        {"kind": "scripted", "forward_fraction": 0.4}
    )
    assert scripted.config.forward_fraction == 0.4
    integral = reasoning.make_provider({"kind": "scripted", "max_forward_step": 6})
    assert integral.config.max_forward_step == 6
    with pytest.raises(reasoning.ReasoningError):
        reasoning.make_provider({"kind": "psychic"})


@pytest.mark.parametrize("options,problem", [
    ({"max_forward_stepp": 6.0}, "unknown scripted provider options"),
    ({"max_forward_step": "6"}, "must be a finite number"),
    ({"forward_fraction": True}, "must be a finite number"),
    ({"forward_fraction": float("nan")}, "must be a finite number"),
    ({"terminate_range": 3.0}, "unknown scripted provider options"),
])
def test_make_provider_rejects_bad_scripted_options(options, problem):
    with pytest.raises(reasoning.ReasoningError, match=problem):
        reasoning.make_provider({"kind": "scripted", **options})


# -- mode loops ---------------------------------------------------------


class _QueueProvider(reasoning.DecisionProvider):
    kind = "scripted"
    identity = "queue"

    def __init__(self, outputs):
        self.outputs = list(outputs)
        self.calls = []

    def complete(self, request):
        self.calls.append(request.call_kind)
        return self.outputs.pop(0)


class _NullDispatcher:
    def __init__(self, payload=None):
        self.payload = payload or {}
        self.dispatched = []

    def dispatch(self, call):
        from proxagent.tools import ToolResult

        self.dispatched.append(call.tool)
        return ToolResult(True, dict(self.payload))


def _memory():
    return reasoning.MemoryState()


def test_standard_commits_control_directly():
    provider = _QueueProvider(['TOOL set_position ARGS {"dx": 1.0, "dy": 0.0, "dz": 0.0}'])
    result = reasoning.step_standard(reasoning.StepContext(
        obs(), type("P", (), {"text": ""})(), _memory(), VISIBLE, provider,
        _NullDispatcher(),
    ))
    assert result.call.tool == "set_position"
    assert result.provider_calls == 1
    assert result.inner == []


def test_standard_follow_up_after_perception():
    provider = _QueueProvider(
        ["TOOL brightness_assess ARGS {}",
         'TOOL set_exposure ARGS {"gain_delta": 0.9}']
    )
    dispatcher = _NullDispatcher()
    result = reasoning.step_standard(reasoning.StepContext(
        obs(), type("P", (), {"text": ""})(), _memory(), VISIBLE, provider,
        dispatcher,
    ))
    assert dispatcher.dispatched == ["brightness_assess"]
    assert result.call.tool == "set_exposure"
    assert result.provider_calls == 2  # never more than two


def test_standard_retries_once_then_raises():
    provider = _QueueProvider(["garbage", "still garbage"])
    with pytest.raises(reasoning.MalformedOutput):
        reasoning.step_standard(reasoning.StepContext(
            obs(), type("P", (), {"text": ""})(), _memory(), VISIBLE, provider,
            _NullDispatcher(),
        ))
    assert len(provider.calls) == 2


def test_react_runs_inner_rounds_then_commits():
    provider = _QueueProvider(
        ["TOOL segment_parts ARGS {}", "TOOL kb_lookup ARGS {}",
         'TOOL terminate ARGS {"reason": "done"}']
    )
    result = reasoning.step_react(reasoning.StepContext(
        obs(), type("P", (), {"text": ""})(), _memory(), VISIBLE, provider,
        _NullDispatcher(),
    ))
    assert result.call.tool == "terminate"
    assert [r["tool"] for r in result.inner] == ["segment_parts", "kb_lookup"]
    assert result.call.inner_round == 3  # bounded by R=3


def test_react_final_round_is_control_restricted():
    # a provider that keeps asking for perception would exceed the budget;
    # the final round only offers control tools, so parsing perception fails
    provider = _QueueProvider(
        ["TOOL zoom ARGS {\"factor\": 2.0}", "TOOL zoom ARGS {\"factor\": 2.0}",
         "TOOL zoom ARGS {\"factor\": 2.0}", "TOOL zoom ARGS {\"factor\": 2.0}"]
    )
    with pytest.raises(reasoning.MalformedOutput):
        reasoning.step_react(reasoning.StepContext(
            obs(), type("P", (), {"text": ""})(), _memory(), VISIBLE, provider,
            _NullDispatcher(),
        ))


def test_prospective_plan_select():
    provider = _QueueProvider(
        [
            'CANDIDATE 0: TOOL set_position ARGS {"dx": 1.0, "dy": 0.0, "dz": 0.0} '
            "OUTCOME slow RISK Medium\n"
            'CANDIDATE 1: TOOL terminate ARGS {} OUTCOME stop RISK Low',
            "SELECT 1",
        ]
    )
    result = reasoning.step_prospective(reasoning.StepContext(
        obs(), type("P", (), {"text": ""})(), _memory(), VISIBLE, provider,
        _NullDispatcher(),
    ))
    assert result.call.tool == "terminate"
    assert result.provider_calls == 2
    assert not result.degraded


def test_prospective_degrades_on_malformed_plan():
    provider = _QueueProvider(
        ["no plan here",
         'TOOL set_position ARGS {"dx": 1.0, "dy": 0.0, "dz": 0.0}']
    )
    result = reasoning.step_prospective(reasoning.StepContext(
        obs(), type("P", (), {"text": ""})(), _memory(), VISIBLE, provider,
        _NullDispatcher(),
    ))
    assert result.degraded
    assert result.call.tool == "set_position"


def test_prospective_degrades_on_malformed_select():
    provider = _QueueProvider(
        ['CANDIDATE 0: TOOL terminate ARGS {} OUTCOME stop RISK Low',
         "SELECT 9",
         'TOOL terminate ARGS {}']
    )
    result = reasoning.step_prospective(reasoning.StepContext(
        obs(), type("P", (), {"text": ""})(), _memory(), VISIBLE, provider,
        _NullDispatcher(),
    ))
    assert result.degraded
    assert result.call.tool == "terminate"


@pytest.mark.parametrize("spec,problem", [
    ({"kind": "remote", "endpoint": "http://127.0.0.1:1", "modle": "gpt"},
     r"unknown remote provider options: \['modle'\]"),
    ({"kind": "remote", "model": "gpt"}, r"remote provider options missing: \['endpoint'\]"),
    ({"kind": "replay"}, "unknown provider kind: 'replay'"),
    ({"kind": "remote", "endpoint": 7}, "remote provider option endpoint must be a string"),
    ({"kind": "remote", "endpoint": "http://127.0.0.1:1", "temperature": "hot"},
     "remote provider option temperature must be a finite number, got 'hot'"),
    ({"kind": "remote", "endpoint": "http://127.0.0.1:1", "timeout": float("inf")},
     "remote provider option timeout must be a finite number"),
])
def test_make_provider_names_bad_options_for_every_kind(spec, problem):
    with pytest.raises(reasoning.ReasoningError, match=problem):
        reasoning.make_provider(spec)
