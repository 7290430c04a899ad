import contextlib
import dataclasses
import json
import re
from types import SimpleNamespace

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from proxagent import bus, reasoning, tools
from proxagent.env import make_task
from proxagent.runner import EpisodeConfig, run_episode, shipped_catalog
from proxagent.skills import AssembledPrompt, RoutingResult, assemble_prompt
from proxagent.tools import builtin_catalog, builtin_profiles, visible_tools

VISIBLE = visible_tools(builtin_catalog(), builtin_profiles()["hybrid-nav-code"])
CONTROL = [t for t in VISIBLE if t.category == "control"]
PLAN_CANDIDATES = reasoning.MODES["prospective"].candidates
NO_SKILLS = AssembledPrompt(text="", skill_names=[], base="", by_call={})


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_tool_call_and_memory_lines_never_hold_nan_or_infinity(bad):
    with pytest.raises(ValueError):
        reasoning.format_tool_call("set_position", {"dx": bad, "dy": 0.0, "dz": 0.0})
    with pytest.raises(ValueError):
        reasoning.memory_line({"step": 0, "tool": "set_position", "args": {"dx": bad},
                               "result_digest": "{}"})


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
    ("set_position", _MOVE.replace("1.0", "NaN"),
     "arg 'dx' must be a finite number of meters, got nan"),
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
                      lambda text: reasoning.parse_candidates(
                          text, VISIBLE, PLAN_CANDIDATES)[0].action.args),
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
    candidates = reasoning.parse_candidates(plan, CONTROL, PLAN_CANDIDATES)
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
    candidates = reasoning.parse_candidates(text, CONTROL, PLAN_CANDIDATES)
    assert len(candidates) == 2
    assert candidates[0].risk == "Low"
    assert candidates[1].action.tool == "terminate"


def test_candidates_capped_at_three():
    line = ('CANDIDATE {i}: TOOL terminate ARGS {{}} OUTCOME ends RISK Low')
    text = "\n".join(line.format(i=i) for i in range(6))
    assert len(reasoning.parse_candidates(text, CONTROL, PLAN_CANDIDATES)) == 3


def test_a_candidate_numbered_in_other_digits_is_no_candidate():
    # "\u0661" is ARABIC-INDIC DIGIT ONE: a decimal digit, but not the grammar's
    text = ('CANDIDATE \u0661: TOOL set_position ARGS {"dx": 1.0, "dy": 0.0, "dz": 0.0} '
            "OUTCOME closes range RISK Low")
    with pytest.raises(reasoning.MalformedOutput, match="^no CANDIDATE lines found$"):
        reasoning.parse_candidates(text, CONTROL, PLAN_CANDIDATES)


def test_a_select_index_in_other_digits_is_malformed():
    # "\u0662" is ARABIC-INDIC DIGIT TWO, which int() reads as 2
    with pytest.raises(reasoning.MalformedOutput, match="^no SELECT line found$"):
        reasoning.parse_select("SELECT \u0662", 3)


_LONG_INDEX = "7" * 5000  # int() refuses an integer string of more than 4,300 digits


def test_select_grammar_bounds():
    assert reasoning.parse_select("SELECT 1", 3) == 1
    assert reasoning.parse_select("SELECT 0002", 3) == 2
    with pytest.raises(reasoning.MalformedOutput, match="^SELECT index 5 out of range$"):
        reasoning.parse_select("SELECT 5", 3)
    with pytest.raises(reasoning.MalformedOutput,
                       match="^SELECT index of 5000 digits out of range$"):
        reasoning.parse_select("SELECT " + _LONG_INDEX, 3)
    with pytest.raises(reasoning.MalformedOutput):
        reasoning.parse_select("pick the first", 3)


class _LongSelect(reasoning.ScriptedProvider):
    """The scripted policy, but every selection names an index of 5,000 digits."""

    def complete(self, request):
        if request.call_kind == reasoning.CALL_SELECT:
            return "SELECT " + _LONG_INDEX
        return super().complete(request)


def test_a_select_index_too_long_for_int_degrades_the_step():
    result = run_episode(EpisodeConfig(task=make_task("rendezvous"), mode="prospective"),
                         provider=_LongSelect())
    assert result.trajectory.ended_by == "terminate"
    # each step degraded: plan, select, then the direct decide-action call
    assert all(step.provider_calls == 3 for step in result.trajectory.steps)


def test_a_standard_step_checks_each_parsed_call_once(monkeypatch):
    """The parser checks a call's args; dispatch trusts that check."""
    counts = {"parsed": 0, "checked": 0}

    def parse_tool_call(*args, **kwargs):
        call = real_parse(*args, **kwargs)
        counts["parsed"] += 1
        return call

    def validate_args(tool, args):
        counts["checked"] += 1
        return real_validate(tool, args)

    real_parse, real_validate = reasoning.parse_tool_call, tools.validate_args
    monkeypatch.setattr(reasoning, "parse_tool_call", parse_tool_call)
    monkeypatch.setattr(reasoning, "validate_args", validate_args)
    monkeypatch.setattr(tools, "validate_args", validate_args)
    result = run_episode(EpisodeConfig(task=make_task("rendezvous")))
    assert result.trajectory.ended_by == "terminate"
    assert counts["parsed"] >= len(result.trajectory.steps) > 1
    assert counts["checked"] == counts["parsed"]


# -- memory -------------------------------------------------------------


def make_step(i, tool="set_position"):
    return {"step": i, "tool": tool, "args": {"dx": 1.0, "dy": 0.0, "dz": 0.0},
            "result_digest": "{}", "bearing_az": float(i)}


def test_memory_window_and_eviction():
    memory = reasoning.MemoryState(n=5)
    for i in range(12):
        reasoning.update_memory(memory, make_step(i))
    assert len(memory.recent) == 5
    assert memory.stats["evicted"] == 7
    assert memory.stats["tool_counts"] == {"set_position": 7}
    assert memory.stats["net_dx"] == pytest.approx(7.0)
    assert memory.memory_text().startswith("Long-term summary: 7 earlier steps compressed")


def test_memory_text_deterministic_for_identical_histories():
    def build():
        memory = reasoning.MemoryState(n=3)
        for i in range(9):
            reasoning.update_memory(memory, make_step(i))
        return memory.memory_text()

    assert build() == build()


def test_memory_text_follows_every_update_including_evictions():
    memory = reasoning.MemoryState(n=3)
    texts = [memory.memory_text()]
    for i in range(8):
        reasoning.update_memory(memory, make_step(i))
        fresh = reasoning.MemoryState(
            n=memory.n, recent=list(memory.recent), stats=bus.record_copy(memory.stats)
        )
        assert memory.memory_text() == fresh.memory_text()
        texts.append(memory.memory_text())
    assert len(set(texts)) == len(texts)   # every update changed the text
    assert "Long-term summary: 5 earlier steps compressed" in texts[-1]


def test_memory_text_renders_no_record_again(monkeypatch):
    memory = reasoning.MemoryState(n=3)
    for i in range(8):
        reasoning.update_memory(memory, make_step(i))
    expected = reasoning.MemoryState(
        n=memory.n, recent=list(memory.recent), stats=bus.record_copy(memory.stats)
    ).memory_text()
    assert expected.count("\nstep ") == 3

    def no_dumps(*args, **kwargs):
        raise AssertionError("memory_text rendered a record")

    monkeypatch.setattr(reasoning, "dumps_strict", no_dumps)
    assert memory.memory_text() == expected


@given(st.lists(st.integers(0, 4), min_size=0, max_size=200))
@settings(max_examples=30, deadline=None)
def test_memory_invariant_under_any_sequence(tool_ids):
    names = ["set_position", "set_attitude", "set_exposure", "zoom", "kb_lookup"]
    memory = reasoning.MemoryState(n=5)
    for i, t in enumerate(tool_ids):
        reasoning.update_memory(memory, make_step(i, tool=names[t]))
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


@pytest.mark.parametrize("temperature", [-5, -0.01, 0.31])
def test_a_remote_temperature_must_be_in_range(temperature):
    spec = {"kind": "remote", "endpoint": "http://127.0.0.1:9/v1", "temperature": temperature}
    with pytest.raises(reasoning.ReasoningError, match=r"^temperature must be in \[0, 0\.3\]$"):
        reasoning.make_provider(spec)
    for edge in (0, 0.3):
        assert reasoning.make_provider({**spec, "temperature": edge}).temperature == edge


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
                                          memory_text="", visible_tools=())
    assert a.observation is not b.observation


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
        "extra": {"candidates": [{"index": 0}], "history": [1, 2]},
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
    ({"max_forward_stepp": 6.0}, "unknown scripted provider option 'max_forward_stepp'"),
    ({"max_forward_step": "6"}, "must be a finite number"),
    ({"forward_fraction": True}, "must be a finite number"),
    ({"forward_fraction": float("nan")}, "must be a finite number"),
    ({"terminate_range": 3.0}, "unknown scripted provider option 'terminate_range'"),
])
def test_make_provider_rejects_bad_scripted_options(options, problem):
    with pytest.raises(reasoning.ReasoningError, match=problem):
        reasoning.make_provider({"kind": "scripted", **options})


# -- mode loops ---------------------------------------------------------


class _QueueProvider(reasoning.DecisionProvider):
    identity = "queue"

    def __init__(self, outputs):
        self.outputs = list(outputs)
        self.calls = []
        self.prompts = []

    def complete(self, request):
        self.calls.append(request.call_kind)
        self.prompts.append(request.prompt)
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
        obs(), NO_SKILLS, _memory(), VISIBLE, provider,
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
        obs(), NO_SKILLS, _memory(), VISIBLE, provider,
        dispatcher,
    ))
    assert dispatcher.dispatched == ["brightness_assess"]
    assert result.call.tool == "set_exposure"
    assert result.provider_calls == 2  # never more than two


def test_standard_retries_once_then_raises():
    provider = _QueueProvider(["garbage", "still garbage"])
    with pytest.raises(reasoning.MalformedOutput):
        reasoning.step_standard(reasoning.StepContext(
            obs(), NO_SKILLS, _memory(), VISIBLE, provider,
            _NullDispatcher(),
        ))
    assert len(provider.calls) == 2


def test_react_runs_inner_rounds_then_commits():
    provider = _QueueProvider(
        ["TOOL segment_parts ARGS {}", "TOOL kb_lookup ARGS {}",
         'TOOL terminate ARGS {"reason": "done"}']
    )
    result = reasoning.step_react(reasoning.StepContext(
        obs(), NO_SKILLS, _memory(), VISIBLE, provider,
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
            obs(), NO_SKILLS, _memory(), VISIBLE, provider,
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
        obs(), NO_SKILLS, _memory(), VISIBLE, provider,
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
        obs(), NO_SKILLS, _memory(), VISIBLE, provider,
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
        obs(), NO_SKILLS, _memory(), VISIBLE, provider,
        _NullDispatcher(),
    ))
    assert result.degraded
    assert result.call.tool == "terminate"


def test_a_degraded_prospective_decide_is_sent_no_plan_or_select_skill():
    catalog = shipped_catalog()
    prompt = assemble_prompt(catalog.of_category("core"),
                             RoutingResult("approach", ["distance"], "test"),
                             catalog.mode_skills(reasoning.MODES["prospective"].skills),
                             [], catalog)
    provider = _QueueProvider(
        ["no plan here", 'TOOL set_position ARGS {"dx": 1.0, "dy": 0.0, "dz": 0.0}'])
    result = reasoning.step_prospective(reasoning.StepContext(
        obs(), prompt, _memory(), VISIBLE, provider, _NullDispatcher(),
    ))
    assert result.degraded
    assert provider.calls == [reasoning.CALL_PLAN, reasoning.CALL_DECIDE]
    assert provider.prompts == [prompt.for_call(reasoning.CALL_PLAN), prompt.base]
    assert "(mode)" not in prompt.base


def test_a_remote_select_call_carries_the_candidate_listing(monkeypatch):
    replies = iter([
        _answer('CANDIDATE 0: TOOL terminate ARGS {"reason": "done"} OUTCOME stop RISK Low'),
        _answer("SELECT 0"),
    ])
    users = []

    def post(url, **kwargs):
        users.append(kwargs["json"]["messages"][1]["content"])
        return _Reply(next(replies))

    monkeypatch.setattr(requests, "post", post)
    provider = reasoning.RemoteProvider("http://127.0.0.1:1/v1", "m")
    result = reasoning.step_prospective(reasoning.StepContext(
        obs(), NO_SKILLS, _memory(), VISIBLE, provider, _NullDispatcher(),
    ))
    assert result.call.tool == "terminate" and not result.degraded
    record = json.loads(users[1].split("\n")[0])
    assert record["extra"] == {"candidates": [{
        "index": 0, "tool": "terminate", "args": {"reason": "done"},
        "outcome": "stop", "risk": "Low",
    }]}


def _steps(result):
    return [step.to_json() for step in result.trajectory.steps]


def test_a_provider_editing_the_select_listing_leaves_the_committed_call_as_planned():
    class Editing(reasoning.ScriptedProvider):
        def complete(self, request):
            for candidate in request.extra.get("candidates", []):
                if "dx" in candidate["args"]:
                    candidate["args"]["dx"] = 99.0
            return super().complete(request)

    config = EpisodeConfig(task=make_task("rendezvous"), mode="prospective", seed=1)
    edited = run_episode(config, provider=Editing())
    assert all(step.call["args"].get("dx") != 99.0 for step in edited.trajectory.steps)
    assert _steps(edited) == _steps(run_episode(config))


def test_a_provider_editing_an_inner_result_leaves_the_recorded_payload_as_returned():
    class Editing(reasoning.ScriptedProvider):
        def complete(self, request):
            for item in request.inner_results:
                item["payload"]["edited"] = True
            return super().complete(request)

    config = EpisodeConfig(task=make_task("inspection"), mode="react", seed=1)
    edited = run_episode(config, provider=Editing())
    inner = [record for step in edited.trajectory.steps for record in step.inner]
    assert inner and not any("edited" in record["result"]["payload"] for record in inner)
    assert _steps(edited) == _steps(run_episode(config))


class _RemoteKind(reasoning.ScriptedProvider):
    """The stand-in under another kind's name, counting its calls."""

    kind = "remote"

    def __init__(self):
        super().__init__()
        self.completed = 0

    def complete(self, request):
        self.completed += 1
        return super().complete(request)


@pytest.mark.parametrize("mode", ["standard", "react", "prospective"])
def test_every_provider_call_of_an_episode_is_counted_in_its_steps(mode):
    provider = _RemoteKind()
    result = run_episode(EpisodeConfig(task=make_task("rendezvous"), mode=mode),
                         provider=provider)
    steps = result.trajectory.steps
    assert len(steps) > reasoning.DEFAULT_MEMORY_WINDOW  # memory evicted
    assert provider.completed == sum(step.provider_calls for step in steps)


def _vandalize(value):
    """Overwrite every number and empty every list reachable from ``value``."""
    if isinstance(value, dict):
        for key, item in list(value.items()):
            if isinstance(item, (int, float)) and not isinstance(item, bool):
                value[key] = 999.0
            else:
                _vandalize(item)
    elif isinstance(value, list):
        for item in value:
            _vandalize(item)
        value.clear()


class _Vandal(_RemoteKind):
    """Answers as the stand-in would (which keeps parts of what it reads, so
    it reads a copy), then edits everything its request holds; where that is
    read-only, it suppresses the TypeError."""

    def complete(self, request):
        own = bus.record_copy({"observation": request.observation, "extra": request.extra,
                               "inner_results": request.inner_results})
        answer = super().complete(dataclasses.replace(request, **own))
        _vandalize([request.observation, request.inner_results, request.extra])
        for tool in request.visible_tools:
            for name in list(tool.params):
                with contextlib.suppress(TypeError):
                    tool.params[name] = bus.STRING
        with contextlib.suppress(TypeError):
            request.visible_tools[:] = []
        return answer


@pytest.mark.parametrize("mode", ["standard", "react", "prospective"])
@pytest.mark.parametrize("task", ["rendezvous", "inspection"])
def test_a_provider_editing_every_request_leaves_the_trajectory_as_the_stand_ins(mode, task):
    catalog = {name: dict(tool.params) for name, tool in builtin_catalog().items()}
    config = EpisodeConfig(task=make_task(task), mode=mode)
    vandalized = run_episode(config, provider=_Vandal())
    assert {name: dict(tool.params) for name, tool in builtin_catalog().items()} == catalog
    plain = run_episode(config)
    assert _steps(vandalized) == _steps(plain)
    assert vandalized.trajectory.ended_by == plain.trajectory.ended_by


def test_a_provider_cannot_hide_a_visible_tool_from_the_step():
    class Hiding(reasoning.ScriptedProvider):
        def complete(self, request):
            with contextlib.suppress(TypeError):
                request.visible_tools[:] = [
                    t for t in request.visible_tools if t.name != "set_position"]
            return super().complete(request)

    config = EpisodeConfig(task=make_task("rendezvous"))
    hidden = run_episode(config, provider=Hiding())
    assert hidden.trajectory.ended_by == "terminate"
    assert _steps(hidden) == _steps(run_episode(config))


def test_a_provider_cannot_edit_the_shared_tool_catalog():
    class Retyping(reasoning.ScriptedProvider):
        def complete(self, request):
            for tool in request.visible_tools:
                if "gain_delta" in tool.params:
                    with contextlib.suppress(TypeError):
                        tool.params["gain_delta"] = bus.STRING
            return super().complete(request)

    before = dict(builtin_catalog()["set_exposure"].params)
    config = EpisodeConfig(task=make_task("rendezvous", condition="C2"))
    retyped = run_episode(config, provider=Retyping())
    assert dict(builtin_catalog()["set_exposure"].params) == before
    assert any(step.call["tool"] == "set_exposure" for step in retyped.trajectory.steps)
    assert _steps(retyped) == _steps(run_episode(config))


def test_a_reflector_cannot_edit_the_trajectorys_skill_list(tmp_path):
    class Appending(reasoning.ScriptedProvider):
        def complete(self, request):
            if request.call_kind == reasoning.CALL_REFLECT:
                request.extra["active_skills"].append("appended-by-reflector")
            return super().complete(request)

    def run(provider, workspace):
        config = EpisodeConfig(task=make_task("rendezvous"), workspace=tmp_path / workspace,
                               evolve=True)
        return run_episode(config, provider=provider)

    appended = run(Appending(), "appended")
    assert appended.evolution is not None
    assert appended.trajectory.meta["skills"] == run(None, "plain").trajectory.meta["skills"]


@pytest.mark.parametrize("spec,problem", [
    ({"kind": "remote", "endpoint": "http://127.0.0.1:1", "modle": "gpt"},
     "unknown remote provider option 'modle'"),
    ({"kind": "remote", "model": "gpt"}, "missing remote provider option 'endpoint'"),
    ({"kind": "replay"}, "unknown provider kind 'replay'"),
    ({"kind": "remote", "endpoint": 7},
     "remote provider option 'endpoint' must be a string, got 7"),
    ({"kind": "remote", "endpoint": "http://127.0.0.1:1", "temperature": "hot"},
     "remote provider option 'temperature' must be a finite number, got 'hot'"),
    ({"kind": "remote", "endpoint": "http://127.0.0.1:1", "timeout": float("inf")},
     "remote provider option 'timeout' must be a finite number, got inf"),
])
def test_make_provider_names_bad_options_for_every_kind(spec, problem):
    with pytest.raises(reasoning.ReasoningError, match=problem):
        reasoning.make_provider(spec)


@pytest.mark.parametrize("timeout", [0, 0.0, -1.0])
def test_a_remote_timeout_must_be_positive(timeout):
    spec = {"kind": "remote", "endpoint": "http://127.0.0.1:9/v1", "timeout": timeout}
    with pytest.raises(reasoning.ReasoningError, match=r"^timeout must be > 0$"):
        reasoning.make_provider(spec)
    assert reasoning.make_provider({**spec, "timeout": 0.5}).timeout == 0.5
