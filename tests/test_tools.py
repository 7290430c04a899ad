import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxagent import bus, tools
from proxagent.env import EnvBridge, SimEnv, load_satellite_catalog, make_task


@pytest.fixture(scope="module")
def satellites():
    return load_satellite_catalog()


@pytest.fixture()
def rig(satellites):
    """Backend + bridge + dispatcher wired for one rendezvous episode."""
    backend = bus.InProcessBus()
    bridge = EnvBridge(SimEnv(satellites), backend)
    bridge.reset(make_task("rendezvous"), seed=0)
    dispatcher = tools.ToolDispatcher(
        backend, tools.builtin_catalog(), tools.builtin_profiles()["hybrid-nav-code"],
        satellites, "CAPSTONE", obs_timeout=0.5,
    )
    yield dispatcher, bridge, backend
    bridge.close()


def call(tool, **args):
    return tools.ToolCall(tool=tool, args=args)


# -- catalog and profiles ----------------------------------------------


def test_catalog_has_one_terminal_tool():
    catalog = tools.builtin_catalog()
    assert catalog[tools.TERMINATE].category == tools.CATEGORY_CONTROL
    terminal = [name for name, channel in tools.COMMAND_CHANNELS.items()
                if channel == bus.CMD_TERMINATE]
    assert terminal == [tools.TERMINATE]


def test_each_control_tool_commands_one_channel():
    control = {name for name, tool in tools.builtin_catalog().items()
               if tool.category == tools.CATEGORY_CONTROL}
    assert set(tools.COMMAND_CHANNELS) == control
    assert set(tools.COMMAND_CHANNELS.values()) <= set(bus.CHANNEL_SCHEMAS)


def test_translation_and_rotation_are_separate_tools():
    catalog = tools.builtin_catalog()
    assert set(catalog.get("set_position").params) == {"dx", "dy", "dz"}
    assert set(catalog.get("set_attitude").params) == {"dyaw", "dpitch", "droll"}


def test_profiles_differ_only_in_whitelists():
    profiles = tools.builtin_profiles()
    catalog = tools.builtin_catalog()
    assert "lidar_range" not in profiles["vision-only"]
    assert "eval_expr" not in profiles["vision-only"]
    assert "lidar_range" in profiles["hybrid-nav"]
    assert "eval_expr" not in profiles["hybrid-nav"]
    assert profiles["hybrid-nav-code"] == set(catalog)
    assert all(type(profile) is frozenset for profile in profiles.values())


def test_shared_catalog_and_profiles_are_read_only():
    profiles = tools.builtin_profiles()
    with pytest.raises(TypeError):
        profiles["everything"] = frozenset({"terminate"})
    with pytest.raises(TypeError):
        del profiles["vision-only"]
    assert tools.builtin_profiles() is profiles
    assert list(profiles) == ["vision-only", "hybrid-nav", "hybrid-nav-code"]
    catalog = tools.builtin_catalog()
    with pytest.raises(TypeError):
        catalog["self_destruct"] = catalog["terminate"]
    with pytest.raises(TypeError):
        catalog["terminate"] = catalog["zoom"]
    assert tools.builtin_catalog() is catalog
    assert list(catalog)[0] == "brightness_assess" and list(catalog)[-1] == "eval_expr"


def test_visible_tools_keeps_catalog_order():
    catalog = tools.builtin_catalog()
    profile = frozenset({"terminate", "brightness_assess"})
    names = [t.name for t in tools.visible_tools(catalog, profile)]
    assert names == ["brightness_assess", "terminate"]


# -- arg validation -----------------------------------------------------


def test_validate_args_rejects_bool_and_unknown():
    tool = tools.builtin_catalog().get("set_position")
    assert tools.validate_args(tool, {"dx": 1, "dy": 0, "dz": 0}) is None
    assert tools.validate_args(tool, {"dx": True, "dy": 0, "dz": 0})
    assert tools.validate_args(tool, {"dx": 1, "dy": 0, "dz": 0, "dq": 1})
    assert tools.validate_args(tool, {"dx": 1})  # missing required


def test_validate_args_checks_objects_at_any_depth():
    tool = tools.builtin_catalog().get("terminate")
    assert tools.validate_args(tool, {"report": {"structure": "box", "parts": ["a"]}}) is None
    for report in ({"structure": float("nan")}, {"parts": [float("inf")]},
                   {"scale": {"m": 10**400}}):
        assert "not a finite number" in tools.validate_args(tool, {"report": report})


# validate_args as it was before an exact float was checked inline, kept as
# the reference: for every value a number parameter can get, the same message.
def reference_validate_args(tool, args):
    if not isinstance(args, dict):
        return "args must be an object"
    for pname, meta in tool.params.items():
        if meta.get("required") and pname not in args:
            return f"missing required arg {pname!r}"
    for pname, value in args.items():
        meta = tool.params.get(pname)
        if meta is None:
            return f"unknown arg {pname!r}"
        expected = meta["type"]
        if expected == "number":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return f"arg {pname!r} must be a number"
            if not bus.is_finite_number(value):
                return f"arg {pname!r} must be finite"
        elif expected == "string":
            if not isinstance(value, str):
                return f"arg {pname!r} must be a string"
        elif expected == "object":
            if not isinstance(value, dict):
                return f"arg {pname!r} must be an object"
            try:
                bus.json_copy(value, pname)
            except bus.SchemaViolation as exc:
                return f"arg {exc}"
    return None


class _Metres(float):
    pass


_ARG_VALUES = st.one_of(
    st.floats(),  # NaN and the infinities included
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, True, False, _Metres("nan"),
                     _Metres(2.5), 2**1023, 2**1024, -(2**1024), 10**400, "1", None]),
    st.booleans(), st.integers(),
)


@given(tool=st.sampled_from([t for t in tools.builtin_catalog().values() if t.params]),
       values=st.lists(_ARG_VALUES, min_size=3, max_size=3))
@settings(max_examples=300, deadline=None)
def test_validate_args_matches_the_reference(tool, values):
    args = dict(zip(tool.params, values))
    assert tools.validate_args(tool, args) == reference_validate_args(tool, args)


# -- expression evaluator ----------------------------------------------


@pytest.mark.parametrize(
    "expression,value",
    [("1+2*3", 7), ("(4-1)/2", 1.5), ("-3.5", -3.5), ("2*(1+1)", 4)],
)
def test_safe_eval_arithmetic(expression, value):
    assert tools.safe_eval(expression) == value


@pytest.mark.parametrize(
    "expression",
    ["__import__('os')", "x+1", "2**8", "1/0", "[1,2]", "'a'+'b'",
     # results beyond float range
     "1e999", "1e308*10", "1e308*10-1e308*10",
     pytest.param("1" + "0" * 400 + "/3", id="huge-int-division")],
)
def test_safe_eval_rejects_everything_else(expression):
    with pytest.raises(tools.ToolError):
        tools.safe_eval(expression)


@pytest.mark.parametrize("links", [2000, 3000, 100_000])  # walk, then ast.parse, recurse
def test_a_long_operator_chain_is_a_tool_error(links):
    with pytest.raises(tools.ToolError, match="nests too deeply"):
        tools.safe_eval("1+" * links + "1")


def _padded(frames, fn):
    """``fn()`` called ``frames`` frames deeper than here."""
    return fn() if frames == 0 else _padded(frames - 1, fn)


@pytest.mark.parametrize("frames", [0, 300])
def test_an_expression_nests_as_deeply_on_every_call_path(frames):
    limit = tools.MAX_EXPRESSION_TOKENS
    assert limit % 2 == 0  # the longest chain below has limit - 1 tokens
    links = limit // 2 - 1
    for expression, value in [
        ("1+" * links + "1", links + 1),
        ("-" * (limit - 1) + "1", -1),
        ("(" * links + "1" + ")" * links, 1),
    ]:
        assert _padded(frames, lambda: tools.safe_eval(expression)) == value
    for links in (limit // 2, 940):
        with pytest.raises(tools.ToolError, match="nests too deeply"):
            _padded(frames, lambda: tools.safe_eval("1+" * links + "1"))
    # a long literal is one token
    assert _padded(frames, lambda: tools.safe_eval("1" + "0" * 300 + "+1")) == 10**300 + 1


def test_a_long_operator_chain_is_an_expression_error_result(rig):
    dispatcher, _, _ = rig
    result = dispatcher.dispatch(call("eval_expr", expression="1+" * 3000 + "1"))
    assert not result.ok and result.error_kind == tools.ERR_EXPRESSION


# -- dispatch -----------------------------------------------------------


def test_dispatch_not_visible(rig):
    dispatcher, _, _ = rig
    dispatcher.profile = tools.builtin_profiles()["vision-only"]
    result = dispatcher.dispatch(call("lidar_range"))
    assert not result.ok
    assert result.error_kind == tools.ERR_NOT_VISIBLE


def test_dispatch_invalid_args(rig):
    dispatcher, _, _ = rig
    result = dispatcher.dispatch(call("set_position", dx=1.0))
    assert result.error_kind == tools.ERR_INVALID_ARGS


@pytest.mark.parametrize("number", [math.nan, math.inf, -math.inf])
def test_dispatch_rejects_non_finite_numbers(rig, number):
    dispatcher, bridge, _ = rig
    before = dispatcher.latest_observation()
    result = dispatcher.dispatch(call("set_position", dx=number, dy=0.0, dz=0.0))
    assert result.error_kind == tools.ERR_INVALID_ARGS
    assert dispatcher.latest_observation() == before  # nothing reached the env
    assert math.isfinite(bridge.env.chaser.x)


@pytest.mark.parametrize(
    "tool,args,error_kind",
    [
        # within float range: the env's bounds check rejects it
        ("set_position", {"dx": 10**200, "dy": 0, "dz": 0}, tools.ERR_STEP_LIMIT),
        ("set_attitude", {"dyaw": 10**200, "dpitch": 0, "droll": 0}, tools.ERR_STEP_LIMIT),
        ("set_exposure", {"gain_delta": 10**200}, tools.ERR_GAIN_RANGE),
        # beyond float range: rejected before it reaches the bus
        ("set_position", {"dx": 10**400, "dy": 0, "dz": 0}, tools.ERR_INVALID_ARGS),
        ("set_exposure", {"gain_delta": -(10**400)}, tools.ERR_INVALID_ARGS),
    ],
)
def test_huge_integers_fail_fast_with_a_named_error(rig, tool, args, error_kind):
    dispatcher, bridge, _ = rig
    dispatcher.obs_timeout = 2.0
    before = (dict(vars(bridge.env.chaser)), bridge.env.exposure_gain)
    started = time.monotonic()
    result = dispatcher.dispatch(call(tool, **args))
    assert result.error_kind == error_kind
    assert time.monotonic() - started < 1.0
    assert (vars(bridge.env.chaser), bridge.env.exposure_gain) == before  # state unchanged


def test_env_fault_is_a_named_error_at_once(rig, monkeypatch):
    dispatcher, bridge, _ = rig
    dispatcher.obs_timeout = 2.0
    step = bridge.env.step

    def fail_once(delta):
        monkeypatch.setattr(bridge.env, "step", step)
        raise RuntimeError("actuator offline")

    monkeypatch.setattr(bridge.env, "step", fail_once)
    started = time.monotonic()
    result = dispatcher.dispatch(call("set_position", dx=1.0, dy=0.0, dz=0.0))
    assert result.error_kind == tools.ERR_ENV_FAULT
    assert result.payload["detail"] == "RuntimeError: actuator offline"
    assert time.monotonic() - started < 1.0
    assert dispatcher.dispatch(call("set_position", dx=1.0, dy=0.0, dz=0.0)).ok


def test_control_blocks_until_new_observation(rig):
    dispatcher, _, _ = rig
    before = dispatcher.latest_observation()
    result = dispatcher.dispatch(call("set_position", dx=1.0, dy=0.0, dz=0.0))
    assert result.ok
    obs = result.payload["observation"]
    assert obs["step_index"] == before["step_index"] + 1


def test_control_after_the_bridge_closed_times_out_naming_the_tool(rig):
    dispatcher, bridge, _ = rig
    dispatcher.obs_timeout = 0.05
    bridge.close()  # nothing applies the command, so no new observation comes
    started = time.monotonic()
    result = dispatcher.dispatch(call("set_position", dx=1.0, dy=0.0, dz=0.0))
    waited = time.monotonic() - started
    assert (result.ok, result.error_kind) == (False, tools.ERR_ENV_TIMEOUT)
    assert result.payload == {"tool": "set_position"}
    assert 0.05 <= waited < 1.0


def test_perception_before_any_camera_record_times_out(satellites):
    dispatcher = tools.ToolDispatcher(
        bus.InProcessBus(), tools.builtin_catalog(), tools.builtin_profiles()["hybrid-nav"],
        satellites, "CAPSTONE", obs_timeout=0.05,
    )
    result = dispatcher.dispatch(call("brightness_assess"))
    assert (result.ok, result.error_kind) == (False, tools.ERR_ENV_TIMEOUT)
    assert result.payload == {"detail": "no observation yet"}


def test_oversized_step_surfaces_step_limit_error(rig):
    dispatcher, _, _ = rig
    result = dispatcher.dispatch(call("set_position", dx=5.0, dy=0.0, dz=0.0))
    assert not result.ok
    assert result.error_kind == tools.ERR_STEP_LIMIT


def test_gain_error_kind(rig):
    dispatcher, _, _ = rig
    result = dispatcher.dispatch(call("set_exposure", gain_delta=100.0))
    assert result.error_kind == tools.ERR_GAIN_RANGE


def test_terminate_reports_to_bridge(rig):
    dispatcher, bridge, backend = rig
    result = dispatcher.dispatch(call("terminate", reason="done"))
    assert result.ok and result.payload == {"terminated": True}
    assert bridge.terminated
    assert backend.get_latest(bus.CMD_TERMINATE).record()["reason"] == "done"


@pytest.mark.parametrize(
    "tool,args,channel,record",
    [
        ("set_position", {"dx": 0.5, "dy": -0.25, "dz": 0.0}, bus.CMD_POSE_DELTA,
         {"dx": 0.5, "dy": -0.25, "dz": 0.0, "dyaw": 0.0, "dpitch": 0.0, "droll": 0.0}),
        ("set_attitude", {"dyaw": 10.0, "dpitch": 0, "droll": -5.0}, bus.CMD_POSE_DELTA,
         {"dx": 0.0, "dy": 0.0, "dz": 0.0, "dyaw": 10.0, "dpitch": 0, "droll": -5.0}),
        ("set_exposure", {"gain_delta": 0.25}, bus.CMD_EXPOSURE, {"gain_delta": 0.25}),
        ("terminate", {"reason": "done", "report": {"parts": ["antenna"]}}, bus.CMD_TERMINATE,
         {"reason": "done", "report": {"parts": ["antenna"]}}),
        ("terminate", {}, bus.CMD_TERMINATE, {}),
    ],
)
def test_each_control_tool_publishes_its_exact_command_record(rig, tool, args, channel, record):
    dispatcher, _, backend = rig
    assert dispatcher.dispatch(call(tool, **args)).ok
    published = backend.get_latest(channel).record()
    assert published == record
    assert [type(v) for v in published.values()] == [type(v) for v in record.values()]


def test_brightness_assess_verdicts(rig, satellites):
    dispatcher, bridge, backend = rig
    assert dispatcher.dispatch(call("brightness_assess")).payload["verdict"] == "nominal"
    bridge.reset(make_task("rendezvous", condition="C2"), seed=0)
    assert (
        dispatcher.dispatch(call("brightness_assess")).payload["verdict"]
        == "underexposed"
    )
    bridge.reset(make_task("rendezvous", condition="C3"), seed=0)
    assert (
        dispatcher.dispatch(call("brightness_assess")).payload["verdict"]
        == "overexposed"
    )


def test_segment_parts_needs_light_and_visibility(rig):
    dispatcher, bridge, _ = rig
    parts = dispatcher.dispatch(call("segment_parts")).payload["parts"]
    assert parts  # nominal conditions: target visible and lit
    bridge.reset(make_task("rendezvous", condition="C2"), seed=0)  # brightness 14
    assert dispatcher.dispatch(call("segment_parts")).payload["parts"] == []


def test_crop_region_filters_by_bearing(rig):
    dispatcher, _, _ = rig
    full = dispatcher.dispatch(call("segment_parts")).payload["parts"]
    cropped = dispatcher.dispatch(
        call("crop_region", az_min=-180.0, az_max=180.0)
    ).payload["parts"]
    assert cropped == full
    empty = dispatcher.dispatch(call("crop_region", az_min=170.0, az_max=180.0))
    assert empty.payload["parts"] == []


def test_part_bearings_are_deterministic(satellites):
    a = tools.part_bearing_offsets(satellites["CAPSTONE"], "antenna")
    b = tools.part_bearing_offsets(satellites["CAPSTONE"], "antenna")
    c = tools.part_bearing_offsets(satellites["CAPSTONE"], "thruster")
    assert a == b != c


def test_kb_lookup_returns_catalog_facts(rig, satellites):
    dispatcher, _, _ = rig
    payload = dispatcher.dispatch(call("kb_lookup")).payload
    assert payload["id"] == "CAPSTONE"
    assert payload["bounding_radius"] == satellites["CAPSTONE"].bounding_radius
    assert len(payload["parts"]) == len(satellites["CAPSTONE"].parts)
    missing = dispatcher.dispatch(call("kb_lookup", satellite_id="Sputnik"))
    assert missing.error_kind == tools.ERR_INVALID_ARGS


def _report(depth):
    """A report whose containers nest ``depth`` deep, itself counted."""
    report = {"a": 1}
    for _ in range(depth - 1):
        report = {"a": report}
    return report


@pytest.mark.parametrize("frames", [0, 300])
def test_args_are_checked_for_depth_alike_on_every_call_path(rig, frames):
    dispatcher, bridge, backend = rig
    terminate = tools.builtin_catalog().get("terminate")
    deepest = bus.MAX_JSON_DEPTH - 1  # the args object is one container
    assert _padded(frames, lambda: tools.validate_args(
        terminate, {"report": _report(deepest)})) is None
    for depth in (deepest + 1, 700):
        args = {"report": _report(depth)}
        problem = _padded(frames, lambda: tools.validate_args(terminate, args))
        assert problem == "arg report: nests more than 100 containers deep"
        result = _padded(frames, lambda: dispatcher.dispatch(call("terminate", **args)))
        assert result.error_kind == tools.ERR_INVALID_ARGS
        assert result.payload == {"detail": problem}
    assert not bridge.terminated
    assert backend.get_latest(bus.CMD_TERMINATE) is None


def test_terminate_with_a_nested_non_finite_report_is_rejected(rig):
    dispatcher, bridge, backend = rig
    result = dispatcher.dispatch(call("terminate", report={"structure": float("nan")}))
    assert result.error_kind == tools.ERR_INVALID_ARGS
    assert not bridge.terminated
    assert backend.get_latest(bus.CMD_TERMINATE) is None


def test_zoom_result_stays_finite(rig):
    dispatcher, _, _ = rig
    assert dispatcher.dispatch(call("zoom", factor=2.0)).ok
    assert dispatcher.dispatch(call("zoom", factor=1e308)).error_kind == tools.ERR_INVALID_ARGS


def test_eval_expr_dispatch(rig):
    dispatcher, _, _ = rig
    assert dispatcher.dispatch(call("eval_expr", expression="6*7")).payload["value"] == 42
    bad = dispatcher.dispatch(call("eval_expr", expression="import os"))
    assert bad.error_kind == tools.ERR_EXPRESSION


def test_lidar_range_tool_mirrors_sensor(rig):
    dispatcher, _, _ = rig
    obs = dispatcher.latest_observation()
    payload = dispatcher.dispatch(call("lidar_range")).payload
    assert payload["range_m"] == obs["lidar_range"]


def test_result_invariant_ok_iff_no_error():
    with pytest.raises(AssertionError):
        tools.ToolResult(True, {}, tools.ERR_INVALID_ARGS)
    with pytest.raises(AssertionError):
        tools.ToolResult(False, {})


@given(st.text(max_size=40))
@settings(max_examples=60, deadline=None)
def test_safe_eval_never_crashes_the_process(expression):
    try:
        value = tools.safe_eval(expression)
    except tools.ToolError:
        return
    assert isinstance(value, (int, float))
