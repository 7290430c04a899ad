import copy
import dataclasses
import enum
import json
import math
import operator
import pickle
import re
import threading
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxagent import bus, env, reasoning, tools


def test_contract_keys_are_fixed():
    assert bus.SENSOR_RGB == "sensor/rgb/latest"
    assert bus.SENSOR_LIDAR == "sensor/lidar/latest"
    assert bus.CMD_POSE_DELTA == "cmd/pose_delta"
    assert bus.CMD_EXPOSURE == "cmd/exposure"
    assert bus.CMD_TERMINATE == "cmd/terminate"
    assert bus.CONTRACT_KEYS == (bus.SENSOR_RGB, bus.SENSOR_LIDAR, bus.CMD_POSE_DELTA,
                                 bus.CMD_EXPOSURE, bus.CMD_TERMINATE)


def rgb_payload(**over):
    payload = {
        "visible": True,
        "bearing_az": 1.0,
        "bearing_el": -2.0,
        "angular_size": 3.5,
        "mean_brightness": 140.0,
        "exposure_gain": 1.0,
        "step_index": 0,
        "collided": False,
        "true_range": 14.0,
    }
    payload.update(over)
    return payload


def test_encode_is_sorted_utf8_json():
    raw = bus.encode({"b": 1, "a": 2})
    assert raw == b'{"a": 2, "b": 1}'
    assert json.loads(raw.decode("utf-8")) == {"a": 2, "b": 1}


def test_publish_unknown_key_rejected():
    backend = bus.InProcessBus()
    with pytest.raises(bus.BusError):
        backend.publish("sensor/thermal/latest", {})


def test_schema_validation_rejects_bad_payloads():
    backend = bus.InProcessBus()
    with pytest.raises(bus.SchemaViolation, match="missing field 'bearing_az'"):
        backend.publish(bus.SENSOR_RGB, {"visible": True})
    with pytest.raises(bus.SchemaViolation, match=re.escape(
            "payload for sensor/rgb/latest: field 'mean_brightness' must be a finite number, "
            "got 'bright'")):
        backend.publish(bus.SENSOR_RGB, rgb_payload(mean_brightness="bright"))
    # booleans are not numbers
    with pytest.raises(bus.SchemaViolation, match=re.escape(
            "payload for sensor/rgb/latest: field 'bearing_az' must be a finite number, "
            "got True")):
        backend.publish(bus.SENSOR_RGB, rgb_payload(bearing_az=True))
    # neither are non-finite floats, nor an integer too large for a float
    for number, shown in ((float("nan"), "nan"), (float("inf"), "inf"),
                          (float("-inf"), "-inf"), (10**400, "1" + "0" * 59)):
        delta = {"dx": number, "dy": 0.0, "dz": 0.0, "dyaw": 0.0, "dpitch": 0.0, "droll": 0.0}
        with pytest.raises(bus.SchemaViolation) as refused:
            backend.publish(bus.CMD_POSE_DELTA, delta)
        assert str(refused.value) == ("payload for cmd/pose_delta: field 'dx' must be a "
                                      f"finite number, got {shown}")
    # a payload must be a record, not its encoding
    with pytest.raises(bus.SchemaViolation, match=re.escape(
            "payload for cmd/terminate: must be an object, got b'{}'")):
        backend.publish(bus.CMD_TERMINATE, b"{}")
    assert backend.get_latest(bus.CMD_POSE_DELTA) is None
    assert backend.get_latest(bus.CMD_TERMINATE) is None


@pytest.mark.parametrize("report", [
    {"structure": float("nan")},
    {"parts": [1.0, float("inf")]},
    {"scale": {"radius_m": -float("inf")}},
    {"scale": 10**400},
    {"parts": ("a tuple", "is not JSON")},
    {1: "a key that is not a string"},
    {"condition": object()},
])
def test_values_json_cannot_carry_are_rejected_at_any_depth(report):
    backend = bus.InProcessBus()
    with pytest.raises(bus.SchemaViolation):
        backend.publish(bus.CMD_TERMINATE, {"reason": "done", "report": report})
    assert backend.get_latest(bus.CMD_TERMINATE) is None


def test_encode_never_writes_nan_or_infinity():
    for number in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            bus.encode({"report": {"structure": number}})


def test_published_record_is_copied_not_shared():
    backend = bus.InProcessBus()
    record = {"reason": "done", "report": {"parts": ["solar array"]}}
    backend.publish(bus.CMD_TERMINATE, record)
    record["reason"] = "changed"
    record["report"]["parts"].append("changed")
    assert backend.get_latest(bus.CMD_TERMINATE).record() == {
        "reason": "done", "report": {"parts": ["solar array"]}}


def _nested_report_record(depth):
    """A cmd/terminate record whose containers nest ``depth`` deep, itself
    counted."""
    record = {"a": 1}
    for _ in range(depth - 1):
        record = {"report": record}
    return record


def test_a_record_nests_at_most_max_json_depth_deep():
    backend = bus.InProcessBus()
    deepest = bus.MAX_JSON_DEPTH
    for record in (_nested_report_record(deepest), {"report": _nested_lists(deepest - 2)}):
        backend.publish(bus.CMD_TERMINATE, record)
        assert backend.get_latest(bus.CMD_TERMINATE).record() == record
    for record in (_nested_report_record(deepest + 1), {"report": _nested_lists(deepest - 1)}):
        with pytest.raises(bus.SchemaViolation, match="nests more than 100 containers deep"):
            backend.publish(bus.CMD_TERMINATE, record)
    assert backend.get_latest(bus.CMD_TERMINATE).seq == 2


def test_lidar_payload_allows_null_range():
    backend = bus.InProcessBus()
    backend.publish(bus.SENSOR_LIDAR, {"range_m": None})
    backend.publish(bus.SENSOR_LIDAR, {"range_m": 3.2})
    assert backend.get_latest(bus.SENSOR_LIDAR).record() == {"range_m": 3.2}


def test_record_returns_a_private_copy():
    backend = bus.InProcessBus()
    seen = []
    backend.subscribe(bus.CMD_TERMINATE, lambda m: seen.append(m))
    report = {"structure": "box bus", "parts": ["solar array"]}
    backend.publish(bus.CMD_TERMINATE, {"reason": "done", "report": report})
    first = seen[0].record()
    first["reason"] = "changed"
    first["report"]["structure"] = "changed"
    first["report"]["parts"].append("changed")
    expected = {"reason": "done", "report": report}
    assert seen[0].record() == expected
    assert backend.get_latest(bus.CMD_TERMINATE).record() == expected

    backend.publish(bus.SENSOR_RGB, rgb_payload())
    backend.get_latest(bus.SENSOR_RGB).record()["bearing_az"] = 99.0
    assert backend.get_latest(bus.SENSOR_RGB).record() == rgb_payload()


def test_per_key_fifo_and_seq():
    backend = bus.InProcessBus()
    seen = []
    backend.subscribe(bus.SENSOR_LIDAR, lambda m: seen.append(m.record()["range_m"]))
    for i in range(5):
        backend.publish(bus.SENSOR_LIDAR, {"range_m": i})
    assert seen == [0, 1, 2, 3, 4]
    assert backend.get_latest(bus.SENSOR_LIDAR).seq == 5


def test_at_most_once_delivery_per_subscriber():
    backend = bus.InProcessBus()
    counts = {"a": 0, "b": 0}
    backend.subscribe(bus.CMD_TERMINATE, lambda m: counts.__setitem__("a", counts["a"] + 1))
    sub_b = backend.subscribe(
        bus.CMD_TERMINATE, lambda m: counts.__setitem__("b", counts["b"] + 1)
    )
    backend.publish(bus.CMD_TERMINATE, {})
    sub_b.cancel()
    backend.publish(bus.CMD_TERMINATE, {})
    assert counts == {"a": 2, "b": 1}


def test_get_latest_before_any_publish_is_none():
    backend = bus.InProcessBus()
    assert backend.get_latest(bus.SENSOR_RGB) is None


def test_handler_exception_does_not_break_the_bus():
    backend = bus.InProcessBus()
    seen = []

    def bad(_msg):
        raise RuntimeError("handler bug")

    backend.subscribe(bus.CMD_TERMINATE, bad)
    backend.subscribe(bus.CMD_TERMINATE, lambda m: seen.append(1))
    backend.publish(bus.CMD_TERMINATE, {})
    assert seen == [1]


def test_subscriber_changes_during_a_publish_apply_from_the_next_one():
    backend = bus.InProcessBus()
    seen, subs = [], {}

    def first(_msg):
        seen.append("first")
        subs["first"].cancel()
        subs["second"].cancel()
        backend.subscribe(bus.CMD_TERMINATE, lambda m: seen.append("late"))

    subs["first"] = backend.subscribe(bus.CMD_TERMINATE, first)
    subs["second"] = backend.subscribe(bus.CMD_TERMINATE, lambda m: seen.append("second"))
    backend.publish(bus.CMD_TERMINATE, {})
    assert seen == ["first", "second"]
    backend.publish(bus.CMD_TERMINATE, {})
    assert seen == ["first", "second", "late"]


def test_concurrent_publishers_keep_per_key_ordering():
    backend = bus.InProcessBus()
    seen = []
    backend.subscribe(bus.SENSOR_LIDAR, lambda m: seen.append(m.seq))

    def worker():
        for _ in range(50):
            backend.publish(bus.SENSOR_LIDAR, {"range_m": 0.0})

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert seen == sorted(seen)
    assert len(seen) == 200


def test_make_backend_names():
    assert isinstance(bus.make_backend("inprocess"), bus.InProcessBus)
    with pytest.raises(bus.BusError):
        bus.make_backend("zeromq")


# -- the checks against the two-pass reference --------------------------
#
# The validation and copy code written out plainly, kept here as the
# reference: for any record, the program must give an equal private copy or
# raise the same error.


_REFERENCE_PLAIN = frozenset({str, bool, type(None)})


def reference_json_copy(value, where):
    if isinstance(value, dict):
        record = {}
        for name, item in value.items():
            if not isinstance(name, str):
                raise bus.SchemaViolation(f"{where}: key {name!r} is not a string")
            kind = type(item)
            if kind is float:
                if not math.isfinite(item):
                    raise bus.SchemaViolation(
                        f"{where}.{name}: not a finite number in float range")
            elif kind not in _REFERENCE_PLAIN:
                item = reference_json_copy(item, f"{where}.{name}")
            record[name] = item
        return record
    if isinstance(value, list):
        return [reference_json_copy(item, f"{where}[{i}]") for i, item in enumerate(value)]
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, (int, float)):
        if not bus.is_finite_number(value):
            raise bus.SchemaViolation(f"{where}: not a finite number in float range")
        return value
    raise bus.SchemaViolation(f"{where}: {type(value).__name__} cannot be carried as JSON")


def reference_fits(kind, value):
    number = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and bus.is_finite_number(value))
    if kind is bus.BOOLEAN:
        return isinstance(value, bool)
    if kind is bus.INTEGER:
        return isinstance(value, int) and not isinstance(value, bool)
    if kind is bus.NUMBER:
        return number
    return value is None or number  # range_m: a number or null


def reference_validate_payload(key, record):
    if key not in bus.CONTRACT_KEYS:
        raise bus.UnknownKey(f"not a contract key: {key!r}")
    if not isinstance(record, dict):
        raise bus.SchemaViolation(f"payload for {key}: must be an object, got {record!r:.60}")
    for field, kind in bus.CHANNEL_SCHEMAS[key].items():
        if field not in record:
            raise bus.SchemaViolation(f"payload for {key}: missing field {field!r}")
        value = record[field]
        if not reference_fits(kind, value):
            raise bus.SchemaViolation(f"payload for {key}: field {field!r} must be {kind[1]}, "
                                      f"got {value!r:.60}")
    return reference_json_copy(record, key)


def reference_record(payload):
    record = dict(payload)
    for name, value in record.items():
        if isinstance(value, (dict, list)):
            record[name] = copy.deepcopy(value)
    return record


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 10**400  # an IntEnum beyond float range


class Metres(float):
    pass


class Label(str):
    pass


_scalars = st.one_of(
    st.booleans(),
    st.integers(),
    st.sampled_from([2**1023, 2**1024, -(2**1024), 10**400, -(10**400)]),
    st.floats(),  # NaN and the infinities included
    st.sampled_from([Level.LOW, Level.HIGH, Metres(2.5), Metres("inf"), Label("a")]),
    st.text(max_size=5),
    st.none(),
    st.sampled_from([(1.0, 2.0), b"raw", object(), {1.0}]),
)
_keys = st.one_of(st.text(max_size=5), st.integers(), st.none(), st.just(Label("k")))
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_keys, inner, max_size=3)),
    max_leaves=8,
)


@st.composite
def keyed_records(draw):
    key = draw(st.sampled_from(bus.CONTRACT_KEYS + ("sensor/thermal/latest",)))
    if draw(st.integers(0, 19)) == 0:  # not a record at all
        return key, draw(st.one_of(_values, st.just(b"{}")))
    record = {}
    for field, kind in bus.CHANNEL_SCHEMAS.get(key, {}).items():
        choice = draw(st.integers(0, 9))
        if choice == 0:
            continue  # missing
        if choice <= 5:  # a value of the field's kind, as the env sends
            if kind is bus.BOOLEAN:
                strategy = st.booleans()
            elif kind is bus.INTEGER:
                strategy = st.integers()
            else:  # a number, which range_m may leave null
                strategy = st.one_of(st.integers(), st.floats(), st.none())
            record[field] = draw(strategy)
        else:
            record[field] = draw(_values)
    record.update(draw(st.dictionaries(_keys, _values, max_size=3)))
    return key, record


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def containers(value):
    """The ids of every dict and list in ``value``, at any depth."""
    found = set()
    if isinstance(value, (dict, list)):
        found.add(id(value))
        for item in value.values() if isinstance(value, dict) else value:
            found |= containers(item)
    return found


@given(keyed_records())
@settings(max_examples=400, deadline=None)
def test_compiled_validation_matches_the_reference(case):
    key, record = case
    got = outcome(bus.validate_payload, key, record)
    want = outcome(reference_validate_payload, key, record)
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    copied = got[1]
    assert repr(copied) == repr(want[1])  # equal, with the same types
    assert not containers(copied) & containers(record)
    message = bus.BusMessage(key, copied, 1, 0)
    private = message.record()
    assert repr(private) == repr(reference_record(copied))
    assert not containers(private) & containers(copied)


def two_walk_validate_payload(key, record):
    """``validate_payload`` as two walks, the schema's and the copy's."""
    bus.check_key(key)
    problem = bus.field_problem(bus.CHANNEL_SCHEMAS[key], record)
    if problem is not None:
        raise bus.SchemaViolation(f"payload for {key}: {problem}")
    return bus.json_copy(record, key)


_flat_scalars = st.one_of(
    st.booleans(), st.integers(), st.floats(), st.text(max_size=5), st.none(),
    st.sampled_from([10**400, -(10**400), 2**1024, math.nan, math.inf, -math.inf]),
)


@st.composite
def flat_records(draw):
    """A record for a contract key: most of them flat, and most of those valid."""
    key = draw(st.sampled_from(bus.CONTRACT_KEYS))
    if draw(st.integers(0, 19)) == 0:  # not a record at all
        return key, draw(_values)
    record = {}
    spoilt = draw(st.booleans())  # else every field is of its kind
    for field, kind in bus.CHANNEL_SCHEMAS[key].items():
        choice = draw(st.integers(0, 9)) if spoilt else 1
        if choice == 0:
            continue  # missing
        if choice <= 6:  # of the field's kind
            if kind is bus.BOOLEAN:
                strategy = st.booleans()
            elif kind is bus.INTEGER:
                strategy = st.integers(-10**6, 10**6)
            else:
                strategy = st.floats(allow_nan=False, allow_infinity=False)
            record[field] = draw(strategy)
        else:  # maybe of another kind, not finite, or nested
            record[field] = draw(_flat_scalars if choice <= 8 else _values)
    names = _keys if draw(st.integers(0, 3)) == 0 else st.text(max_size=5)
    extras = _flat_scalars if draw(st.booleans()) else _values
    record.update(draw(st.dictionaries(names, extras, max_size=3)))
    return key, record


@given(flat_records())
@example((bus.SENSOR_LIDAR, {"range_m": 1.0, "extra": math.nan}))  # valid but for an extra
@example((bus.CMD_EXPOSURE, {"gain_delta": 0.5, "extra": -math.inf}))
@example((bus.CMD_TERMINATE, {"extra": 10**400}))
@settings(max_examples=500, deadline=None)
def test_one_walk_validation_matches_two_walks(case):
    key, record = case
    got = outcome(bus.validate_payload, key, record)
    want = outcome(two_walk_validate_payload, key, record)
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got == (bus.SchemaViolation, want[1])
        return
    assert got[1] == record
    assert not containers(got[1]) & containers(record)  # a new record, sharing no container
    assert repr(got[1]) == repr(want[1])  # the same types, in the same order


@given(_values)
@settings(max_examples=300, deadline=None)
def test_json_copy_matches_the_reference(value):
    got = outcome(bus.json_copy, value, "report")
    want = outcome(reference_json_copy, value, "report")
    assert got[0] == want[0]
    assert (repr(got[1]) if got[0] == "ok" else got[1]) == (
        repr(want[1]) if want[0] == "ok" else want[1])


def test_subclasses_pass_the_schema_and_bools_do_not():
    delta = {"dx": Level.LOW, "dy": Metres(0.5), "dz": 0, "dyaw": 0.0, "dpitch": 0.0,
             "droll": 0.0}
    assert bus.validate_payload(bus.CMD_POSE_DELTA, delta) == delta
    with pytest.raises(bus.SchemaViolation, match=re.escape(
            "payload for cmd/pose_delta: field 'dx' must be a finite number, got <Level.HIGH: ")):
        bus.validate_payload(bus.CMD_POSE_DELTA, {**delta, "dx": Level.HIGH})
    with pytest.raises(bus.SchemaViolation, match=re.escape(
            "payload for sensor/rgb/latest: field 'step_index' must be an integer, got True")):
        bus.validate_payload(bus.SENSOR_RGB, rgb_payload(step_index=True))


class Small(enum.IntEnum):
    TWO = 2


@pytest.mark.parametrize("value,accepted", [
    (True, False), (math.nan, False), (math.inf, False), (-math.inf, False),
    (10**400, False), (Small.TWO, True), (Metres(2.5), True),
], ids=["true", "nan", "inf", "-inf", "10**400", "int-enum", "float-subclass"])
def test_every_boundary_reads_a_number_field_alike(value, accepted):
    def bus_field():
        delta = dict.fromkeys(bus.CHANNEL_SCHEMAS[bus.CMD_POSE_DELTA], 0.0)
        bus.validate_payload(bus.CMD_POSE_DELTA, {**delta, "dx": value})

    def tool_arg():
        problem = tools.validate_args(tools.builtin_catalog()["set_position"],
                                      {"dx": value, "dy": 0.0, "dz": 0.0})
        assert problem is None, problem

    def catalog_field():
        entry = {"id": "X", "position": [0, 0, 0], "bounding_radius": 1.0, "parts": [],
                 "ground_truth_report": dict.fromkeys(env.REPORT_DIMENSIONS, "")}
        env._catalog_entry({**entry, "base_luminance": value}, "entry 0")

    def provider_option():
        reasoning.make_provider({"kind": "remote", "endpoint": "http://127.0.0.1:9/v1",
                                 "timeout": value})

    verdicts = {}
    for boundary in (bus_field, tool_arg, catalog_field, provider_option):
        try:
            boundary()
        except (AssertionError, bus.SchemaViolation, env.EnvError, reasoning.ReasoningError):
            verdicts[boundary.__name__] = False
        else:
            verdicts[boundary.__name__] = True
    assert verdicts == dict.fromkeys(verdicts, accepted)


def test_a_value_too_long_or_deep_to_print_is_named_by_its_type():
    deep = []
    for _ in range(100_000):
        deep = [deep]
    for value, kind in ((10**5000, "int"), (deep, "list")):
        assert bus.field_problem({"dx": bus.NUMBER}, {"dx": value}) == (
            f"field 'dx' must be a finite number, got a value of type {kind}")
        assert tools.validate_args(tools.builtin_catalog()["set_exposure"],
                                   {"gain_delta": value}) == (
            f"arg 'gain_delta' must be a finite number, got a value of type {kind}")


@dataclasses.dataclass
class _Section:
    pass


def _keywords(count: int, ratio: Optional[float], inner: _Section, *rest, items: list = (),
              flags: Optional[dict] = None, on: bool = False, **more):
    pass


def _with_a_set(count: int, tags: set):
    pass


def test_a_parameter_table_is_read_off_the_signature():
    table, defaulted = bus.parameter_table(_keywords)
    assert table == {"count": bus.INTEGER, "ratio": bus.NUMBER, "inner": bus.OBJECT,
                     "items": bus.ARRAY, "flags": bus.OBJECT, "on": bus.BOOLEAN}
    assert defaulted == ("items", "flags", "on")
    table, defaulted = bus.parameter_table(reasoning.RemoteProvider)
    assert table == {"endpoint": bus.STRING, "model": bus.STRING, "temperature": bus.NUMBER,
                     "timeout": bus.NUMBER, "api_key": bus.STRING}
    assert defaulted == ("model", "temperature", "timeout", "api_key")
    # a field type without a kind is refused, never judged as an object
    with pytest.raises(TypeError, match="^_with_a_set: no field kind for tags: <class 'set'>$"):
        bus.parameter_table(_with_a_set)


def test_bus_message_is_immutable():
    message = bus.BusMessage(bus.CMD_TERMINATE, {}, 1, 0)
    with pytest.raises(AttributeError):
        message.seq = 2


# -- the prebuilt encoders against the stdlib ----------------------------

_json_text = st.one_of(
    st.text(max_size=6),  # non-ASCII included
    st.sampled_from(['"', "\\", "\n\t\x00", " ", "é", "\U0001f600", "\ud800"]),
)
_json_values = st.recursive(
    st.one_of(
        st.booleans(), st.none(), st.integers(), _json_text,
        st.sampled_from([2**1024, -(10**400)]),  # beyond float range
        st.floats(),  # NaN and the infinities included
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(_json_text, inner, max_size=3),
        # mixed key types: sorting them fails the same way in both
        st.dictionaries(st.one_of(_json_text, st.integers()), inner, max_size=3),
    ),
    max_leaves=10,
)


def fail_inside(dumps, value):
    """Encode ``value`` with an item JSON cannot carry added to it, so that
    the encode fails while ``value``'s own containers are open; then take
    the item out again. A value that is no container fails inside a list."""
    extra = object()
    if isinstance(value, list):
        value.append(extra)
    elif isinstance(value, dict):
        value[extra] = extra
    with pytest.raises((TypeError, ValueError)):
        dumps(value if isinstance(value, (list, dict)) else [value, extra])
    if isinstance(value, list):
        value.pop()
    elif isinstance(value, dict):
        del value[extra]


@given(_json_values)
@settings(max_examples=400, deadline=None)
def test_prebuilt_encoders_match_json_dumps(value):
    fail_inside(bus.dumps_strict, value)  # each encode follows one that failed
    assert outcome(bus.dumps_strict, value) == outcome(
        lambda v: json.dumps(v, sort_keys=True, allow_nan=False), value)


# -- read-only values ----------------------------------------------------

_native_values = st.recursive(  # JSON-native: what read_only is given
    st.one_of(st.booleans(), st.none(), st.integers(-(2**64), 2**64), _json_text,
              st.floats(allow_nan=False, allow_infinity=False)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_json_text, inner, max_size=3)),
    max_leaves=12,
)

# Every method of dict and list that changes the container in place.
_CHANGES = {
    bus.ReadOnlyDict: (
        lambda d: d.__setitem__("k", 1), lambda d: d.__delitem__("k"),
        lambda d: operator.ior(d, {"k": 1}), lambda d: d.clear(), lambda d: d.pop("k", None),
        lambda d: d.popitem(), lambda d: d.setdefault("k", 1), lambda d: d.update(k=1),
    ),
    bus.ReadOnlyList: (
        lambda v: v.__setitem__(0, 1), lambda v: v.__delitem__(0),
        lambda v: operator.iadd(v, [1]), lambda v: operator.imul(v, 2), lambda v: v.append(1),
        lambda v: v.extend([1]), lambda v: v.insert(0, 1), lambda v: v.pop(),
        lambda v: v.remove(1), lambda v: v.clear(), lambda v: v.sort(), lambda v: v.reverse(),
    ),
}


def each_container(value):
    """Every dict and list in ``value``, ``value`` itself first if it is one."""
    if isinstance(value, dict):
        yield value
        for item in value.values():
            yield from each_container(item)
    elif isinstance(value, list):
        yield value
        for item in value:
            yield from each_container(item)


@given(_native_values)
@settings(max_examples=300, deadline=None)
def test_a_read_only_value_equals_its_source_and_refuses_every_change(value):
    frozen = bus.read_only(value)
    assert frozen == value
    assert bus.dumps_strict(frozen) == bus.dumps_strict(value)
    assert bus.read_only(frozen) is frozen
    kinds = [type(c) for c in each_container(frozen)]
    assert set(kinds) <= set(_CHANGES)
    for kept in (copy.deepcopy(frozen), pickle.loads(pickle.dumps(frozen))):
        assert kept == value
        assert [type(c) for c in each_container(kept)] == kinds
    for container in each_container(frozen):
        for change in _CHANGES[type(container)]:
            with pytest.raises(TypeError):
                change(container)
    assert frozen == value


@given(_native_values)
@settings(max_examples=300, deadline=None)
def test_a_copy_of_a_read_only_value_is_plain_and_free_to_change(value):
    frozen = bus.read_only(value)
    copies = [bus.json_copy(frozen, "value"), bus.record_copy({"value": frozen})["value"]]
    if isinstance(frozen, dict):
        copies.append(bus.record_copy(frozen))
    for copied in copies:
        assert copied == value
        for container in each_container(copied):
            assert type(container) in (dict, list)
            container.clear()
    assert frozen == value


def test_prebuilt_encoders_refuse_a_circular_record():
    record = {"a": 1}
    record["self"] = record
    with pytest.raises(RecursionError):  # the encoder's recursion guard
        bus.dumps_strict(record)


def _nested_lists(depth):
    deep = []
    for _ in range(depth):
        deep = [deep]
    return deep


TOO_DEEP_TO_ENCODE = _nested_lists(100_000)


@pytest.mark.parametrize("dumps,bad,error", [
    pytest.param(bus.dumps_strict, float("nan"), ValueError, id="strict-nan"),
    pytest.param(bus.dumps_strict, object(), TypeError, id="strict-object"),
    pytest.param(bus.dumps_strict, TOO_DEEP_TO_ENCODE, RecursionError, id="strict-deep"),
])
def test_an_encode_that_failed_leaves_no_stale_markers(dumps, bad, error):
    record = {"a": bad}
    with pytest.raises(error):
        dumps(record)
    record["a"] = 1.0
    assert dumps(record) == '{"a": 1.0}'


def test_each_thread_encodes_with_its_own_markers():
    started, release = threading.Event(), threading.Event()
    waiting = []  # the thread whose encode waits with the value open

    class Slow(dict):
        def items(self):
            if threading.current_thread() is waiting[0]:
                started.set()
                release.wait(10)
            return super().items()

    value = Slow(a=[1])
    results = {}

    def encode(name):
        results[name] = outcome(bus.dumps_strict, value)

    first = threading.Thread(target=encode, args=("first",))
    second = threading.Thread(target=encode, args=("second",))
    waiting.append(first)
    first.start()
    try:
        assert started.wait(10)
        second.start()
        second.join(10)
        assert not second.is_alive()
    finally:
        release.set()
        first.join(10)
    assert not first.is_alive()
    assert results == {"first": ("ok", '{"a": [1]}'), "second": ("ok", '{"a": [1]}')}


def test_an_encode_from_inside_an_encode_leaves_the_outer_one_intact():
    inner = []

    class Noisy(dict):
        def items(self):
            inner.append(outcome(bus.dumps_strict, {"x": float("nan")}))
            inner.append(outcome(bus.dumps_strict, {"y": [1]}))
            return super().items()

    assert bus.dumps_strict(Noisy(a=[1])) == '{"a": [1]}'
    refused = outcome(lambda v: json.dumps(v, allow_nan=False), {"x": float("nan")})
    assert refused[0] is ValueError
    assert inner == [refused, ("ok", '{"y": [1]}')]


def test_without_the_c_encoder_the_reference_encodes(monkeypatch):
    monkeypatch.setattr(bus, "c_make_encoder", None)
    reference = json.JSONEncoder(sort_keys=True, check_circular=False)
    assert bus._stateless(reference) == reference.encode


# -- the one JSON reader against the stdlib ------------------------------

def read_outcome(loads, text):
    """What ``loads(text)`` gives: the value's repr (NaN and -0.0 compare
    by their text), or the exception's type and message."""
    result = outcome(loads, text)
    return ("ok", repr(result[1])) if result[0] == "ok" else result


def assert_reads_as_json_loads(text):
    assert read_outcome(bus.loads, text) == read_outcome(json.loads, text)


_json_blank = st.text(alphabet=" \t\n\r\x0c\x0b\xa0\ufeff", max_size=3)


@given(st.one_of(
    st.text(max_size=12),
    st.text(alphabet='{}[]":,.-+0123456789eEtrufalsnNI \t\n\r\\\x0c\ufeff', max_size=16),
))
@settings(max_examples=1000, deadline=None)
def test_loads_reads_any_text_as_json_loads_does(text):
    assert_reads_as_json_loads(text)
    assert_reads_as_json_loads(text.encode("utf-8", "surrogatepass"))


@given(_json_values, _json_blank, _json_blank, st.sampled_from(["", "x", "{}", " 1"]))
@settings(max_examples=400, deadline=None)
def test_loads_reads_padded_json_as_json_loads_does(value, before, after, extra):
    text = before + json.dumps(value) + after
    for case in (text, text + extra, text.encode(), bytearray(text.encode("utf-16"))):
        assert_reads_as_json_loads(case)


@pytest.mark.parametrize("text", [
    '{"dx": 1.0, "dy": 0}', '{"dx": 1.0} \n\t\r', " [1]", "\ufeff[1]", "[1] [2]", "[1]\x0c",
    "NaN", "[Infinity, -Infinity]", "1e999", "-0.0", "", "  ", '"\\q"', '"\ud800"',
    "[" * 5000 + "]" * 5000, "1" * 5000,
    b'{"a": 1}', b"\xef\xbb\xbf[1]", '[1] '.encode("utf-16"), bytearray(b"[1]"), 7, None,
], ids=lambda text: repr(text)[:24])
def test_loads_reads_edge_cases_as_json_loads_does(text):
    assert_reads_as_json_loads(text)


def test_a_too_deep_value_is_named_by_its_top_level_field():
    for depth in (bus.MAX_JSON_DEPTH, 700, 5000):
        for deep in (_nested_report_record(depth), _nested_lists(depth)):
            with pytest.raises(bus.SchemaViolation) as refused:
                bus.validate_payload(bus.CMD_TERMINATE, {"report": deep})
            assert str(refused.value) == "cmd/terminate.report: nests more than 100 containers deep"
    with pytest.raises(bus.SchemaViolation) as refused:
        bus.validate_payload(bus.CMD_TERMINATE, {"report": [0, [1, {"b": 2}, [_nested_lists(700)]]]})
    assert str(refused.value) == "cmd/terminate.report: nests more than 100 containers deep"
    # the top-level field of a list is its index, and a walk from depth 1
    # names the field below ``where``
    for value, where, name in (([0, _nested_lists(150)], "report", "report[1]"),
                               ({"a": [_nested_lists(150)]}, "x", "x.a")):
        with pytest.raises(bus.SchemaViolation) as refused:
            bus.json_copy(value, where)
        assert str(refused.value) == f"{name}: nests more than 100 containers deep"
    # every other refusal keeps the whole path to the refused value
    with pytest.raises(bus.SchemaViolation) as refused:
        bus.validate_payload(bus.CMD_TERMINATE, {"report": [0, [1, {"b": float("nan")}]]})
    assert str(refused.value) == "cmd/terminate.report[1][1].b: not a finite number in float range"
