import copy
import enum
import json
import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxagent import bus


def test_contract_keys_are_fixed():
    assert bus.SENSOR_RGB == "sensor/rgb/latest"
    assert bus.SENSOR_LIDAR == "sensor/lidar/latest"
    assert bus.SENSOR_RGB_NOTIFY == "sensor/rgb/notify"
    assert bus.CMD_POSE_DELTA == "cmd/pose_delta"
    assert bus.CMD_EXPOSURE == "cmd/exposure"
    assert bus.CMD_TERMINATE == "cmd/terminate"


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
    with pytest.raises(bus.SchemaViolation, match="mean_brightness: expected .* got str"):
        backend.publish(bus.SENSOR_RGB, rgb_payload(mean_brightness="bright"))
    # booleans are not numbers
    with pytest.raises(bus.SchemaViolation, match="bearing_az: expected .* got bool"):
        backend.publish(bus.SENSOR_RGB, rgb_payload(bearing_az=True))
    # neither are non-finite floats
    for number in (float("nan"), float("inf"), float("-inf")):
        delta = {"dx": number, "dy": 0.0, "dz": 0.0, "dyaw": 0.0, "dpitch": 0.0, "droll": 0.0}
        with pytest.raises(bus.SchemaViolation, match="dx: not a finite number"):
            backend.publish(bus.CMD_POSE_DELTA, delta)
    # nor is an integer too large for a float
    delta = {"dx": 10**400, "dy": 0.0, "dz": 0.0, "dyaw": 0.0, "dpitch": 0.0, "droll": 0.0}
    with pytest.raises(bus.SchemaViolation, match="dx: not a finite number"):
        backend.publish(bus.CMD_POSE_DELTA, delta)
    # a payload must be a record, not its encoding
    with pytest.raises(bus.SchemaViolation, match="must be a JSON object"):
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
    backend.subscribe(bus.SENSOR_RGB_NOTIFY, lambda m: seen.append(m.record()["seq"]))
    for i in range(5):
        backend.publish(bus.SENSOR_RGB_NOTIFY, {"seq": i})
    assert seen == [0, 1, 2, 3, 4]
    assert backend.get_latest(bus.SENSOR_RGB_NOTIFY).seq == 5


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
    backend.subscribe(bus.SENSOR_RGB_NOTIFY, lambda m: seen.append(m.seq))

    def worker():
        for _ in range(50):
            backend.publish(bus.SENSOR_RGB_NOTIFY, {"seq": 0})

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


# -- the compiled checks against the two-pass reference -----------------
#
# The validation and copy code as it was before the schema was compiled
# into per-key checks, kept here as the reference: for any record, the
# compiled code must give an equal private copy or raise the same error.


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


def reference_validate_payload(key, record):
    if key not in bus.CONTRACT_KEYS:
        raise bus.UnknownKey(f"not a contract key: {key!r}")
    if not isinstance(record, dict):
        raise bus.SchemaViolation(f"payload for {key} must be a JSON object")
    for field, types in bus.CHANNEL_SCHEMAS[key].items():
        if field not in record:
            raise bus.SchemaViolation(f"payload for {key} missing field {field!r}")
        value = record[field]
        if isinstance(value, bool) and bool not in types:
            raise bus.SchemaViolation(f"{key}.{field}: expected {types}, got bool")
        if not isinstance(value, types):
            raise bus.SchemaViolation(
                f"{key}.{field}: expected {types}, got {type(value).__name__}"
            )
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
    for field, types in bus.CHANNEL_SCHEMAS.get(key, {}).items():
        choice = draw(st.integers(0, 9))
        if choice == 0:
            continue  # missing
        if choice <= 5:  # a value of an accepted type, as the env sends
            kind = draw(st.sampled_from(types))
            strategy = {bool: st.booleans(), int: st.integers(), float: st.floats(),
                        type(None): st.none()}[kind]
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
    with pytest.raises(bus.SchemaViolation, match="dx: not a finite number"):
        bus.validate_payload(bus.CMD_POSE_DELTA, {**delta, "dx": Level.HIGH})
    with pytest.raises(bus.SchemaViolation, match=r"seq: expected \(<class 'int'>,\), got bool"):
        bus.validate_payload(bus.SENSOR_RGB_NOTIFY, {"seq": True})


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
    for dumps, options in ((bus.dumps_sorted, {}), (bus.dumps_strict, {"allow_nan": False})):
        fail_inside(dumps, value)  # each encode follows one that failed
        assert outcome(dumps, value) == outcome(
            lambda v: json.dumps(v, sort_keys=True, **options), value)


def test_prebuilt_encoders_refuse_a_circular_record():
    record = {"a": 1}
    record["self"] = record
    for dumps in (bus.dumps_sorted, bus.dumps_strict):
        with pytest.raises(ValueError, match="Circular reference detected"):
            dumps(record)


def _nested_lists(depth):
    deep = []
    for _ in range(depth):
        deep = [deep]
    return deep


TOO_DEEP_TO_ENCODE = _nested_lists(100_000)


@pytest.mark.parametrize("dumps,bad,error", [
    pytest.param(bus.dumps_strict, float("nan"), ValueError, id="strict-nan"),
    pytest.param(bus.dumps_sorted, object(), TypeError, id="sorted-object"),
    pytest.param(bus.dumps_strict, object(), TypeError, id="strict-object"),
    pytest.param(bus.dumps_sorted, TOO_DEEP_TO_ENCODE, RecursionError, id="sorted-deep"),
    pytest.param(bus.dumps_strict, TOO_DEEP_TO_ENCODE, RecursionError, id="strict-deep"),
])
def test_an_encode_that_failed_leaves_no_stale_markers(dumps, bad, error):
    record = {"a": bad}
    with pytest.raises(error):
        dumps(record)
    record["a"] = 1.0
    assert dumps(record) == '{"a": 1.0}'


def test_after_a_failed_encode_the_thread_keeps_its_encoder():
    class Counting(json.JSONEncoder):
        calls = 0

        def encode(self, o):
            Counting.calls += 1
            return super().encode(o)

    dumps = bus._per_thread(Counting(sort_keys=True, allow_nan=False))
    for bad in (float("nan"), object(), TOO_DEEP_TO_ENCODE):
        record = {"a": bad}
        with pytest.raises((ValueError, TypeError, RecursionError)):
            dumps(record)
        record["a"] = 1.0
        assert dumps(record) == '{"a": 1.0}'
    assert Counting.calls == 0  # no encode found stale markers and took the reference


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
        results[name] = outcome(bus.dumps_sorted, value)

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
    reference = json.JSONEncoder(sort_keys=True)
    assert bus._per_thread(reference) == reference.encode
