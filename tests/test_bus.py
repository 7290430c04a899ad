import json
import threading

import pytest

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
