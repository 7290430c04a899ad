"""The Redis adapter against an in-test, stdlib-only stand-in for the ``redis``
package: the client methods the adapter calls (``from_url``, ``ping``,
``incr``, ``set``, ``get``, ``publish``, ``pubsub``), storing bytes and
delivering published messages on a background thread, as a server would."""

import json
import queue
import sys
import threading
import time
import types

import pytest

from proxagent import bus
from proxagent.env import load_satellite_catalog, make_task
from proxagent.runner import EpisodeConfig, run_episode


class FakeServer:
    def __init__(self):
        self.lock = threading.Lock()
        self.values = {}
        self.channels = {}  # channel name -> list of subscriber queues


class FakeRedis:
    server = None  # the server every client of one test talks to

    def __init__(self, server):
        self.server = server

    @classmethod
    def from_url(cls, url):
        return cls(cls.server)

    def ping(self):
        return True

    def incr(self, name):
        with self.server.lock:
            value = int(self.server.values.get(name, b"0")) + 1
            self.server.values[name] = str(value).encode()
            return value

    def set(self, name, value):
        with self.server.lock:
            self.server.values[name] = value.encode() if isinstance(value, str) else value

    def get(self, name):
        with self.server.lock:
            return self.server.values.get(name)

    def publish(self, name, message):
        data = message.encode() if isinstance(message, str) else message
        with self.server.lock:
            queues = list(self.server.channels.get(name, []))
        for inbox in queues:
            inbox.put({"type": "message", "channel": name.encode(), "data": data})
        return len(queues)

    def pubsub(self, ignore_subscribe_messages=False):
        return FakePubSub(self.server)


class FakePubSub:
    def __init__(self, server):
        self.server = server
        self.inbox = queue.Queue()
        self.handlers = {}

    def subscribe(self, **handlers):
        self.handlers.update(handlers)
        with self.server.lock:
            for name in handlers:
                self.server.channels.setdefault(name, []).append(self.inbox)

    def run_in_thread(self, sleep_time=0.0, daemon=False):
        return FakeWorker(self, sleep_time, daemon)

    def close(self):
        with self.server.lock:
            for name in self.handlers:
                self.server.channels[name].remove(self.inbox)


class FakeWorker(threading.Thread):
    def __init__(self, pubsub, sleep_time, daemon):
        super().__init__(daemon=daemon)
        self.pubsub = pubsub
        self.sleep_time = sleep_time
        self.stopped = threading.Event()
        self.start()

    def run(self):
        while not self.stopped.is_set():
            try:
                message = self.pubsub.inbox.get(timeout=self.sleep_time)
            except queue.Empty:
                continue
            self.pubsub.handlers[message["channel"].decode()](message)

    def stop(self):
        self.stopped.set()
        if threading.current_thread() is not self:
            self.join(timeout=1.0)


@pytest.fixture()
def server(monkeypatch):
    module = types.ModuleType("redis")
    module.Redis = FakeRedis
    monkeypatch.setitem(sys.modules, "redis", module)
    monkeypatch.setattr(FakeRedis, "server", FakeServer())
    return FakeRedis.server


def rgb_record(**over):
    record = {
        "visible": True, "bearing_az": 1.0, "bearing_el": -2.0, "angular_size": 3.5,
        "mean_brightness": 140.0, "exposure_gain": 1.0, "step_index": 0,
        "collided": False, "true_range": 14.0,
    }
    record.update(over)
    return record


def wait_for(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


def test_publish_and_get_latest_round_trip(server):
    backend = bus.make_backend("redis", url="redis://fake/0")
    assert backend.get_latest(bus.SENSOR_RGB) is None
    assert backend.publish(bus.SENSOR_RGB, rgb_record()) == 1
    assert backend.publish(bus.SENSOR_RGB, rgb_record(step_index=1)) == 2
    latest = backend.get_latest(bus.SENSOR_RGB)
    assert (latest.key, latest.seq) == (bus.SENSOR_RGB, 2)
    assert latest.record() == rgb_record(step_index=1)
    # on the wire the record is sorted-key JSON inside the envelope
    envelope = json.loads(server.values["proxagent:" + bus.SENSOR_RGB])
    assert envelope["payload"] == bus.encode(rgb_record(step_index=1)).decode()


def test_publish_validates_before_writing(server):
    backend = bus.RedisBusAdapter()
    with pytest.raises(bus.SchemaViolation, match="not a finite number"):
        backend.publish(bus.CMD_TERMINATE, {"report": {"structure": float("nan")}})
    with pytest.raises(bus.UnknownKey):
        backend.publish("sensor/thermal/latest", {})
    assert server.values == {}


def test_subscribe_round_trip_and_cancel(server):
    backend = bus.RedisBusAdapter()
    seen = []
    sub = backend.subscribe(bus.CMD_TERMINATE, lambda m: seen.append((m.seq, m.record())))
    report = {"structure": "box bus", "parts": ["solar array"]}
    backend.publish(bus.CMD_TERMINATE, {"reason": "done", "report": report})
    assert wait_for(lambda: len(seen) == 1)
    assert seen == [(1, {"reason": "done", "report": report})]
    sub.cancel()
    backend.publish(bus.CMD_TERMINATE, {})
    time.sleep(0.02)
    assert len(seen) == 1


def _envelope(payload, seq=1, timestamp=0):
    return json.dumps({"seq": seq, "timestamp": timestamp, "payload": payload})


@pytest.mark.parametrize("raw", [
    "not json at all",
    json.dumps(["a", "list"]),
    json.dumps({"seq": 1, "timestamp": 0}),
    _envelope("{truncated"),
    _envelope(json.dumps({"visible": True})),
    _envelope(json.dumps(rgb_record(bearing_az="left"))),
    _envelope(json.dumps(rgb_record(bearing_az=float("nan")))),
    _envelope(json.dumps(rgb_record()), seq="1"),
], ids=[
    "envelope-not-json", "envelope-not-object", "no-payload", "payload-not-json",
    "missing-fields", "wrong-type", "nan-on-the-wire", "seq-not-integer",
])
def test_foreign_malformed_payload_raises_on_read(server, raw):
    backend = bus.RedisBusAdapter()
    server.values["proxagent:" + bus.SENSOR_RGB] = raw.encode()
    with pytest.raises(bus.SchemaViolation):
        backend.get_latest(bus.SENSOR_RGB)


_RGB_TEXT = json.dumps(rgb_record())
_MALFORMED = "envelope for sensor/rgb/latest is malformed: "


@pytest.mark.parametrize("raw,verdict", [
    ((_envelope(_RGB_TEXT) + " \n\t\r").encode(), None),
    (("  " + _envelope(_RGB_TEXT)).encode(), None),
    ("\ufeff".encode() + _envelope(_RGB_TEXT).encode(), None),  # bytes: utf-8-sig
    ((_envelope(_RGB_TEXT) + " {}").encode(),
     _MALFORMED + "JSONDecodeError('Extra data: line 1 column 242 (char 241)')"),
    (_envelope(_RGB_TEXT + " \n").encode(), None),
    (_envelope(" " + _RGB_TEXT).encode(), None),
    (_envelope(_RGB_TEXT + "x").encode(),
     _MALFORMED + "JSONDecodeError('Extra data: line 1 column 182 (char 181)')"),
    (_envelope(_RGB_TEXT + "\x0c").encode(),
     _MALFORMED + "JSONDecodeError('Extra data: line 1 column 182 (char 181)')"),
    (_envelope("\ufeff" + _RGB_TEXT).encode(), _MALFORMED + "JSONDecodeError("
     "'Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)')"),
], ids=[
    "envelope-trailing-blanks", "envelope-leading-blanks", "envelope-bom", "envelope-extra-data",
    "payload-trailing-blanks", "payload-leading-blank", "payload-extra-data",
    "payload-form-feed", "payload-bom",
])
def test_padded_envelopes_and_payloads_read_as_json_reads_them(server, raw, verdict):
    backend = bus.RedisBusAdapter()
    server.values["proxagent:" + bus.SENSOR_RGB] = raw
    if verdict is None:
        assert backend.get_latest(bus.SENSOR_RGB).record() == rgb_record()
    else:
        with pytest.raises(bus.SchemaViolation) as refused:
            backend.get_latest(bus.SENSOR_RGB)
        assert str(refused.value) == verdict


def test_foreign_malformed_message_reaches_no_subscriber(server):
    backend = bus.RedisBusAdapter()
    seen = []
    sub = backend.subscribe(bus.SENSOR_LIDAR, lambda m: seen.append(m.record()))
    foreign = FakeRedis(server)
    foreign.publish("proxagent:" + bus.SENSOR_LIDAR, _envelope(json.dumps({"range_m": "x"})))
    backend.publish(bus.SENSOR_LIDAR, {"range_m": 7})
    assert wait_for(lambda: seen)
    time.sleep(0.02)
    assert seen == [{"range_m": 7}]
    sub.cancel()


@pytest.mark.parametrize("depth", [bus.MAX_JSON_DEPTH + 1, 5000])
def test_a_foreign_record_nested_too_deeply_raises_on_read(server, depth):
    backend = bus.RedisBusAdapter()
    lists = "[" * (depth - 1) + "]" * (depth - 1)  # inside the record, one container
    record = json.dumps(rgb_record())[:-1] + ', "extra": ' + lists + "}"
    server.values["proxagent:" + bus.SENSOR_RGB] = _envelope(record).encode()
    with pytest.raises(bus.SchemaViolation, match="nests more than 100 containers deep"):
        backend.get_latest(bus.SENSOR_RGB)


def test_episode_over_redis_matches_in_process(server, tmp_path):
    satellites = load_satellite_catalog()
    paths = {}
    for name in ("inprocess", "redis"):
        paths[name] = tmp_path / f"{name}.jsonl"
        config = EpisodeConfig(task=make_task("rendezvous"), seed=3,
                               trajectory_path=paths[name])
        result = run_episode(config, satellites=satellites,
                             backend=bus.make_backend(name))
        assert result.outcome.success
    assert paths["inprocess"].read_bytes() == paths["redis"].read_bytes()
