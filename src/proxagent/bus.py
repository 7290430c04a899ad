"""Environment-agnostic publish/subscribe message bus.

A fixed naming contract defines every channel the agent and the environment
may use, so the decision loop never branches on which backend it is talking
to. Sensor keys carry upstream data (environment -> agent), command keys
carry downstream data (agent -> environment). A payload is a record (a
dict) that fits the key's schema and holds only values JSON can carry,
nested at most ``MAX_JSON_DEPTH`` containers deep.

Ships an in-process backend (thread-safe, per-key FIFO, at-most-once
delivery), which carries validated records and never serializes them, plus
an adapter for an external Redis-style key-value pub/sub service, where
records travel as UTF-8 JSON. The adapter is optional; it requires the
``redis`` package and a reachable server, and it inherits that server's
native delivery semantics.
"""

from __future__ import annotations

import copy
import json
import math
import threading
import time
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Callable, NamedTuple, Optional


class BusError(Exception):
    pass


class UnknownKey(BusError):
    pass


class SchemaViolation(BusError):
    pass


class BackendUnavailable(BusError):
    pass


# Contract keys. Sensor keys are upstream-only, command keys downstream-only.
SENSOR_RGB = "sensor/rgb/latest"
SENSOR_LIDAR = "sensor/lidar/latest"
CMD_POSE_DELTA = "cmd/pose_delta"
CMD_EXPOSURE = "cmd/exposure"
CMD_TERMINATE = "cmd/terminate"

SENSOR_KEYS = (SENSOR_RGB, SENSOR_LIDAR)
COMMAND_KEYS = (CMD_POSE_DELTA, CMD_EXPOSURE, CMD_TERMINATE)
CONTRACT_KEYS = SENSOR_KEYS + COMMAND_KEYS
_CONTRACT_KEY_SET = frozenset(CONTRACT_KEYS)

_NUMBER = (int, float)

# Required fields per key: name -> accepted types. ``None`` in the tuple
# means the field may be null. Extra fields are allowed (e.g. diagnostic
# notes attached by the environment bridge).
CHANNEL_SCHEMAS: dict[str, dict[str, tuple]] = {
    SENSOR_RGB: {
        "visible": (bool,),
        "bearing_az": _NUMBER,
        "bearing_el": _NUMBER,
        "angular_size": _NUMBER,
        "mean_brightness": _NUMBER,
        "exposure_gain": _NUMBER,
        "step_index": (int,),
        "collided": (bool,),
        "true_range": _NUMBER,
    },
    SENSOR_LIDAR: {"range_m": _NUMBER + (type(None),)},
    CMD_POSE_DELTA: {
        "dx": _NUMBER,
        "dy": _NUMBER,
        "dz": _NUMBER,
        "dyaw": _NUMBER,
        "dpitch": _NUMBER,
        "droll": _NUMBER,
    },
    CMD_EXPOSURE: {"gain_delta": _NUMBER},
    CMD_TERMINATE: {},
}


def check_key(key: str) -> None:
    if key not in _CONTRACT_KEY_SET:
        raise UnknownKey(f"not a contract key: {key!r}")


def is_finite_number(value) -> bool:
    """True when ``value`` converts to a finite float. An integer beyond the
    float range does not: the simulator could not apply it."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_PLAIN = frozenset({str, bool, type(None)})

# Every JSON value the program takes in (a tool's args, a bus record) nests
# at most this many containers deep, the outermost counted, so that checking,
# carrying and encoding it need the same stack on every call path.
MAX_JSON_DEPTH = 100
TOO_DEEP = f"nests more than {MAX_JSON_DEPTH} containers deep"


_NOT_FINITE = "not a finite number in float range"


def json_copy(value, where: str, depth: int = 1):
    """A private copy of ``value``, which must be JSON-native: a dict with
    string keys, a list, a string, a finite number in float range, a bool or
    None, its containers no more than ``MAX_JSON_DEPTH`` deep, ``value``
    itself at ``depth``. Anything else raises SchemaViolation naming
    ``where`` and the path below it; a too-deep value is named by the field
    of the outermost container that holds it, which keeps the message
    short."""
    return _copy(value, where, depth, where)


def _copy(value, where: str, depth: int, deep: str):
    """``json_copy`` of ``value`` at path ``where``; ``deep`` is the name a
    too-deep container is refused under, the path at depth 2."""
    if depth > MAX_JSON_DEPTH and isinstance(value, (dict, list)):
        raise SchemaViolation(f"{deep}: {TOO_DEEP}")
    if depth <= 2:
        deep = where
    if isinstance(value, dict):
        record = {}
        for name, item in value.items():
            if not isinstance(name, str):
                raise SchemaViolation(f"{where}: key {name!r} is not a string")
            kind = type(item)
            # the common cases, checked inline
            if kind is float:
                if not math.isfinite(item):
                    raise SchemaViolation(f"{where}.{name}: {_NOT_FINITE}")
            elif kind is int:
                if not is_finite_number(item):
                    raise SchemaViolation(f"{where}.{name}: {_NOT_FINITE}")
            elif kind not in _PLAIN:
                item = _copy(item, f"{where}.{name}", depth + 1, deep)
            record[name] = item
        return record
    if isinstance(value, list):
        return [_copy(item, f"{where}[{i}]", depth + 1, deep) for i, item in enumerate(value)]
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, _NUMBER):
        if not is_finite_number(value):
            raise SchemaViolation(f"{where}: {_NOT_FINITE}")
        return value
    raise SchemaViolation(f"{where}: {type(value).__name__} cannot be carried as JSON")


# CHANNEL_SCHEMAS compiled for validate_payload: per key, one
# (field, exact types, accepted types) entry per required field.
_FIELD_CHECKS: dict[str, tuple[tuple[str, frozenset, tuple], ...]] = {
    key: tuple((name, frozenset(types), types) for name, types in schema.items())
    for key, schema in CHANNEL_SCHEMAS.items()
}


def validate_payload(key: str, record) -> dict:
    """Validate a record against the key's schema; return a private copy."""
    check_key(key)
    if not isinstance(record, dict):
        raise SchemaViolation(f"payload for {key} must be a JSON object")
    for field, exact, types in _FIELD_CHECKS[key]:
        if field not in record:
            raise SchemaViolation(f"payload for {key} missing field {field!r}")
        value = record[field]
        if type(value) in exact:
            continue
        # a subclass, such as an IntEnum, is accepted; bool is an int
        # subclass, rejected where a number is expected
        if isinstance(value, bool) and bool not in types:
            raise SchemaViolation(f"{key}.{field}: expected {types}, got bool")
        if not isinstance(value, types):
            raise SchemaViolation(
                f"{key}.{field}: expected {types}, got {type(value).__name__}"
            )
    return json_copy(record, key)


def _per_thread(reference: json.JSONEncoder) -> Callable[[object], str]:
    """``reference.encode``, with the C encoder that ``encode`` builds on
    every call built once per thread, from the same arguments.

    The encoder keeps the ids of the containers it is inside in its marker
    dict, the circular-reference check. So it is per thread, since Redis
    subscriber threads encode too and would see each other's containers as
    circular; and the markers are cleared when it raises (a NaN refused, a
    value JSON cannot carry, a recursion too deep), which leaves them
    behind, so that a later encode of the same container does not fail as
    circular. An encode from inside another on one thread (a dict
    subclass's ``items``) finds the markers in use and takes
    ``reference.encode``."""
    if c_make_encoder is None:
        return reference.encode
    local = threading.local()

    def encode(value) -> str:
        try:
            markers, encoder = local.encoder
        except AttributeError:
            markers = {}
            encoder = c_make_encoder(
                markers, reference.default, encode_basestring_ascii, None,
                reference.key_separator, reference.item_separator,
                reference.sort_keys, reference.skipkeys, reference.allow_nan,
            )
            local.encoder = markers, encoder
        if markers:
            return reference.encode(value)
        try:
            return "".join(encoder(value, 0))
        except BaseException:
            markers.clear()
            raise

    return encode


# The program's two JSON text formats. Both give the text of
# json.dumps(value, sort_keys=True), the strict one raising ValueError on
# NaN or Infinity as json.dumps(..., allow_nan=False) does.
dumps_sorted = _per_thread(json.JSONEncoder(sort_keys=True))
dumps_strict = _per_thread(json.JSONEncoder(sort_keys=True, allow_nan=False))


# json.loads(text) on a str skips leading whitespace, calls this same C
# scanner and checks that only whitespace follows the value, through three
# Python frames and two regular-expression matches; for the short, unpadded
# text the program reads, the scan is most of the work.
_scan_once = json.JSONDecoder().scan_once
_trailing_whitespace = json.decoder.WHITESPACE.match


def loads(text):
    """The program's one JSON reader: ``json.loads(text)``, the same value
    or the same exception with the same message. A str is scanned directly,
    and its value returned when at most JSON whitespace follows it. Any
    other input (bytes, a leading blank or BOM, text that is not JSON,
    extra data) is handed to json.loads, so each error is json.loads' own."""
    if type(text) is str:
        try:
            value, end = _scan_once(text, 0)
        except StopIteration:
            pass
        else:
            if end == len(text) or _trailing_whitespace(text, end).end() == len(text):
                return value
    return json.loads(text)


def encode(record: dict) -> bytes:
    """The wire form of a record: sorted-key UTF-8 JSON, never NaN or Infinity."""
    return dumps_strict(record).encode("utf-8")


_CONTAINERS = frozenset({dict, list})  # the container types json_copy makes


class BusMessage(NamedTuple):
    key: str
    payload: dict  # the validated record, owned by the bus: read it via record()
    seq: int
    timestamp: int  # milliseconds since epoch

    def record(self) -> dict:
        """The payload, as a copy the caller may change freely."""
        record = dict(self.payload)
        for name, value in record.items():
            if type(value) in _CONTAINERS:  # e.g. cmd/terminate's report
                record[name] = copy.deepcopy(value)
        return record


Handler = Callable[[BusMessage], None]


class Subscription:
    """Handle returned by subscribe(); transferable between threads."""

    def __init__(self, unsubscribe: Callable[[], None]):
        self._unsubscribe = unsubscribe
        self._active = True

    def cancel(self) -> None:
        if self._active:
            self._active = False
            self._unsubscribe()


class BusBackend:
    """Contract every backend implements. Agent modules depend only on this."""

    def publish(self, key: str, record: dict) -> int:
        raise NotImplementedError

    def get_latest(self, key: str) -> Optional[BusMessage]:
        raise NotImplementedError

    def subscribe(self, key: str, handler: Handler) -> Subscription:
        raise NotImplementedError


class InProcessBus(BusBackend):
    """Thread-safe in-process backend with per-key FIFO, at-most-once delivery.

    Handlers run synchronously on the publisher's thread, under a per-key
    delivery lock, which guarantees per-key ordering.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._seq: dict[str, int] = {key: 0 for key in CONTRACT_KEYS}
        self._latest: dict[str, BusMessage] = {}
        # replaced, never changed in place, so publish iterates it uncopied
        self._subs: dict[str, tuple[Handler, ...]] = {key: () for key in CONTRACT_KEYS}

    def publish(self, key: str, record: dict) -> int:
        payload = validate_payload(key, record)
        with self._lock:
            self._seq[key] += 1
            msg = BusMessage(key, payload, self._seq[key], int(time.time() * 1000))
            self._latest[key] = msg
            for handler in self._subs[key]:
                try:
                    handler(msg)
                except Exception:
                    # a misbehaving subscriber must not break the others
                    continue
            return msg.seq

    def get_latest(self, key: str) -> Optional[BusMessage]:
        check_key(key)
        with self._lock:
            return self._latest.get(key)

    def subscribe(self, key: str, handler: Handler) -> Subscription:
        check_key(key)
        with self._lock:
            self._subs[key] += (handler,)

        def _unsub() -> None:
            with self._lock:
                handlers = list(self._subs[key])
                if handler in handlers:
                    handlers.remove(handler)
                    self._subs[key] = tuple(handlers)

        return Subscription(_unsub)


class RedisBusAdapter(BusBackend):
    """Adapter for an external Redis server.

    Latest-value semantics use ``SET``/``GET`` on the contract key; pub/sub
    delivery uses Redis PUBLISH/SUBSCRIBE on the same name. Delivery is
    Redis-native (at-most-once to connected subscribers); this adapter does
    not add retries or persistence on top.
    """

    def __init__(self, url: str = "redis://localhost:6379/0", prefix: str = "proxagent:"):
        try:
            import redis  # noqa: PLC0415
        except ImportError as exc:  # pragma: no cover - optional dependency
            raise BackendUnavailable("redis package not installed") from exc
        self._redis = redis.Redis.from_url(url)
        self._prefix = prefix
        try:
            self._redis.ping()
        except Exception as exc:  # pragma: no cover - requires live server
            raise BackendUnavailable(f"redis unreachable: {exc}") from exc

    def _name(self, key: str) -> str:
        return self._prefix + key

    @staticmethod
    def _message(key: str, envelope: bytes) -> BusMessage:
        """Decode and validate what another publisher may have written."""
        try:
            data = loads(envelope)
            seq, timestamp, text = data["seq"], data["timestamp"], data["payload"]
            record = loads(text)
        except (ValueError, TypeError, KeyError) as exc:
            raise SchemaViolation(f"envelope for {key} is malformed: {exc!r}") from exc
        except RecursionError:
            raise SchemaViolation(f"envelope for {key}: {TOO_DEEP}") from None
        if type(seq) is not int or type(timestamp) is not int:
            raise SchemaViolation(f"envelope for {key}: seq and timestamp must be integers")
        return BusMessage(key, validate_payload(key, record), seq, timestamp)

    def publish(self, key: str, record: dict) -> int:
        payload = encode(validate_payload(key, record)).decode("utf-8")
        try:
            seq = int(self._redis.incr(self._name(key) + ":seq"))
            envelope = json.dumps(
                {"seq": seq, "timestamp": int(time.time() * 1000), "payload": payload}
            )
            self._redis.set(self._name(key), envelope)
            self._redis.publish(self._name(key), envelope)
            return seq
        except Exception as exc:  # pragma: no cover - requires live server
            raise BackendUnavailable(str(exc)) from exc

    def get_latest(self, key: str) -> Optional[BusMessage]:
        check_key(key)
        raw = self._redis.get(self._name(key))
        return None if raw is None else self._message(key, raw)

    def subscribe(self, key: str, handler: Handler) -> Subscription:
        check_key(key)
        pubsub = self._redis.pubsub(ignore_subscribe_messages=True)

        def _on_message(message) -> None:
            # as in-process: a malformed message reaches no subscriber, and a
            # misbehaving subscriber must not stop the delivery thread
            try:
                handler(self._message(key, message["data"]))
            except Exception:
                pass

        pubsub.subscribe(**{self._name(key): _on_message})
        thread = pubsub.run_in_thread(sleep_time=0.005, daemon=True)

        def _unsub() -> None:
            thread.stop()
            pubsub.close()

        return Subscription(_unsub)


BACKENDS = ("inprocess", "redis")  # the configuration names of the backends


def make_backend(name: str, **kwargs) -> BusBackend:
    """Instantiate a backend by configuration name."""
    if name not in BACKENDS:
        raise BusError(f"unknown bus backend: {name!r}")
    return RedisBusAdapter(**kwargs) if name == "redis" else InProcessBus()
