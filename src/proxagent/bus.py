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

import inspect
import json
import math
import threading
import time
from dataclasses import is_dataclass
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Callable, NamedTuple, Optional, get_args


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


def is_finite_number(value) -> bool:
    """True when ``value`` converts to a finite float. An integer beyond the
    float range does not: the simulator could not apply it."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def is_number(value) -> bool:
    """True for the value of a number field: an int or float, or a subclass
    of one such as an IntEnum, that is finite in float range and not a bool."""
    if type(value) is float:  # the common case
        return math.isfinite(value)
    return isinstance(value, _NUMBER) and not isinstance(value, bool) and is_finite_number(value)


# A field table maps each field name to its kind, a (test, what) pair: the
# test a value must pass and what the value must be, as a message says it.
NUMBER = (is_number, "a finite number")
INTEGER = (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
BOOLEAN = (lambda v: isinstance(v, bool), "a boolean")
STRING = (lambda v: isinstance(v, str), "a string")
OBJECT = (lambda v: isinstance(v, dict), "an object")
ARRAY = (lambda v: isinstance(v, list), "an array")
NUMBER_OR_NULL = (lambda v: v is None or is_number(v), "a finite number or null")


def _shown(value) -> str:
    """``value``'s repr cut to 60 characters, for a message."""
    try:
        return f"{value!r:.60}"
    except (ValueError, RecursionError):  # an int too long to print, too deep a container
        return f"a value of type {type(value).__name__}"


def field_problem(table: dict, record, optional=(), closed: bool = False,
                  noun: str = "field") -> Optional[str]:
    """The first way ``record`` does not fit the field ``table``, as text, or
    None when it fits. Each field is required but those named in
    ``optional``; fields the table does not name are allowed unless it is
    ``closed``. ``noun`` is what a message calls a field."""
    if not isinstance(record, dict):
        return f"must be an object, got {_shown(record)}"
    for name, (test, what) in table.items():
        if name in record:
            if not test(record[name]):
                return f"{noun} {name!r} must be {what}, got {_shown(record[name])}"
        elif name not in optional:
            return f"missing {noun} {name!r}"
    if closed and not record.keys() <= table.keys():
        unknown = next(name for name in record if name not in table)
        return f"unknown {noun} {unknown!r}"
    return None


_KINDS = {str: STRING, int: INTEGER, float: NUMBER, bool: BOOLEAN, dict: OBJECT, list: ARRAY}


def parameter_table(fn) -> tuple[dict, tuple]:
    """The field table of ``fn``'s keyword parameters, each of its
    annotation's kind (``Optional[X]`` X's, a dataclass an object; any other
    annotation is a TypeError), and the names of those with a default."""
    table, defaulted = {}, []
    for name, param in inspect.signature(fn, eval_str=True).parameters.items():
        if param.kind not in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY):
            continue
        hint = param.annotation
        args = get_args(hint)
        if len(args) == 2 and type(None) in args:  # Optional[X]
            hint = args[args[0] is type(None)]
        table[name] = OBJECT if is_dataclass(hint) else _KINDS.get(hint)
        if table[name] is None:
            raise TypeError(f"{fn.__qualname__}: no field kind for {name}: {hint!r}")
        if param.default is not param.empty:
            defaulted.append(name)
    return table, tuple(defaulted)


# The field table of each key. Extra fields are allowed (e.g. diagnostic
# notes attached by the environment bridge).
CHANNEL_SCHEMAS: dict[str, dict[str, tuple]] = {
    SENSOR_RGB: {
        "visible": BOOLEAN,
        "bearing_az": NUMBER,
        "bearing_el": NUMBER,
        "angular_size": NUMBER,
        "mean_brightness": NUMBER,
        "exposure_gain": NUMBER,
        "step_index": INTEGER,
        "collided": BOOLEAN,
        "true_range": NUMBER,
    },
    SENSOR_LIDAR: {"range_m": NUMBER_OR_NULL},
    CMD_POSE_DELTA: dict.fromkeys(("dx", "dy", "dz", "dyaw", "dpitch", "droll"), NUMBER),
    CMD_EXPOSURE: {"gain_delta": NUMBER},
    CMD_TERMINATE: {},
}


def check_key(key: str) -> None:
    if key not in _CONTRACT_KEY_SET:
        raise UnknownKey(f"not a contract key: {key!r}")


_PLAIN = frozenset({str, bool, type(None)})


def _flat(record, table: dict) -> bool:
    """True when ``record`` is a dict with string keys, each of its values is
    a scalar that ``json_copy`` carries as it is (a finite float, an int in
    float range, a bool, a string or None), and it holds every field of
    ``table``, each passing its test. Then ``dict(record)`` is its copy."""
    if type(record) is not dict:
        return False
    tested = 0
    for name, value in record.items():
        kind = type(value)
        if type(name) is not str:
            return False
        if kind is float:
            if not math.isfinite(value):
                return False
        elif kind is int:
            if not is_finite_number(value):
                return False
        elif kind not in _PLAIN:
            return False
        field = table.get(name)
        if field is not None:
            if not field[0](value):
                return False
            tested += 1
    return tested == len(table)


# Every JSON value the program takes in (a tool's args, a bus record) nests
# at most this many containers deep, the outermost counted, so that checking,
# carrying and encoding it need the same stack on every call path.
MAX_JSON_DEPTH = 100
TOO_DEEP = f"nests more than {MAX_JSON_DEPTH} containers deep"


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
            record[name] = (item if type(item) in _PLAIN
                            else _copy(item, f"{where}.{name}", depth + 1, deep))
        return record
    if isinstance(value, list):
        return [_copy(item, f"{where}[{i}]", depth + 1, deep) for i, item in enumerate(value)]
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, _NUMBER):
        if not is_finite_number(value):
            raise SchemaViolation(f"{where}: not a finite number in float range")
        return value
    raise SchemaViolation(f"{where}: {type(value).__name__} cannot be carried as JSON")


def validate_payload(key: str, record) -> dict:
    """Validate a record against the key's schema; return a private copy."""
    check_key(key)
    schema = CHANNEL_SCHEMAS[key]
    if _flat(record, schema):  # the common case, accepted in one walk
        return dict(record)
    problem = field_problem(schema, record)
    if problem is not None:
        raise SchemaViolation(f"payload for {key}: {problem}")
    return json_copy(record, key)


def _stateless(reference: json.JSONEncoder) -> Callable[[object], str]:
    """``reference.encode`` for a ``reference`` built with
    ``check_circular=False``, through one C encoder built once from the same
    arguments. With no marker dict the C encoder keeps no state, so the one
    object serves every call, every thread and an encode from inside
    another. Without the C accelerator it is ``reference.encode``."""
    if c_make_encoder is None:
        return reference.encode
    encoder = c_make_encoder(
        None, reference.default, encode_basestring_ascii, None,
        reference.key_separator, reference.item_separator,
        reference.sort_keys, reference.skipkeys, reference.allow_nan,
    )
    return lambda value: "".join(encoder(value, 0))


# The program's one JSON text format: the text of
# json.dumps(value, sort_keys=True, allow_nan=False), which raises ValueError
# on NaN or Infinity. No value the program encodes can be circular: each is
# read from JSON text, copied by json_copy or record_copy, made by read_only
# or built fresh from those; a circular one exceeds the recursion limit.
dumps_strict = _stateless(
    json.JSONEncoder(sort_keys=True, allow_nan=False, check_circular=False))


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


def _refuse_change(self, *args, **kwargs):
    raise TypeError(f"a {type(self).__name__} cannot be changed")


class ReadOnlyDict(dict):
    """A JSON object that cannot be changed: every method that would change
    it raises TypeError. ``read_only`` builds one, its values read-only too."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _refuse_change
    clear = pop = popitem = setdefault = update = _refuse_change

    def __reduce__(self):  # for copy.deepcopy and pickle
        return ReadOnlyDict, (dict(self),)


class ReadOnlyList(list):
    """A JSON array that cannot be changed, as ``ReadOnlyDict`` an object."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse_change
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse_change

    def __reduce__(self):
        return ReadOnlyList, (list(self),)


_MUTABLE = frozenset({dict, list})  # the container types json_copy makes
_CONTAINERS = _MUTABLE | {ReadOnlyDict, ReadOnlyList}


def read_only(value):
    """The JSON-native ``value``, to be shared instead of copied, with each
    dict and list in it rebuilt as a ``ReadOnlyDict`` or ``ReadOnlyList``.
    A read-only value, and any other, is returned as it is."""
    kind = type(value)
    if kind is dict:
        frozen = ReadOnlyDict(value)
        for name, item in value.items():
            if type(item) in _MUTABLE:
                dict.__setitem__(frozen, name, read_only(item))  # still being built
        return frozen
    if kind is list:
        return ReadOnlyList([read_only(item) if type(item) in _MUTABLE else item
                             for item in value])
    return value


def record_copy(record: dict) -> dict:
    """A copy of the JSON-native ``record``, read-only or not, that the
    caller may change freely: every dict and list in it is a new, plain one,
    and its other values, which are immutable, are shared."""
    copied = dict(record)
    for name, value in copied.items():
        if type(value) in _CONTAINERS:  # e.g. cmd/terminate's report
            copied[name] = _tree_copy(value)
    return copied


def _tree_copy(value):
    """``record_copy`` of a dict or list nested in a record."""
    if isinstance(value, list):
        return [_tree_copy(item) if type(item) in _CONTAINERS else item for item in value]
    return {name: _tree_copy(item) if type(item) in _CONTAINERS else item
            for name, item in value.items()}


class BusMessage(NamedTuple):
    key: str
    payload: dict  # the validated record, owned by the bus: read values, never change it
    seq: int
    timestamp: int  # milliseconds since epoch

    def record(self) -> dict:
        """The payload, as a copy the caller may change freely."""
        return record_copy(self.payload)


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
