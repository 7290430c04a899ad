"""Per-layer tracing from outside the program.

During a traced pass, the calls into each layer's functions are wrapped in
spans. A span has a name ``<layer>.<operation>``, a start and an end, and its
parent is the span open when it started (everything runs on one thread).
A span's self time is its duration minus the durations of its direct
children. Spans are folded into per-name totals as they close, so memory
stays flat however long the run is. After the pass every patched attribute
is put back, and untraced passes run the program untouched.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
from collections import Counter
from time import perf_counter

import proxagent.bus as bus
import proxagent.env as env
import proxagent.evolution as evolution
import proxagent.reasoning as reasoning
import proxagent.runner as runner
import proxagent.skills as skills
import proxagent.tools as tools
import proxagent.trajectory as trajectory


class SpanStats:
    __slots__ = ("count", "inclusive", "self_time")

    def __init__(self) -> None:
        self.count = 0
        self.inclusive = 0.0
        self.self_time = 0.0


class Tracer:
    """Span stack plus per-name totals, pair counts and free counters."""

    def __init__(self) -> None:
        self.enabled = True
        self.spans: dict[str, SpanStats] = {}
        self.pairs: Counter = Counter()      # (parent name, name) -> spans opened
        self.counters: Counter = Counter()
        self.marks: dict[str, float] = {}    # instants the runner metrics need
        self._stack: list[list] = []         # [name, start, time in children]

    def open(self, name: str, now=None) -> float:
        stack = self._stack
        self.pairs[(stack[-1][0] if stack else None, name)] += 1
        start = perf_counter() if now is None else now
        stack.append([name, start, 0.0])
        return start

    def close(self, now=None) -> float:
        name, start, children = self._stack.pop()
        end = perf_counter() if now is None else now
        duration = end - start
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats()
        stats.count += 1
        stats.inclusive += duration
        stats.self_time += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        return end

    def stat(self, name: str) -> SpanStats:
        return self.spans.get(name) or SpanStats()

    @property
    def depth(self) -> int:
        return len(self._stack)


def span(tracer: Tracer, name: str, fn, before=None, after=None, on_error=None):
    """Wrap ``fn`` in a span. Hooks see the arguments, the result or the error."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.open(name)
        if before is not None:
            before(args)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.close()
            if on_error is not None:
                on_error(exc)
            raise
        tracer.close()
        if after is not None:
            after(args, result)
        return result

    return wrapper


class Patcher:
    """Replaces attributes of the program and puts every one of them back.

    A function is replaced under every name that refers to it in the
    program's loaded modules, including entries of module-level dicts such
    as a dispatch table, so ``from x import f`` call sites see the wrapper.
    A target the program no longer has is listed in ``missing``; the metrics
    that depend on it then read 0.
    """

    def __init__(self) -> None:
        self.missing: list[str] = []
        self._undo: list = []

    def _modules(self):
        return [
            module for name, module in list(sys.modules.items())
            if module is not None and (name == "proxagent" or name.startswith("proxagent."))
        ]

    def function(self, module, name: str, make) -> None:
        original = getattr(module, name, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{name}")
            return
        wrapped = make(original)
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped, original)
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapped
                            self._undo.append(functools.partial(value.__setitem__, key, original))

    def method(self, cls, name: str, make) -> None:
        raw = cls.__dict__.get(name)
        if raw is None:
            self.missing.append(f"{cls.__module__}.{cls.__name__}.{name}")
            return
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._set(cls, name, wrapped, raw)

    def _set(self, owner, attr: str, value, original) -> None:
        setattr(owner, attr, value)
        self._undo.append(functools.partial(setattr, owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


# ---------------------------------------------------------------------------
# The layer wrappers
# ---------------------------------------------------------------------------


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap the calls into every layer. Names are ``<module>.<operation>``."""
    t, c, marks = tracer, tracer.counters, tracer.marks
    fn, meth = patcher.function, patcher.method

    def count(key, amount=1):
        c[key] += amount

    # -- bus ------------------------------------------------------------
    meth(bus.InProcessBus, "publish", lambda f: span(
        t, "bus.publish", f, before=lambda a: count("bus.payload_bytes", len(a[2]))))
    meth(bus.InProcessBus, "get_latest", lambda f: span(t, "bus.get_latest", f))
    fn(bus, "encode", lambda f: span(t, "bus.encode", f))
    fn(bus, "validate_payload", lambda f: span(t, "bus.validate", f))
    meth(bus.BusMessage, "record", lambda f: span(t, "bus.record", f))

    # A subscriber is the env bridge; its handler runs inside bus.publish,
    # so publish self time excludes it. The bus swallows handler errors.
    def subscribe(f):
        def wrapped(self, key, handler):
            return f(self, key, span(t, "env.handler", handler,
                                     on_error=lambda exc: count("bus.handler_errors")))
        return functools.wraps(f)(wrapped)

    meth(bus.InProcessBus, "subscribe", subscribe)

    # -- env ------------------------------------------------------------
    def note(exc):
        if isinstance(exc, (env.StepLimitExceeded, env.GainOutOfRange)):
            count("env.notes")

    meth(env.SimEnv, "reset", lambda f: span(t, "env.reset", f))
    meth(env.SimEnv, "step", lambda f: span(t, "env.step", f, on_error=note))
    meth(env.SimEnv, "set_exposure", lambda f: span(t, "env.step", f, on_error=note))
    meth(env.SimEnv, "observe", lambda f: span(t, "env.observe", f))
    meth(env.EnvBridge, "close", lambda f: span(
        t, "env.close", f, before=lambda a: marks.__setitem__("close", perf_counter())))
    fn(env, "evaluate", lambda f: span(t, "env.evaluate", f))

    # -- tools ----------------------------------------------------------
    def dispatched(args, result):
        dispatcher, call = args[0], args[1]
        descriptor = dispatcher.catalog.get(call.tool)
        count("tools.dispatch." + (descriptor.category if descriptor else "unknown"))
        if not result.ok:
            count("tools.dispatch_failed")

    meth(tools.ToolDispatcher, "dispatch", lambda f: span(
        t, "tools.dispatch", f, after=dispatched))
    meth(tools.ToolDispatcher, "latest_observation", lambda f: span(
        t, "tools.latest_observation", f))
    meth(tools.ToolDispatcher, "_await_new_observation", lambda f: span(
        t, "tools.await_observation", f))
    fn(tools, "builtin_catalog", lambda f: span(t, "tools.catalog", f))
    fn(tools, "builtin_profiles", lambda f: span(t, "tools.profiles", f))

    # -- skills ---------------------------------------------------------
    def routed(args, result):
        count("skills.route_fallbacks", bool(result.used_fallback))

    meth(skills.SkillCatalog, "load", lambda f: span(t, "skills.load", f))
    fn(skills, "parse_skill_text", lambda f: span(t, "skills.parse", f))
    fn(skills, "route", lambda f: span(t, "skills.route", f, after=routed))
    fn(skills, "assemble_prompt", lambda f: span(
        t, "skills.assemble", f,
        after=lambda a, r: count("skills.prompt_bytes", len(r.text.encode("utf-8")))))

    # -- reasoning ------------------------------------------------------
    def mode_step_started(args):
        started = marks.pop("episode", None)
        if started is not None:
            count("runner.setup_s", perf_counter() - started)

    def mode_step_done(args, result):
        count("reasoning.degraded_steps", bool(result.degraded))

    def malformed(exc):
        if isinstance(exc, reasoning.MalformedOutput):
            count("reasoning.malformed_outputs")

    for name in ("step_standard", "step_react", "step_prospective"):
        fn(reasoning, name, lambda f: span(
            t, "reasoning.mode_step", f, before=mode_step_started, after=mode_step_done))
    meth(reasoning.ScriptedProvider, "complete", lambda f: span(t, "reasoning.provider", f))
    meth(reasoning.MemoryState, "memory_text", lambda f: span(t, "reasoning.memory_text", f))
    fn(reasoning, "update_memory", lambda f: span(t, "reasoning.update_memory", f))
    for name in ("parse_tool_call", "parse_candidates", "parse_select"):
        fn(reasoning, name, lambda f: span(t, "reasoning.parse", f, on_error=malformed))

    # -- evolution ------------------------------------------------------
    def evolved(args, event):
        count("evolution.mutations." + event.get("action", "unknown"))

    def gated(args, verdict):
        count("evolution.gated")
        count("evolution.gate_accepted", bool(verdict.accepted))

    fn(evolution, "run_evolution", lambda f: span(t, "evolution.run", f, after=evolved))
    fn(evolution, "quality_gate", lambda f: span(t, "evolution.gate", f, after=gated))
    fn(evolution, "summarize_episode", lambda f: span(t, "evolution.summarize", f))
    fn(evolution, "select_learned", lambda f: span(t, "evolution.select", f))
    meth(evolution.SkillStore, "load_all", lambda f: span(t, "evolution.store_scan", f))

    # -- trajectory -----------------------------------------------------
    def written(args, result):
        count("trajectory.bytes", os.path.getsize(args[1]))

    meth(trajectory.Trajectory, "write", lambda f: span(
        t, "trajectory.write", f, after=written))

    # -- runner ---------------------------------------------------------
    def episode_started(args):
        marks["episode"] = perf_counter()
        marks.pop("close", None)

    def episode_done(args, result):
        marks.pop("episode", None)
        closed = marks.pop("close", None)
        if closed is not None:
            count("runner.teardown_s", perf_counter() - closed)

    fn(runner, "run_episode", lambda f: span(
        t, "runner.episode", f, before=episode_started, after=episode_done))
    fn(runner, "run_campaign", lambda f: span(t, "runner.campaign", f))


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the layer wrappers for the duration of the block."""
    patcher = Patcher()
    try:
        install(tracer, patcher)
        yield patcher
    finally:
        patcher.restore()


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

US = 1e6
CALL_KINDS = ("decide_action", "plan", "select", "reflect", "summarize", "route")
CATEGORIES = ("perception", "control", "knowledge", "auxiliary")
ACTIONS = ("create", "overlay", "rewrite", "disable", "no_change")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, one_pass, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``.

    ``tracer`` holds ``passes`` traced passes, each of which repeated
    ``one_pass`` exactly. Plain counts are per pass, so they do not grow with
    the run length.
    """
    s, c, pairs = tracer.stat, tracer.counters, tracer.pairs
    provider = one_pass.provider
    steps, episodes = one_pass.steps * passes, one_pass.episodes * passes
    per_step = lambda x: _ratio(x, steps)            # noqa: E731
    per_episode = lambda x: _ratio(x, episodes)      # noqa: E731
    per_pass = lambda x: _ratio(x, passes)           # noqa: E731
    calls = provider.total_calls * passes
    dispatched = s("tools.dispatch").count
    awaited = s("tools.await_observation").count

    m = {
        "bus.publish_calls_per_step": (per_step(s("bus.publish").count), "1/step"),
        "bus.publish_self_us_per_step": (per_step(s("bus.publish").self_time * US), "us"),
        "bus.encode_calls_per_step": (per_step(s("bus.encode").count), "1/step"),
        "bus.decode_calls_per_step": (
            per_step(s("bus.validate").count + s("bus.record").count), "1/step"),
        "bus.validate_us_per_step": (per_step(s("bus.validate").self_time * US), "us"),
        "bus.get_latest_calls_per_step": (per_step(s("bus.get_latest").count), "1/step"),
        "bus.payload_bytes_per_step": (per_step(c["bus.payload_bytes"]), "B"),
        "bus.handler_errors": (per_pass(c["bus.handler_errors"]), "count"),
        "env.step_us_per_call": (
            _ratio(s("env.step").self_time * US, s("env.step").count), "us"),
        "env.observe_calls_per_step": (per_step(s("env.observe").count), "1/step"),
        "env.observe_us_per_call": (
            _ratio(s("env.observe").inclusive * US, s("env.observe").count), "us"),
        "env.reset_us_per_episode": (per_episode(s("env.reset").inclusive * US), "us"),
        "env.notes_per_episode": (per_episode(c["env.notes"]), "1/episode"),
        "env.evaluate_us_per_episode": (per_episode(s("env.evaluate").inclusive * US), "us"),
        "tools.dispatch_calls_per_step": (per_step(dispatched), "1/step"),
        **{
            "tools.dispatch_calls_per_step." + category: (
                per_step(c["tools.dispatch." + category]), "1/step")
            for category in CATEGORIES
        },
        "tools.dispatch_self_us_per_step": (per_step(s("tools.dispatch").self_time * US), "us"),
        "tools.latest_observation_us_per_step": (
            per_step(s("tools.latest_observation").self_time * US), "us"),
        "tools.obs_poll_reads_per_control": (
            _ratio(pairs[("tools.await_observation", "bus.get_latest")], awaited), "count"),
        "tools.error_results_ratio": (_ratio(c["tools.dispatch_failed"], dispatched), "ratio"),
        "tools.catalog_builds_per_episode": (per_episode(s("tools.catalog").count), "1/episode"),
        "tools.catalog_build_us_per_episode": (
            per_episode((s("tools.catalog").self_time + s("tools.profiles").self_time) * US),
            "us"),
        "skills.load_us_per_episode": (per_episode(s("skills.load").inclusive * US), "us"),
        "skills.files_parsed_per_episode": (
            per_episode(pairs[("skills.load", "skills.parse")]), "1/episode"),
        "skills.route_us_per_episode": (per_episode(s("skills.route").inclusive * US), "us"),
        "skills.assemble_us_per_episode": (
            per_episode(s("skills.assemble").inclusive * US), "us"),
        "skills.router_fallback_ratio": (
            _ratio(c["skills.route_fallbacks"], s("skills.route").count), "ratio"),
        "skills.prompt_bytes_per_episode": (
            _ratio(c["skills.prompt_bytes"], s("skills.assemble").count), "B"),
        "reasoning.mode_step_self_us_per_step": (
            per_step(s("reasoning.mode_step").self_time * US), "us"),
        "reasoning.provider_us_per_call": (
            _ratio(s("reasoning.provider").inclusive * US, s("reasoning.provider").count), "us"),
        "reasoning.memory_text_calls_per_step": (
            per_step(s("reasoning.memory_text").count), "1/step"),
        "reasoning.memory_text_us_per_step": (
            per_step(s("reasoning.memory_text").inclusive * US), "us"),
        "reasoning.update_memory_us_per_step": (
            per_step(s("reasoning.update_memory").self_time * US), "us"),
        "reasoning.provider_calls_per_step": (per_step(calls), "1/step"),
    }
    for kind in CALL_KINDS:
        m["reasoning.provider_calls_per_step." + kind] = (
            per_step(provider.calls[kind] * passes), "1/step")
    m.update({
        "reasoning.malformed_outputs": (per_pass(c["reasoning.malformed_outputs"]), "count"),
        "reasoning.degraded_steps": (per_pass(c["reasoning.degraded_steps"]), "count"),
        "reasoning.memory_bytes_per_call": (
            _ratio(provider.memory_bytes * passes, calls), "B"),
        "evolution.run_us_per_episode": (per_episode(s("evolution.run").inclusive * US), "us"),
        "evolution.store_scans_per_episode": (
            per_episode(s("evolution.store_scan").count), "1/episode"),
        "evolution.store_scan_us_per_episode": (
            per_episode(s("evolution.store_scan").inclusive * US), "us"),
        "evolution.gated_per_episode": (per_episode(c["evolution.gated"]), "1/episode"),
        "evolution.gate_accept_ratio": (
            _ratio(c["evolution.gate_accepted"], c["evolution.gated"]), "ratio"),
    })
    for action in ACTIONS:
        m["evolution.mutations." + action] = (per_pass(c["evolution.mutations." + action]), "count")
    m.update({
        "evolution.summarize_us_per_episode": (
            per_episode(s("evolution.summarize").inclusive * US), "us"),
        "trajectory.write_us_per_episode": (
            per_episode(s("trajectory.write").inclusive * US), "us"),
        "trajectory.bytes_per_step": (per_step(c["trajectory.bytes"]), "B"),
        "runner.setup_us_per_episode": (per_episode(c["runner.setup_s"] * US), "us"),
        "runner.teardown_us_per_episode": (per_episode(c["runner.teardown_s"] * US), "us"),
        "runner.self_us_per_step": (
            per_step((s("runner.episode").self_time + s("runner.campaign").self_time) * US),
            "us"),
    })
    return m
