"""Tests of the benchmark itself: tracing arithmetic, patch restoration,
repeatable digests, provider accounting, calibration and the metric names it
declares."""

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (str(BENCH_DIR), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from accounting import CountingProvider, ProviderStats  # noqa: E402
from proxagent.env import load_satellite_catalog  # noqa: E402
from proxagent.reasoning import ScriptedProvider  # noqa: E402

SATELLITES = load_satellite_catalog()


def _tiny(workload, count):
    return workloads.generate(workload, 7, list(SATELLITES))[:count]


def _snapshot():
    """Every attribute the patcher could touch, by identity."""
    state = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "proxagent" or name.startswith("proxagent.")):
            continue
        for attr, value in vars(module).items():
            state[(name, attr)] = value
            if type(value) is dict:
                for key, item in value.items():
                    state[(name, attr, repr(key))] = item
            if isinstance(value, type) and value.__module__ == name:
                for member, raw in vars(value).items():
                    state[(name, attr, "class", member)] = raw
    return state


def test_self_time_on_hand_built_tree():
    tracer = spans.Tracer()
    # a[0,10] holds b[1,4] and c[5,9]; c holds d[6,7]
    tracer.open("a", now=0.0)
    tracer.open("b", now=1.0)
    tracer.close(now=4.0)
    tracer.open("c", now=5.0)
    tracer.open("d", now=6.0)
    tracer.close(now=7.0)
    tracer.close(now=9.0)
    tracer.close(now=10.0)
    assert tracer.depth == 0
    expected = {"a": (10.0, 3.0), "b": (3.0, 3.0), "c": (4.0, 3.0), "d": (1.0, 1.0)}
    for name, (inclusive, self_time) in expected.items():
        assert tracer.stat(name).count == 1
        assert tracer.stat(name).inclusive == inclusive
        assert tracer.stat(name).self_time == self_time
    assert tracer.pairs[(None, "a")] == 1
    assert tracer.pairs[("c", "d")] == 1


def test_self_time_of_repeated_and_nested_same_name_spans():
    tracer = spans.Tracer()
    # a publish whose handler publishes again: p[0,10] holds p[2,5]
    tracer.open("p", now=0.0)
    tracer.open("p", now=2.0)
    tracer.close(now=5.0)
    tracer.close(now=10.0)
    stats = tracer.stat("p")
    assert (stats.count, stats.self_time) == (2, 10.0)


def test_traced_pass_restores_every_patched_attribute(tmp_path):
    import proxagent.runner as runner

    before = _snapshot()
    original = runner.run_episode
    tracer = spans.Tracer()
    with spans.traced(tracer) as patcher:
        assert runner.run_episode is not original
        assert runner._MODE_STEP["standard"] is not before[("proxagent.runner", "_MODE_STEP",
                                                            "'standard'")]
        result = workloads.run_pass(workloads.NAV_MATRIX, _tiny(workloads.NAV_MATRIX, 3),
                                    SATELLITES, tmp_path, tracer)
    assert patcher.missing == []
    after = _snapshot()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []
    assert tracer.stat("runner.episode").count == 3
    assert tracer.stat("bus.publish").count > 0
    assert tracer.stat("reasoning.provider").count == result.provider.total_calls


def test_patcher_restores_after_an_error():
    import proxagent.tools as tools

    original = tools.builtin_catalog
    try:
        with spans.traced(spans.Tracer()):
            assert tools.builtin_catalog is not original
            raise KeyError("boom")
    except KeyError:
        pass
    assert tools.builtin_catalog is original


def test_tiny_workloads_repeat_their_digest_traced_and_untraced(tmp_path):
    for workload, count in ((workloads.NAV_MATRIX, 3), (workloads.INSPECT_SWEEP, 3),
                            (workloads.EVOLVE_CAMPAIGN, 1)):
        specs = _tiny(workload, count)
        first = workloads.run_pass(workload, specs, SATELLITES, tmp_path)
        second = workloads.run_pass(workload, specs, SATELLITES, tmp_path)
        tracer = spans.Tracer()
        with spans.traced(tracer):
            traced = workloads.run_pass(workload, specs, SATELLITES, tmp_path, tracer)
        assert first.problems == [] and first.failed == 0
        assert first.steps > 0
        assert first.episodes == count * workloads.episodes_per_spec(workload)
        assert first.digest == second.digest == traced.digest
        assert first.episode_digests == traced.episode_digests
        assert first.provider == second.provider == traced.provider
    assert list(tmp_path.iterdir()) == []   # campaign workspaces are removed


def test_counting_provider_forwards_kind_and_identity():
    inner = ScriptedProvider()
    wrapped = CountingProvider(inner, ProviderStats())
    assert (wrapped.kind, wrapped.identity) == (inner.kind, inner.identity)


def test_calibration_leaves_gc_as_found_and_spreads_over_the_pass(tmp_path):
    assert gc.isenabled()
    assert calibrate.chunk() > 0 and gc.isenabled()
    gc.disable()
    try:
        calibrate.chunk()
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert calibrate.slowdown([calibrate.REFERENCE_S] * 3) == pytest.approx(1.0)
    result = workloads.run_pass(workloads.NAV_MATRIX, _tiny(workloads.NAV_MATRIX, 3),
                                SATELLITES, tmp_path)
    assert len(result.chunk_seconds) == 3   # fewer specs than chunks: one after each
    assert result.slowdown > 0


def test_declared_metrics_match_what_the_bench_reports(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    tracer = spans.Tracer()
    with spans.traced(tracer):
        result = workloads.run_pass(workloads.NAV_MATRIX, _tiny(workloads.NAV_MATRIX, 1),
                                    SATELLITES, tmp_path, tracer)
    reported = spans.layer_metrics(tracer, result, passes=1)
    # every committed step is exactly one control-or-terminal call
    assert reported["tools.dispatch_calls_per_step.control"][0] == 1.0
    assert reported["reasoning.provider_calls_per_step"][0] == (
        result.provider.total_calls / result.steps)
    units = {name: unit for name, (_value, unit) in reported.items()}
    units["trace_overhead_ratio"] = "ratio"
    assert declared == units
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nav-matrix", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
