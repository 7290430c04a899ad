"""Closed-loop episode benchmark for proxagent.

    python3 perfbench/run.py --workload nav-matrix --seed 0 --seconds 30 --trace 0

Runs one workload (see README.md) from one process with one thread. A first,
untimed pass warms the process up and is the reference: every later pass must
give the same step digest, and for the recorded seeds that digest must match
``digests.json``. With ``--trace 0`` the timed passes give the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate, and the
traced ones give the per-layer metrics and the tracing overhead.

Every timing is a median over the timed passes of what that pass gave: its
episodes per second of wall time, its wall time per step, and the median and 95th percentile of
its episode times. A pass holds every kind of episode, so a cost that hits
only some passes (a garbage collection, a growing store) is in the figures.
Each pass's times are divided by the machine's slowdown over that pass, and
each set-up probe's by the slowdown around it (``calibrate.py``), so that they
read as at a fixed reference speed; the raw times are printed too.

Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"

MIN_TIMED_PASSES = 5        # medians over passes need a few passes
MIN_TRACED_PASSES = 3
SETUP_PROBES = 21           # spread over the run, after one discarded probe
SETUP_PROBE_TIMEOUT_S = 60
SETUP_CHUNKS = 5            # calibration chunks on each side of a set-up probe


def machine_context(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "seed": seed,
    }


def reference_digest(workload: str, seed: int):
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def compare(result, reference) -> list[str]:
    """Problems of a pass that does not repeat the reference pass exactly."""
    problems = list(result.problems)
    if result.episode_digests != reference.episode_digests:
        first = next(
            (i for i, (a, b) in enumerate(zip(result.episode_digests,
                                              reference.episode_digests)) if a != b),
            min(len(result.episode_digests), len(reference.episode_digests)),
        )
        problems.append(f"step digest differs from the reference pass at spec {first}")
    if result.provider != reference.provider:
        problems.append("provider calls or prompt bytes differ from the reference pass")
    return problems


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to a generated workload, raw
    and divided by the slowdown that calibration chunks on either side give.

    The probe prints ``time.monotonic()`` when it is done; that clock is
    system-wide, so the difference to the start taken here is exact, which
    the time at which a timed wait notices the exit is not.
    """
    chunks = [calibrate.chunk() for _ in range(SETUP_CHUNKS)]
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"),
         "--workload", workload, "--seed", str(seed)],
        check=True, capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S,
    )
    raw = float(done.stdout.split()[-1]) - start
    chunks += [calibrate.chunk() for _ in range(SETUP_CHUNKS)]
    return raw, raw / calibrate.slowdown(chunks)


def median_wall(passes) -> float:
    return statistics.median(p.wall for p in passes)


def end_to_end(reference, timed, setup_times, attempted, failed) -> dict:
    def over_passes(of_pass):
        return statistics.median(of_pass(p) for p in timed)

    calls = reference.provider.total_calls
    prompt = reference.provider.prompt_bytes + reference.provider.memory_bytes
    return {
        "episodes_per_s": (over_passes(lambda p: p.episodes / p.wall * p.slowdown), "1/s"),
        "us_per_step": (over_passes(lambda p: p.wall / p.slowdown / p.steps * 1e6), "us"),
        "episode_ms_p50": (over_passes(
            lambda p: statistics.median(p.episode_seconds) / p.slowdown * 1e3), "ms"),
        "episode_ms_p95": (over_passes(
            lambda p: statistics.quantiles(p.episode_seconds, n=20)[18]
            / p.slowdown * 1e3), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "provider_calls_per_step": (calls / reference.steps, "count"),
        "prompt_bytes_per_call": (prompt / calls, "B"),
        "outcome_score_mean": (statistics.fmean(reference.points), "points"),
        "error_free_ratio": (1.0 - failed / attempted, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "proxagent").is_dir():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import spans
    import workloads
    from proxagent.env import load_satellite_catalog

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    context = machine_context(args.seed)
    print("context " + json.dumps(context, sort_keys=True))
    satellites = load_satellite_catalog()
    specs = workloads.generate(args.workload, args.seed, list(satellites))

    with workloads.scratch_dir(ROOT) as scratch:
        def run(tracer=None):
            return workloads.run_pass(args.workload, specs, satellites, scratch, tracer)

        reference = run()
        problems = list(reference.problems)
        expected = reference_digest(args.workload, args.seed)
        print(f"digest {reference.digest} (recorded: {expected or 'none for this seed'})")
        if expected is not None and expected != reference.digest:
            problems.append(f"step digest {reference.digest} != recorded {expected}")
        passes = [reference]

        start = perf_counter()
        if args.trace == 0:
            # Set-up probes are spread over the run, so that their median is
            # not taken from one noisy stretch of the machine.
            probe_setup(args.workload, args.seed)
            timed, probes = [], []
            while perf_counter() - start < args.seconds or len(timed) < MIN_TIMED_PASSES:
                timed.append(run())
                problems += compare(timed[-1], reference)
                if perf_counter() - start >= len(probes) * args.seconds / SETUP_PROBES:
                    probes.append(probe_setup(args.workload, args.seed))
            while len(probes) < SETUP_PROBES:
                probes.append(probe_setup(args.workload, args.seed))
            raw_setup, setup_times = (list(column) for column in zip(*probes))
            passes += timed
        else:
            untraced, traced = [], []
            tracer = spans.Tracer()
            while perf_counter() - start < args.seconds or len(traced) < MIN_TRACED_PASSES:
                untraced.append(run())
                problems += compare(untraced[-1], reference)
                with spans.traced(tracer) as patcher:
                    traced.append(run(tracer))
                problems += compare(traced[-1], reference)
            passes += untraced + traced
            if patcher.missing:
                print("not wrapped (the program no longer has them): "
                      + ", ".join(patcher.missing))

    attempted = sum(p.episodes for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace == 0:
        metrics = end_to_end(reference, timed, setup_times, attempted, failed)
        for name, values, unit in (
            ("raw pass wall", [p.wall for p in timed], "s"),
            ("pass slowdown", [p.slowdown for p in timed], "x"),
            ("raw setup", raw_setup, "s"),
            ("setup_s", setup_times, "s"),
        ):
            q1, q2, q3 = statistics.quantiles(values, n=4)
            print(f"spread {name}: q1 {q1:.6g} median {q2:.6g} q3 {q3:.6g} {unit} "
                  f"over {len(values)} samples")
        print(f"episodes timed {sum(p.episodes for p in timed)} in {len(timed)} passes; "
              f"error_rate {failed / attempted:.6g} ({failed}/{attempted})")
    else:
        metrics = spans.layer_metrics(tracer, reference, passes=len(traced))
        metrics["trace_overhead_ratio"] = (median_wall(traced) / median_wall(untraced), "ratio")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
