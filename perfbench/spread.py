"""Run the benchmark repeatedly and report each metric's median and quartiles.

    python3 perfbench/spread.py --runs 10 --first-seed 0 --out results.json

Runs ``run.py`` once per seed and workload, one run at a time, with the run
length and workloads of ``BENCHMARK.json``. For every
metric it prints the median, the quartiles and the spread (q3 - q1) / median,
and, for end-to-end metrics, the bound from ``BENCHMARK.json`` and whether the
spread is within it and within a third of it. The JSON written by ``--out``
also records the machine context of the runs. Exits 1 if a run failed or
reported ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, ROOT, machine_context

RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {"context": {**machine_context(None), "seed": seeds},
              "seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in seeds:
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            ok &= result["correct"]
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        metrics = {}
        for name, first in results[0]["metrics"].items():
            summary = summarize([r["metrics"][name]["value"] for r in results])
            summary["unit"] = first["unit"]
            flags = ""
            if name in bounds:
                bound = bounds[name]
                summary.update(bound=bound, within_bound=summary["spread"] <= bound,
                               within_third=summary["spread"] < bound / 3)
                flags = f" bound {bound:.3g} {'ok' if summary['within_third'] else 'WIDE'}"
            metrics[name] = summary
            print(f"  {name}: median {summary['median']:.6g} q1 {summary['q1']:.6g} "
                  f"q3 {summary['q3']:.6g} {summary['unit']} "
                  f"spread {summary['spread']:.4f}{flags}", flush=True)
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": metrics,
        }
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
