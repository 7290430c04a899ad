"""Rewrite ``digests.json``: the step digest of each workload's reference pass.

    python3 perfbench/record_digests.py

Run it only when the program's behaviour is meant to change; a perf or
simplicity change must leave every recorded digest as it is.
"""

from __future__ import annotations

import json
import sys

from run import DIGESTS, ROOT, SRC

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from proxagent.env import load_satellite_catalog  # noqa: E402

SEEDS = 64   # seeds 0..63 are recorded


def main() -> int:
    satellites = load_satellite_catalog()
    table = {}
    with workloads.scratch_dir(ROOT) as scratch:
        for workload in workloads.WORKLOADS:
            table[workload] = {}
            for seed in range(SEEDS):
                specs = workloads.generate(workload, seed, list(satellites))
                result = workloads.run_pass(workload, specs, satellites, scratch)
                if result.problems or result.failed:
                    print(f"{workload} seed {seed}: {result.failed} failed, "
                          f"{result.problems}", file=sys.stderr)
                    return 1
                table[workload][str(seed)] = result.digest
                print(f"{workload} {seed} {result.digest}", flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
