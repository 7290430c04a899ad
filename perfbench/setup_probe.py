"""What a user pays before the first episode, run in a fresh interpreter.

Imports the operator entry point (which pulls in every layer), loads the
satellite catalog and generates the workload, then prints ``time.monotonic()``.
``run.py`` takes the time from starting this script to that instant as
``setup_s``.
"""

import argparse
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import proxagent.cli  # noqa: E402,F401
from proxagent.env import load_satellite_catalog  # noqa: E402

import workloads  # noqa: E402

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True)
parser.add_argument("--seed", type=int, required=True)
args = parser.parse_args()
workloads.generate(args.workload, args.seed, list(load_satellite_catalog()))
print(time.monotonic())
