"""Machine-speed calibration: a fixed pure-Python kernel timed between episodes.

The shared machine the bench runs on switches between fast and slow states
that last from seconds to minutes, and raw times follow the state they were
taken in: on a 2-vCPU Xeon, the wall time of one `evolve-campaign` pass
ranged from 3.0 to 5.4 s within three minutes. So the bench runs this kernel
between episodes, outside the timed calls into the program, and reports every
end-to-end time at a fixed reference speed:

    reported time = raw time / slowdown
    slowdown      = mean chunk time over the same stretch / REFERENCE_S

In the three minutes above, pass wall ÷ chunk time stayed within 23-26.

The kernel does interpreter work of the kind the program does (dicts, JSON,
string formatting, float math, regular expressions, sorting) and calls none of
the program's code. A change to the program moves reported times as it moves
raw ones; a change of machine speed moves the program and the kernel alike and
cancels. The garbage collector is paused while the kernel runs, so the size of
the program's heap does not decide the kernel's time.
"""

from __future__ import annotations

import gc
import json
import math
import re
import statistics
from time import perf_counter

# About one chunk's time on the 2-vCPU Xeon the baseline was taken on. It
# only fixes the scale of reported times; changing it would rescale them all.
REFERENCE_S = 0.003

_WORD = re.compile(r"[a-z]+")


def _kernel() -> int:
    rows = [{"i": i, "x": i * 0.5, "name": f"n{i}", "tags": [i, i + 1, "t"]}
            for i in range(200)]
    back = json.loads(json.dumps(rows))
    acc = 0.0
    for row in back:
        acc += math.hypot(row["x"], row["i"]) + len(row["tags"])
    text = "\n".join(f"{row['name']}: {row['x']:.3f} {row['tags']}" for row in back)
    return len(sorted(set(_WORD.findall(text * 2)))) + int(acc)


def chunk() -> float:
    """Seconds that one calibration chunk took."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _kernel()
        _kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def slowdown(chunks: list[float]) -> float:
    """How much slower than the reference speed the machine ran while these
    chunks were timed; divide a raw time taken meanwhile by it."""
    return statistics.fmean(chunks) / REFERENCE_S
