"""Machine speed, measured with a fixed pure-Python loop.

The shared machine the benchmark runs on changes speed by up to a quarter
within minutes, as other tenants come and go; that is far more than a change
worth measuring.  `run.py` times this loop about PER_PASS times a pass,
between programs, and scales every time it reports by REFERENCE_S over the median
loop time of the run, so its figures are seconds at one reference speed.
The loop builds and walks a tree of frozen dataclasses with isinstance
dispatch, the kind of work effc does, and uses nothing of effc.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

REFERENCE_S = 0.022  # the loop's time at the reference speed
PER_PASS = 16  # measurements in one pass over the programs


@dataclass(frozen=True)
class _Node:
    left: object
    right: object


def _build(depth: int):
    return _Node(_build(depth - 1), _build(depth - 1)) if depth else depth


def _walk(t) -> int:
    if isinstance(t, _Node):
        return _walk(t.left) + _walk(t.right) + 1
    return 0


def loop_s() -> float:
    """CPU time of one run of the calibration loop.

    The collector is off meanwhile: its pauses grow with the benchmark's own
    heap, which would make the loop a measure of that heap, not of the machine.
    """
    gc.disable()
    try:
        t0 = time.thread_time()
        for _ in range(16):
            _walk(_build(10))
        return time.thread_time() - t0
    finally:
        gc.enable()
