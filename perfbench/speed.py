"""Machine-speed reference for the end-to-end timings.

The benchmark runs on a shared host whose speed drifts by tens of percent
over seconds to minutes, and the drift hits every process alike. To keep
that drift out of the comparison of two versions of the program, the
untraced loop times a block of fixed calibration work between items and
scales each item's time by how fast the blocks just before and just after
it ran:

    scaled_i = raw_i / median(slowdowns in blocks i and i + 1)

A slowdown is a calibration time over its reference time, so the scaled
timings read as the times on a machine that runs the calibration in its
reference time. Two kinds of calibration, each like the work it stands for:

- ``chunk``: exact rational arithmetic and small dict updates in this
  process, the kind of interpreter work the library does (reference 2 ms);
- ``interpreter_start``: a bare ``python -c pass`` child, for workloads whose
  items are child processes (reference 50 ms).

The program never runs the calibration, so a slower program still reads
slower; a slower machine does not. Raw wall-clock figures are printed beside
the scaled ones.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

REFERENCE_CHUNK_S = 0.002
REFERENCE_START_S = 0.05


def chunk() -> float:
    """Run one calibration chunk; return its slowdown."""
    start = perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        y = Fraction(i % 11 + 1, i % 13 + 2)
        acc += y * y - y
        table[i % 97, i % 89] = acc
    return (perf_counter() - start) / REFERENCE_CHUNK_S


def chunks(n: int) -> list:
    return [chunk() for _ in range(n)]


def interpreter_start(env, cwd) -> float:
    """Start a bare interpreter and wait for it; return its slowdown."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True,
                   capture_output=True, timeout=60)
    return (perf_counter() - start) / REFERENCE_START_S


def slowdowns(blocks) -> list:
    """Per item, from the calibration blocks before and after it."""
    return [statistics.median(a + b) for a, b in zip(blocks, blocks[1:])]


def scale(values, blocks) -> list:
    return [v / s for v, s in zip(values, slowdowns(blocks))]
