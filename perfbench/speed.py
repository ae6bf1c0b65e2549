"""The machine's speed, measured by a fixed task that does not call levyfield.

On a shared host the speed of a core drifts by a quarter and more over tens
of seconds and minutes, with the load on the host.  A run cannot
average that out, so the end-to-end times are scaled by it: the reference
task below is timed before every operation and once more at the end of a
round, and a round's time is multiplied by REFERENCE_S / (the round's task
time), where an operation is taken to run at the mean of the task times
just before and after it and the round's task time is their mean weighted
by operation time.  The result reads as seconds on a machine where the task
takes REFERENCE_S.

The task mixes the three kinds of work the workloads do: an interpreter
loop, many numpy calls on small arrays (the per-atom loops) and a few on
large arrays (kernel matrices and grid slabs).  Tried against timed
levyfield calls for 300 s, a half-length version of it took the spread of
25-second means of each call from 0.10-0.15 to 0.03-0.05.  The task does
not call levyfield, so no change to the program's code moves it; work the
program leaves running between calls (a spinning thread) would slow it,
and so read as a faster program: each run prints the task's times.
"""

from __future__ import annotations

import time

import numpy as np

# About the task's time on the 2-vCPU machine of perfbench/README.md.
REFERENCE_S = 0.07

_SMALL = np.linspace(0.0, 1.0, 24)
_LARGE = np.linspace(0.0, 1.0, 400_000)
# The large-array work writes into buffers made once: a fresh 3 MB array
# costs page faults or not depending on what the process freed before, which
# would make the task's time depend on the workload, not on the machine.
_BUF = np.empty((2, _LARGE.size))


def reference_seconds() -> float:
    """Wall time of one pass of the reference task (about REFERENCE_S)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(120_000):
        acc += i * i % 7
    for _ in range(3000):
        np.exp(-_SMALL) * np.cos(_SMALL) + _SMALL.sum()
    for _ in range(6):
        np.exp(np.negative(_LARGE, out=_BUF[0]), out=_BUF[0])
        np.cos(_LARGE, out=_BUF[1])
        np.multiply(_BUF[0], _BUF[1], out=_BUF[0]).sum()
    return time.perf_counter() - t0


def round_task_seconds(seconds, references) -> float:
    """The task time over a round: seconds[i] is operation i's wall time,
    references[i] and references[i + 1] the task times just before and
    after it."""
    around = [(a + b) / 2 for a, b in zip(references, references[1:])]
    return sum(s * r for s, r in zip(seconds, around)) / sum(seconds)


def scaled(seconds: float, task_seconds: float) -> float:
    """seconds at the reference speed, given the task time measured over
    the same stretch of the run."""
    return seconds * REFERENCE_S / task_seconds
