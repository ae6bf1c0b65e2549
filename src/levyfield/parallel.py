"""Fill the rows of one array on several CPUs, where that is measured to pay.

The kernel blocks of one long path (solver._atom_blocks and _grid_blocks)
are filled this way: each CPU takes a contiguous range of rows and runs the
same elementwise numpy operations on it as a serial fill would, so every
entry has the same bits whatever the split.  numpy releases the GIL inside
its loops over large arrays, so large ranges run at once; over small ones
the threads mostly take turns at the interpreter lock, and a split is
slower than one thread.  `least_range` finds where that turns by timing
the fill itself, and a caller splits no range below it.

The thread pool is made on first use, so importing levyfield starts no
thread, and with one CPU no thread is ever started.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import wait


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the most row ranges of one fill: one per CPU the process may run on
PARTS = _cpus()

# timed runs of each side of a split-or-serial comparison; the least counts
TRIALS = 5

_pool = None
_pool_lock = threading.Lock()


def _executor():
    """The pool: one thread fewer than the CPUs, since the calling thread
    fills one range, and at least one.  It starts a thread only when a
    range is handed to it and none is idle."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max(1, _cpus() - 1),
                                       thread_name_prefix="levyfield-rows")
        return _pool


def _forget_pool():
    # a forked child has none of the parent's threads, and its copy of the
    # lock may have been held by one of them
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def map_rows(fill, n_rows: int, parts: int) -> list:
    """[fill(r0, r1), ...] over `parts` contiguous ranges (at most PARTS)
    that tile [0, n_rows), in row order.  One range is fill(0, n_rows) on
    the calling thread.  Otherwise the first range runs on the calling
    thread and the others on the pool, except that the calling thread
    fills any range the pool has not started by the time it is done with
    its own; all have ended when this returns or raises.
    fill must write only its own rows, and must call no function that
    perfbench/tracing.py wraps: the tracer keeps one span stack for the
    whole process."""
    parts = max(1, min(parts, PARTS))
    cuts = [n_rows * i // parts for i in range(parts + 1)]
    ranges = [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a] or [(0, 0)]
    if len(ranges) == 1:
        return [fill(*ranges[0])]
    futures = [_executor().submit(fill, a, b) for a, b in ranges[1:]]
    try:
        results = [fill(*ranges[0])]
        # a range that no pool thread has started (the pool is busy, or
        # another process holds the other CPUs) is filled here instead
        results += [fill(a, b) if f.cancel() else f.result()
                    for f, (a, b) in zip(futures, ranges[1:])]
        return results
    except BaseException:
        for f in futures:
            f.cancel()
        wait(futures)   # no range that started is still being written
        raise


def _seconds(run, parts: int) -> float:
    t0 = time.perf_counter()
    run(parts)
    return time.perf_counter() - t0


def least_range(samples):
    """The fewest entries per range at which splitting pays, or None.
    samples yields (run, entries), fills of growing size: run(parts) fills
    `entries` entries over that many row ranges (map_rows).  Each is run
    on the calling thread alone and split over two ranges, in turn, TRIALS
    times, and the first whose least split time is below its least serial
    time gives its entries / 2.  None if no sample's split is faster (no
    larger sample was then tried: the caller asks again when it has larger
    fills)."""
    for run, entries in samples:
        serial = split = float("inf")
        for _ in range(TRIALS):
            serial = min(serial, _seconds(run, 1))
            split = min(split, _seconds(run, 2))
        if split < serial:
            return entries // 2
    return None
