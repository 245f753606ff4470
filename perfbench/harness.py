"""Shared plumbing: timed public calls, medians, memory, leak checks.

Every call the benchmark makes into ``repro`` goes through :func:`timed`,
which opens a span named ``bench.<what>`` on the active ``repro.obs``
tracer.  With tracing off that tracer is the disabled singleton, so the
end-to-end figures carry no tracing cost; in a traced run the spans land
in the same trace as the ones the program emits itself.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import statistics
import threading
import time
from typing import Any, Callable

from repro.obs import current_tracer

SHM_DIR = "/dev/shm"


class LeakError(RuntimeError):
    """A process, thread or shared-memory segment outlived a workload."""


def timed(name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> "tuple[Any, float]":
    """Run ``fn`` inside a ``bench.<name>`` span; return (result, seconds)."""
    with current_tracer().span("bench." + name):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, time.perf_counter() - t0


def median(values: "list[float]") -> float:
    return float(statistics.median(values))


def span_seconds(tracer: Any, name: str) -> "list[float]":
    """Durations of every closed span called ``name``, in order."""
    return [s.dur_s for s in tracer.spans_named(name)]


def peak_rss_mb(extra_children: int = 0) -> float:
    """Peak resident set of this process, in MiB, plus ``extra_children``
    times the largest peak among its waited-for child processes
    (``getrusage`` reports only the largest one)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + extra_children * kids) / 1024.0


def _shm_entries() -> "set[str]":
    try:
        return set(os.listdir(SHM_DIR))
    except FileNotFoundError:
        return set()


def _child_pids() -> "set[int]":
    pids: "set[int]" = set()
    task_dir = f"/proc/{os.getpid()}/task"
    try:
        tids = os.listdir(task_dir)
    except FileNotFoundError:
        return pids
    for tid in tids:
        try:
            with open(f"{task_dir}/{tid}/children") as fh:
                pids.update(int(p) for p in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return pids


def _stop_resource_tracker() -> None:
    """End the stdlib's shared-memory resource tracker, if one was
    started for this process's worker pools, and wait for it: it is a
    child process like any other.  It unlinks the segments it still
    tracks as it stops, so look for leaked segments before calling this."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class LeakGuard:
    """Snapshot threads and shared-memory segments before a workload and
    verify afterwards that nothing it started is left."""

    def __init__(self) -> None:
        self._threads = {t.ident for t in threading.enumerate()}
        self._shm = _shm_entries()

    def check(self, timeout_s: float = 15.0) -> None:
        deadline = time.monotonic() + timeout_s
        _wait_until_empty(self._new_threads_and_segments, deadline)
        # Segments first: stopping the tracker unlinks any it still holds,
        # which would hide a leaked one.
        _stop_resource_tracker()
        _wait_until_empty(_live_children, deadline)

    def _new_threads_and_segments(self) -> "list[str]":
        threads = [
            f"thread {t.name}" for t in threading.enumerate()
            if t.ident not in self._threads and t.is_alive()
        ]
        return threads + [f"shm {s}" for s in sorted(_shm_entries() - self._shm)]


def _live_children() -> "list[str]":
    pids = {p.pid for p in multiprocessing.active_children()} | _child_pids()
    return [f"process {pid}" for pid in sorted(pids)]


def _wait_until_empty(probe: Callable[[], "list[str]"], deadline: float) -> None:
    while True:
        left = probe()
        if not left:
            return
        if time.monotonic() >= deadline:
            raise LeakError(f"left running after the workload: {', '.join(left)}")
        time.sleep(0.05)
