"""Closed-loop operation recording, result metrics and run bookkeeping.

Every workload drives the program through a :class:`Recorder`: one
simulated user or client issues an operation, the recorder times it
(monotonic clock, nanoseconds) and only then does the workload issue
the next one.  Correctness checks run between operations, outside the
timed interval, and report through :meth:`Recorder.expect`.

Reference-speed time.  The host this benchmark was written on flips
between two speeds about 1.7x apart every few seconds (a pure-Python
loop shows it with nothing else running), which no bound on raw wall
time survives.  So the recorder times a fixed pure-Python
:func:`reference_kernel` between rounds and scales every operation's
wall time by ``REFERENCE_NS / kernel time`` around it: times are
reported as they would read on a machine that runs the kernel in
exactly :data:`REFERENCE_NS`.  Raw wall times stay in the per-kind
table the run prints.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

#: Errors kept verbatim for the run report (the counts are complete).
MAX_ERRORS_KEPT = 20
#: Wall time of one reference_kernel() call at the reference speed.
REFERENCE_NS = 500_000


class _Node:
    __slots__ = ("key", "value", "children")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value
        self.children: list = []


def reference_kernel() -> int:
    """Fixed pure-Python work shaped like the program's own: object
    churn, attribute access, dict and list updates, a keyed sort.  It
    fits in the first-level caches on purpose: a variant that also read
    a 2 MiB table found it evicted by the workload between rounds, so
    its time followed the workload's state instead of the host's speed."""
    table: Dict[int, int] = {}
    nodes = [_Node(i, i * 7 % 13) for i in range(400)]
    for node in nodes:
        table[node.key % 97] = table.get(node.key % 97, 0) + node.value
        if node.value & 1:
            nodes[node.key // 2].children.append(node)
    ordered = sorted(nodes, key=lambda n: (n.value, n.key))
    return sum(len(n.children) for n in nodes) + len(ordered) + len(table)


def kernel_ns() -> int:
    """The faster of two timed reference_kernel() calls, with the
    collector paused (the kernel's objects die by reference count)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(2):
            started = time.perf_counter_ns()
            reference_kernel()
            elapsed = time.perf_counter_ns() - started
            best = elapsed if best is None else min(best, elapsed)
        return best
    finally:
        if enabled:
            gc.enable()


class OperationFailed(Exception):
    """Raised by an operation whose program call reported failure
    without raising (a call that returned its failure default)."""


class Recorder:
    """Times closed-loop operations and counts attempts and failures
    per operation kind."""

    def __init__(self) -> None:
        #: Reference-speed latencies (ns) of settled operations.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Raw wall-time latencies (ns), same order.
        self.raw: Dict[str, List[int]] = defaultdict(list)
        self._pending: List[Tuple[str, int]] = []
        self._last_kernel = 0
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.errors: List[str] = []
        self.problems: List[str] = []
        #: Set while a traced segment runs (see tracer.Tracer).
        self.tracer = None

    def op(self, kind: str, fn: Callable, *args, **kwargs):
        """Run one operation.  Returns its result, or None when it
        raised (the failure is counted, never propagated)."""
        self.attempted[kind] += 1
        if self.tracer is not None:
            self.tracer.op_id += 1
        started = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except Exception as err:  # an operation failure, not a bench bug
            self.failed[kind] += 1
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(f"{kind}: {type(err).__name__}: {err}")
            return None
        self._pending.append((kind, time.perf_counter_ns() - started))
        return result

    def settle(self) -> None:
        """Time the reference kernel and scale the operations recorded
        since the previous settle by the mean of the two kernel times
        around them.  Call it before the first operation and after
        every round."""
        kernel = kernel_ns()
        if self._pending:
            scale = 2 * REFERENCE_NS / ((self._last_kernel or kernel) + kernel)
            for kind, raw in self._pending:
                self.raw[kind].append(raw)
                self.samples[kind].append(raw * scale)
            self._pending.clear()
        self._last_kernel = kernel

    def expect(self, ok: bool, message: str) -> bool:
        """Record one correctness check; a failing check makes the run
        incorrect but does not stop it."""
        if not ok:
            self.problems.append(message)
        return ok

    # -- aggregates --------------------------------------------------------

    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    def total_failed(self) -> int:
        return sum(self.failed.values())

    def latencies(self, kinds=None) -> List[float]:
        """Sorted reference-speed latencies (ns) of the given kinds
        (default: all)."""
        chosen = self.samples.keys() if kinds is None else kinds
        values: List[float] = []
        for kind in chosen:
            values.extend(self.samples.get(kind, ()))
        values.sort()
        return values

    def report_lines(self) -> List[str]:
        """Human-readable per-kind table: attempted, failed, and the
        median latency at reference speed and in raw wall time."""
        lines = [f"{'operation':<14}{'attempted':>10}{'failed':>8}"
                 f"{'p50_us':>12}{'raw_p50_us':>12}"]
        for kind in sorted(self.attempted):
            done = sorted(self.samples.get(kind, ()))
            raw = sorted(self.raw.get(kind, ()))
            p50 = percentile(done, 0.5) / 1e3 if done else float("nan")
            raw50 = percentile(raw, 0.5) / 1e3 if raw else float("nan")
            lines.append(
                f"{kind:<14}{self.attempted[kind]:>10}"
                f"{self.failed[kind]:>8}{p50:>12.1f}{raw50:>12.1f}"
            )
        return lines


class SetupTimer:
    """Reference-speed duration of a set-up, scaled segment by segment:
    the set-up calls :meth:`tick` every few hundred milliseconds, and
    the kernel timings at the ticks are left out of the total."""

    def __init__(self) -> None:
        self.total_ns = 0.0
        self._kernel = kernel_ns()
        self._started = time.perf_counter_ns()

    def tick(self) -> None:
        elapsed = time.perf_counter_ns() - self._started
        kernel = kernel_ns()
        self.total_ns += elapsed * 2 * REFERENCE_NS / (self._kernel + kernel)
        self._kernel = kernel
        self._started = time.perf_counter_ns()

    def seconds(self) -> float:
        self.tick()
        return self.total_ns / 1e9


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in (0, 1])."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def closed_loop(recorder: Recorder, seconds: float,
                round_fn: Callable[[int], None], start_round: int = 0) -> int:
    """Run whole rounds until *seconds* of wall time have passed,
    settling the recorder around each.  Returns the next round number."""
    deadline = time.perf_counter() + seconds
    index = start_round
    recorder.settle()
    while True:
        round_fn(index)
        recorder.settle()
        index += 1
        if time.perf_counter() >= deadline:
            return index


def loop_metrics(recorder: Recorder, kinds: List[str]) -> Dict[str, float]:
    """ops_per_s, op_p50_us and op_p99_us over the loop's operation
    kinds, at reference speed.  Throughput is completed operations per
    second of operation time, which in a one-client closed loop
    excludes the benchmark's own bookkeeping and checks between
    operations."""
    values = recorder.latencies(kinds)
    if not values:
        raise ValueError("the loop completed no operation")
    busy_s = sum(values) / 1e9
    return {
        "ops_per_s": len(values) / busy_s,
        "op_p50_us": percentile(values, 0.5) / 1e3,
        "op_p99_us": percentile(values, 0.99) / 1e3,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class WorkDir:
    """A scratch directory inside the checkout for on-disk state
    (checkpoint stores, places files), removed when the run ends."""

    def __init__(self, root: str, label: str) -> None:
        self.path = os.path.join(root, ".perfbench_work", f"{label}-{os.getpid()}")
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)

    def sub(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path, exist_ok=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        parent = os.path.dirname(self.path)
        try:
            os.rmdir(parent)
        except OSError:
            pass  # another run still uses it, or it is already gone


def derive_seed(base: int, token: str) -> int:
    """Independent, replayable sub-seed for one input stream."""
    import zlib

    return (base * 2654435761 + zlib.crc32(token.encode())) % 2**31
