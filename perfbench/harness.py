"""Operation bookkeeping, statistics and the result line.

Every workload reports the same end-to-end metrics (so every run prints
every metric the benchmark declares) and the same per-layer metrics (a
layer that does no work in a workload reports 0 there).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

#: End-to-end metrics, measured with tracing off: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "round_ms": "ms",
    "hot_ms": "ms",
    "query_ms": "ms",
}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "core.nodes_visited": "count",
    "core.model_evals": "count",
    "core.tiles_pruned": "count",
    "core.pd": "ratio",
    "core.pm": "ratio",
    "core.search_self_ms": "ms",
    "models.evaluate_batch_us_per_cell": "us",
    "models.interval_batch_ms": "ms",
    "embed.build_ms": "ms",
    "embed.refreshed_tiles": "count",
    "service.top_k_self_ms": "ms",
    "service.batch_shared_members": "count",
    "service.cache_hit_rate": "ratio",
    "service.cache_lookups": "count",
    "service.onion_routed_share": "ratio",
    "index.onion_build_s": "s",
    "index.hull_layers_s": "s",
    "index.onion_layers": "count",
    "store.append_self_ms": "ms",
    "store.bytes_rewritten_per_user_byte": "ratio",
    "store.open_ms": "ms",
    "pyramid.screen_build_s": "s",
    "serving.client_gap_ms": "ms",
    "serving.admit_ms": "ms",
    "serving.queue_wait_ms": "ms",
    "serving.worker_ms": "ms",
    "serving.worker_search_ms": "ms",
    "serving.unattributed_ms": "ms",
    "serving.unattributed_share": "ratio",
    "serving.worker_request_spread": "ratio",
    "protocol.codec_us": "us",
    "telemetry.spans_per_reply": "count",
    "telemetry.spans_dropped": "count",
    "telemetry.trace_overhead": "ratio",
}


class Ops:
    """Attempted / failed / latency per operation type.

    With ``cpu=True`` (the in-process workloads) ``latency`` holds the
    process CPU time of each call, every thread of the program included;
    ``wall`` always holds wall time. On a shared VM, wall time also
    counts the time the host hands this VM's CPUs to other tenants,
    which drifts by tens of percent over minutes; CPU time keeps the
    program's own cost, and in a one-caller loop it equals the wall time
    whenever the host does not interfere.
    """

    def __init__(self, cpu: bool = False) -> None:
        self.cpu = cpu
        self.wall: dict[str, list[float]] = {}
        self.latency: dict[str, list[float]] = {}
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.errors: list[str] = []
        #: Time inside operations per whole round of the workload's mix.
        self.rounds: list[float] = []

    def call(self, kind: str, fn: Callable[..., Any], *args, **kwargs) -> Any:
        """Run one operation; an exception counts it as failed and
        returns ``None`` (the run goes on and reports the failure)."""
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            self.failed[kind] = self.failed.get(kind, 0) + 1
            if len(self.errors) < 5:
                self.errors.append(f"{kind}: {traceback.format_exc()}")
            return None
        wall = time.perf_counter() - start
        self.record(kind, time.process_time() - cpu_start if self.cpu else wall, wall)
        return result

    def record(self, kind: str, seconds: float, wall: float | None = None) -> None:
        self.latency.setdefault(kind, []).append(seconds)
        self.wall.setdefault(kind, []).append(seconds if wall is None else wall)

    def count(self, kind: str, attempted: int, failed: int) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + attempted
        self.failed[kind] = self.failed.get(kind, 0) + failed

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    def all_latencies(self) -> list[float]:
        return [value for values in self.latency.values() for value in values]

    def busy_seconds(self) -> float:
        return sum(self.all_latencies())


def p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: list[float]) -> float:
    if len(values) < 10:
        return max(values) if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def p99(values: list[float]) -> float:
    if len(values) < 100:
        return max(values) if values else 0.0
    return statistics.quantiles(values, n=100)[-1]


def own_peak_rss_mb() -> float:
    """This process's peak resident set (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def thread_cpu_seconds(pid: int) -> dict[int, float]:
    """CPU time of each live thread of a process, by thread id.

    Read per thread because ``/proc/<pid>/schedstat`` (nanoseconds)
    covers only the thread it names; where the kernel lacks it,
    ``stat`` gives user + system time in clock ticks. A thread that ends
    while it is read is left out.
    """
    times: dict[int, float] = {}
    for entry in os.scandir(f"/proc/{pid}/task"):
        try:
            times[int(entry.name)] = _task_cpu_seconds(entry.path)
        except OSError:
            continue
    return times


def _task_cpu_seconds(task: str) -> float:
    try:
        with open(f"{task}/schedstat", encoding="ascii") as handle:
            return int(handle.read().split()[0]) / 1e9
    except FileNotFoundError:
        if not os.path.isdir(task):
            raise
    with open(f"{task}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def end_to_end_metrics(
    setup_seconds: list[float],
    ops: Ops,
    busy_seconds: float,
    peak_rss_mb: float,
    hot_s: float,
    query_s: float,
) -> dict[str, float]:
    """The end-to-end metrics every workload reports; ``hot_s`` and
    ``query_s`` are the workload's hot-spot and common-query latencies
    (see README.md for what each workload puts there)."""
    completed = len(ops.all_latencies())
    return {
        "setup_s": statistics.median(setup_seconds),
        "ops_per_s": completed / busy_seconds if busy_seconds > 0 else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "round_ms": p50(ops.rounds) * 1e3,
        "hot_ms": hot_s * 1e3,
        "query_ms": query_s * 1e3,
    }


class CoreTally:
    """Engine work of in-process results: the ``core.*`` metrics.

    Cells examined are the cells scored at leaf level: full model
    evaluations plus cells entering level 1 of the linear level cascade.
    ``core.pd`` is region cells / cells examined and ``core.pm`` is
    (cells examined x the model's full complexity) / flops counted, so
    ``pm * pd`` is the paper's ``nN / work`` (PAPER section 4.2).
    """

    def __init__(self) -> None:
        self.results = 0
        self.nodes = 0
        self.model_evals = 0
        self.tiles_pruned = 0
        self.region_cells = 0
        self.examined = 0
        self.flops = 0
        self.full_flops = 0
        self.spans = 0

    def absorb(self, result, query, shape: tuple[int, int]) -> None:
        row0, col0, row1, col1 = query.clip_region(shape)
        examined = result.counter.model_evals + result.audit.cells_entered_level.get(1, 0)
        self.results += 1
        self.nodes += result.counter.nodes_visited
        self.model_evals += result.counter.model_evals
        self.tiles_pruned += result.audit.tiles_pruned
        self.region_cells += (row1 - row0) * (col1 - col0)
        self.examined += examined
        self.flops += result.counter.flops
        self.full_flops += examined * query.model.complexity
        self.spans += len(result.trace.spans) if result.trace is not None else 0

    def metrics(self) -> dict[str, float]:
        n = max(1, self.results)
        return {
            "core.nodes_visited": self.nodes / n,
            "core.model_evals": self.model_evals / n,
            "core.tiles_pruned": self.tiles_pruned / n,
            "core.pd": self.region_cells / self.examined if self.examined else 0.0,
            "core.pm": self.full_flops / self.flops if self.flops else 0.0,
            "telemetry.spans_per_reply": self.spans / n,
        }


@dataclass
class Outcome:
    """What a workload hands back to the entry point."""

    ops: Ops
    problems: list[str]
    metrics: dict[str, float]
    #: Named per-type figures printed for people (e.g. linear_p50_ms).
    details: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Per-layer metrics (traced runs only); missing names report 0.
    layer: dict[str, float] = field(default_factory=dict)
    #: Program-side Chrome trace events to add to the traced run's file.
    chrome_events: list[dict[str, Any]] = field(default_factory=list)
    #: (label, ms) rows splitting the mean request, printed in place of
    #: the span table when the work ran in other processes.
    breakdown: list[tuple[str, float]] = field(default_factory=list)


def fingerprint(workload: str, seed: int, seconds: int, trace: int) -> str:
    return (
        f"host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} workload={workload} seed={seed} "
        f"seconds={seconds} trace={trace}"
    )


def print_ops_table(ops: Ops) -> None:
    clock = "CPU" if ops.cpu else "wall"
    wall_header = " / wall p50 ms" if ops.cpu else ""
    print(f"operations (attempted / failed / {clock} p50 ms / {clock} p90 ms{wall_header}):")
    for kind in sorted(ops.attempted):
        values = ops.latency.get(kind, [])
        wall = f" {p50(ops.wall.get(kind, [])) * 1e3:>10.3f}" if ops.cpu else ""
        print(
            f"  {kind:<22} {ops.attempted[kind]:>6} / {ops.failed.get(kind, 0):<4}"
            f" {p50(values) * 1e3:>10.3f} {p90(values) * 1e3:>10.3f}{wall}"
        )
    for error in ops.errors:
        print(f"  error: {error.rstrip()}")


def result_line(
    correct: bool, ops: Ops, metrics: dict[str, float], units: dict[str, str]
) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(ops.total_attempted),
            "failed": int(ops.total_failed),
            "metrics": {
                name: {"value": float(metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }
    )
