"""Workload ``fleet_http``: HTTP traffic through the multi-process fleet.

Two client threads, each with one keep-alive connection, run a closed
loop of ``POST /query`` against a :class:`~repro.serving.http
.ServingServer` in front of a default :class:`~repro.serving.fleet
.WorkerFleet` (default :class:`FleetConfig`: 2 workers). The archive is
a 256x256 Landsat TM + DEM stack written to a store in a scratch
directory of the checkout; the workers memory-map it read-only (the
shared-memory mode would put the bands in ``/dev/shm``, outside the
checkout). The requests are 64 distinct HPS-variant top-10 queries with
``use_cache=false``; client ``i`` sends queries ``i, i+2, ...`` of each
64-query round.

Engine work per request is a few ms, so the front end, the wire codec,
the pipes, dispatch and the workers are a large share of each request,
while ``models.knowledge``, ``index`` and ``data.store`` writes do
nothing.

The end-to-end figures are program CPU time per round (see
:class:`_Rounds`); the clients' wall-clock latencies are printed beside
them.
"""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time
from typing import Any

import numpy as np

from perfbench import checks, inputs
from perfbench.harness import (
    Ops,
    Outcome,
    own_peak_rss_mb,
    p50,
    p90,
    p99,
    pid_peak_rss_mb,
    thread_cpu_seconds,
)
from perfbench.tracing import Tracer
from repro.core.query import TopKQuery
from repro.data.archive import Archive
from repro.data.store import ArchiveWriter
from repro.serving import FleetConfig, ServingServer, WorkerFleet, decode_query, encode_query

SIZE = 256
ARCHIVE_SEED = 12
N_QUERIES = 64
CLIENTS = 2
K = 10
SETUP_REPEATS = 5
#: Rounds left out of the figures: the first touches cold pages and caches.
WARMUP_ROUNDS = 1
TIMEOUT_S = 60.0


def _start(store: str, ship_spans: bool, cleanup) -> tuple[WorkerFleet, ServingServer]:
    fleet = WorkerFleet(config=FleetConfig(ship_spans=ship_spans), store_path=store)
    cleanup.on_close("worker fleet", fleet.stop)
    fleet.start()
    pids = [worker["pid"] for worker in fleet.describe()]
    cleanup.record_pids(pids)
    print(f"fleet workers: pids {pids}", flush=True)
    server = ServingServer(fleet)
    cleanup.on_close("http server", server.close)
    server.start()
    return fleet, server


def _stop(fleet: WorkerFleet, server: ServingServer) -> None:
    server.close()
    fleet.stop()


def _get_json(server: ServingServer, path: str) -> Any:
    conn = http.client.HTTPConnection(server.host, server.port, timeout=TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return json.loads(response.read())
    finally:
        conn.close()


class _Rounds:
    """Round boundaries the client threads share, and the CPU time the
    program spent in each round.

    Every client sends its share of the 64 queries, then waits at a
    barrier; the last to arrive closes the round. A round's program CPU
    time is this process's CPU time (HTTP server, fleet threads) minus
    the client threads' own, plus the workers' CPU time. On a shared VM
    the host hands the CPUs to other tenants for stretches that drift
    over minutes; wall time counts those stretches, CPU time does not.
    """

    def __init__(self, worker_pids: list[int], deadline: float) -> None:
        self.worker_pids = worker_pids
        self.deadline = deadline
        self.client_cpu = [0.0] * CLIENTS
        self.barrier = threading.Barrier(CLIENTS, action=self._close_round)
        self.done = False
        #: (program CPU s, front-end CPU s, worker CPU s, wall s) per round.
        self.rounds: list[tuple[float, float, float, float]] = []
        self._last: tuple[float, dict[tuple[int, int], float], float] | None = None

    def _sample(self) -> tuple[float, dict[tuple[int, int], float], float]:
        front = time.process_time() - sum(self.client_cpu)
        workers = {
            (pid, tid): seconds
            for pid in self.worker_pids
            for tid, seconds in thread_cpu_seconds(pid).items()
        }
        return front, workers, time.perf_counter()

    def _close_round(self) -> None:
        now = self._sample()
        if self._last is not None:
            front = now[0] - self._last[0]
            workers = sum(
                seconds - self._last[1].get(thread, 0.0) for thread, seconds in now[1].items()
            )
            self.rounds.append((front + workers, front, workers, now[2] - self._last[2]))
        self._last = now
        self.done = now[2] >= self.deadline and len(self.rounds) > WARMUP_ROUNDS

    def wait(self, index: int) -> bool:
        """Close this client's round; ``True`` while the run goes on."""
        self.client_cpu[index] = time.thread_time()
        self.barrier.wait(TIMEOUT_S)
        return not self.done


class _Client(threading.Thread):
    """One keep-alive connection running whole rounds of its queries."""

    def __init__(self, index, server, bodies, rounds, time_codec) -> None:
        super().__init__(name=f"perfbench-client-{index}", daemon=True)
        self.index = index
        self.server = server
        self.bodies = bodies
        self.rounds = rounds
        self.time_codec = time_codec
        self.ops = Ops()
        #: (query index, reply bytes, trace id, latency s)
        self.replies: list[tuple[int, bytes, str, float]] = []
        self.codec_s: list[float] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        conn = http.client.HTTPConnection(self.server.host, self.server.port, timeout=TIMEOUT_S)
        try:
            mine = range(self.index, len(self.bodies), CLIENTS)
            while self.rounds.wait(self.index):
                for query_index in mine:
                    self._one(conn, query_index)
        except BaseException as error:  # noqa: BLE001 - reported by the caller
            self.error = error
            self.rounds.barrier.abort()
        finally:
            # Close before the server stops, so no handler is left
            # waiting on a keep-alive connection.
            conn.close()

    def _one(self, conn, query_index: int) -> None:
        body = self.bodies[query_index]
        self.ops.attempted["http"] = self.ops.attempted.get("http", 0) + 1
        start = time.perf_counter()
        try:
            conn.request("POST", "/query", body=body, headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.ops.failed["http"] = self.ops.failed.get("http", 0) + 1
            conn.close()
            return
        latency = time.perf_counter() - start
        if response.status != 200:
            self.ops.failed["http"] = self.ops.failed.get("http", 0) + 1
            self.ops.errors.append(f"http {response.status}: {data[:200]!r}")
            return
        self.ops.record("http", latency)
        self.replies.append(
            (query_index, data, response.getheader("X-Trace-Id", ""), latency)
        )
        if self.time_codec:
            codec_start = time.perf_counter()
            decode_query(json.loads(body))
            json.loads(data)
            self.codec_s.append(time.perf_counter() - codec_start)


def _drive(fleet, server, bodies, seconds, time_codec) -> tuple[list[_Client], _Rounds]:
    pids = [worker["pid"] for worker in fleet.describe()]
    rounds = _Rounds(pids, time.perf_counter() + seconds)
    clients = [_Client(i, server, bodies, rounds, time_codec) for i in range(CLIENTS)]
    for client in clients:
        client.start()
    for client in clients:
        client.join(seconds + 120.0)
        if client.is_alive():
            raise RuntimeError(f"{client.name} did not finish")
    # A client that fails breaks the barrier for the others: raise the
    # failure itself, not the broken barrier it caused.
    errors = [client.error for client in clients if client.error is not None]
    errors.sort(key=lambda error: isinstance(error, threading.BrokenBarrierError))
    if errors:
        raise errors[0]
    return clients, rounds


def _check(clients, dense, problems) -> None:
    """Check the first reply of each query against the dense scores; any
    later reply of the same query must be byte-for-byte the same answers
    (the program promises deterministic answers)."""
    first: dict[int, list] = {}
    for client in clients:
        for query_index, data, _trace, _latency in client.replies:
            answers = [(a["row"], a["col"], a["score"]) for a in json.loads(data)["answers"]]
            if query_index not in first:
                first[query_index] = answers
                problems.extend(
                    f"query {query_index}: {p}"
                    for p in checks.check_answers(answers, dense[query_index], (0, 0, SIZE, SIZE), K)
                )
            elif answers != first[query_index]:
                problems.append(f"query {query_index}: answers changed between replies")


def run(seed: int, seconds: float, tracer: Tracer, cleanup) -> Outcome:
    stack = inputs.landsat_stack(SIZE, ARCHIVE_SEED)
    bands = inputs.bands_of(stack)
    archive = Archive("fleet_http")
    for name in inputs.BANDS:
        archive.add(stack[name])
    store = str(cleanup.temp_dir("fleet-") / "store")
    ArchiveWriter.create(store, archive)

    rng = np.random.default_rng(seed)
    variants = [inputs.hps_variant(rng) for _ in range(N_QUERIES)]
    dense = [checks.linear_scores(bands, c) for c in variants]
    bodies = [
        json.dumps(
            encode_query(TopKQuery(inputs.linear_model(c), k=K), use_cache=False)
        ).encode("utf-8")
        for c in variants
    ]
    problems: list[str] = []
    ops = Ops()

    if not tracer.enabled:
        setup_seconds = []
        for repeat in range(SETUP_REPEATS):
            start = time.perf_counter()
            fleet, server = _start(store, False, cleanup)
            setup_seconds.append(time.perf_counter() - start)
            if repeat < SETUP_REPEATS - 1:
                _stop(fleet, server)
        clients, rounds = _drive(fleet, server, bodies, seconds, time_codec=False)
        worker_rss = sum(pid_peak_rss_mb(w["pid"]) for w in fleet.describe() if w["pid"])
        _stop(fleet, server)
        _merge(ops, clients)
        _check(clients, dense, problems)
        measured = rounds.rounds[WARMUP_ROUNDS:]
        program = [p for p, _f, _w, _wall in measured]
        front = [f / N_QUERIES for _p, f, _w, _wall in measured]
        workers = [w / N_QUERIES for _p, _f, w, _wall in measured]
        metrics = {
            "setup_s": statistics.median(setup_seconds),
            "ops_per_s": _cpu_rate(rounds),
            "peak_rss_mb": own_peak_rss_mb() + worker_rss,
            "round_ms": p50(program) * 1e3,
            "hot_ms": p50(front) * 1e3,
            "query_ms": p50(workers) * 1e3,
        }
        latencies = ops.latency.get("http", [])
        walls = [wall for _p, _f, _w, wall in measured]
        details = {
            "http_p50_ms": (p50(latencies) * 1e3, "ms"),
            "http_p90_ms": (p90(latencies) * 1e3, "ms"),
            "http_p99_ms": (p99(latencies) * 1e3, "ms"),
            "wall_qps": (N_QUERIES * len(walls) / sum(walls) if walls else 0.0, "1/s"),
            "round_wall_ms": (p50(walls) * 1e3, "ms"),
        }
        return Outcome(ops=ops, problems=problems, metrics=metrics, details=details)

    # Traced run: half the time on an untraced fleet, half on a fleet
    # that ships worker spans, so the tracing overhead is measured too.
    fleet, server = _start(store, False, cleanup)
    plain, plain_rounds = _drive(fleet, server, bodies, seconds / 2, time_codec=False)
    _stop(fleet, server)
    fleet, server = _start(store, True, cleanup)
    with tracer.span("op.http_phase"):
        traced, traced_rounds = _drive(fleet, server, bodies, seconds / 2, time_codec=True)
    traces = _get_json(server, "/traces?limit=256")["traces"]
    chrome = _get_json(server, "/traces/chrome?limit=256")
    per_worker = [
        snapshot["registry"]["counters"].get("service.queries", 0)
        for snapshot in fleet.stats()
    ]
    _stop(fleet, server)
    for group in (plain, traced):
        _merge(ops, group)
        _check(group, dense, problems)
    outcome = Outcome(ops=ops, problems=problems, metrics={})
    outcome.chrome_events = chrome.get("traceEvents", [])
    outcome.layer, outcome.breakdown = _layer_metrics(
        plain, plain_rounds, traced, traced_rounds, traces, per_worker
    )
    return outcome


def _merge(ops: Ops, clients) -> None:
    for client in clients:
        for kind, values in client.ops.latency.items():
            ops.latency.setdefault(kind, []).extend(values)
            ops.wall.setdefault(kind, []).extend(client.ops.wall[kind])
        for kind, count in client.ops.attempted.items():
            ops.count(kind, count, client.ops.failed.get(kind, 0))
        ops.errors.extend(client.ops.errors[:5])


def _cpu_rate(rounds: _Rounds) -> float:
    """Replies per second of program CPU time over the measured rounds."""
    measured = rounds.rounds[WARMUP_ROUNDS:]
    cpu = sum(program for program, _f, _w, _wall in measured)
    return N_QUERIES * len(measured) / cpu if cpu else 0.0


def _tree_stats(node: dict) -> tuple[float, int, int]:
    """Worker-side search seconds, shipped spans, dropped spans."""
    search = sum(s["duration_s"] for s in node.get("spans", []) if s["name"] == "search")
    spans = len(node.get("spans", [])) + len(node.get("shards", []))
    dropped = int(node.get("spans_dropped", 0))
    for child in node.get("children", []):
        child_search, child_spans, child_dropped = _tree_stats(child)
        search += child_search
        spans += child_spans
        dropped += child_dropped
    return search, spans, dropped


def _layer_metrics(plain, plain_rounds, traced, traced_rounds, traces, per_worker):
    latency_by_trace = {
        trace_id: latency
        for client in traced
        for _q, _d, trace_id, latency in client.replies
    }
    rows = []
    for trace in traces:
        latency = latency_by_trace.get(trace.get("trace_id"))
        if latency is None:
            continue
        stages: dict[str, float] = {}
        for span in trace.get("spans", []):
            stages[span["name"]] = stages.get(span["name"], 0.0) + span["duration_s"]
        search, shipped, dropped = 0.0, 0, 0
        for child in trace.get("children", []):
            child_search, child_spans, child_dropped = _tree_stats(child)
            search += child_search
            shipped += child_spans
            dropped += child_dropped
        attributed = stages.get("admit", 0.0) + stages.get("queue_wait", 0.0) + stages.get("worker", 0.0)
        rows.append(
            {
                "latency": latency,
                "client_gap": latency - trace["wall_seconds"],
                "admit": stages.get("admit", 0.0),
                "queue_wait": stages.get("queue_wait", 0.0),
                "worker": stages.get("worker", 0.0),
                "search": search,
                "unattributed": latency - attributed,
                "shipped": shipped,
                "dropped": dropped,
            }
        )

    def median_of(key: str) -> float:
        return p50([row[key] for row in rows])

    def mean_of(key: str) -> float:
        return sum(row[key] for row in rows) / len(rows) * 1e3 if rows else 0.0

    breakdown = [
        ("client gap (socket, HTTP, client)", mean_of("client_gap")),
        ("front end: admit", mean_of("admit")),
        ("front end: queue wait", mean_of("queue_wait")),
        ("worker span: search", mean_of("search")),
        ("worker span: rest (IPC, decode, service)", mean_of("worker") - mean_of("search")),
        ("front end: unattributed", mean_of("unattributed") - mean_of("client_gap")),
        ("total (client latency)", mean_of("latency")),
    ]
    counters = [
        json.loads(data)["counter"]
        for client in traced
        for _q, data, _t, _l in client.replies
    ]
    codec = [value for client in traced for value in client.codec_s]
    plain_rate = _cpu_rate(plain_rounds)
    traced_rate = _cpu_rate(traced_rounds)
    median_latency = median_of("latency")
    return {
        "core.nodes_visited": statistics.mean(c["nodes_visited"] for c in counters) if counters else 0.0,
        "core.model_evals": statistics.mean(c["model_evals"] for c in counters) if counters else 0.0,
        "serving.client_gap_ms": median_of("client_gap") * 1e3,
        "serving.admit_ms": median_of("admit") * 1e3,
        "serving.queue_wait_ms": median_of("queue_wait") * 1e3,
        "serving.worker_ms": median_of("worker") * 1e3,
        "serving.worker_search_ms": median_of("search") * 1e3,
        "serving.unattributed_ms": median_of("unattributed") * 1e3,
        "serving.unattributed_share": (
            median_of("unattributed") / median_latency if median_latency else 0.0
        ),
        "serving.worker_request_spread": (
            max(per_worker) / min(per_worker) if per_worker and min(per_worker) else 0.0
        ),
        "protocol.codec_us": p50(codec) * 1e6,
        "telemetry.spans_per_reply": p50([row["shipped"] for row in rows]),
        "telemetry.spans_dropped": float(sum(row["dropped"] for row in rows)),
        "telemetry.trace_overhead": plain_rate / traced_rate - 1.0 if traced_rate else 0.0,
    }, breakdown
