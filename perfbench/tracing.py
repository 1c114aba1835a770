"""Benchmark-side spans around calls into the program's layers.

A :class:`Tracer` records one span per call the benchmark makes into a
layer (``service.top_k``, ``store.append_region``, ...). In a traced run
it also wraps a few program functions in place (:meth:`Tracer.wrap`) so
that calls the program makes internally — ``KnowledgeModel
.evaluate_batch``, hull peeling, the tile-screen build — get a span too,
recorded from this file, not from inside the program. A disabled tracer
records nothing and wraps nothing, which is how untraced runs measure.

Spans nest per thread: a span's *self time* is its wall duration minus
the durations of its direct children on the same thread. Each span also
carries the thread CPU time it used, which is what per-cell model costs
are computed from (shard threads interleave under the GIL, so their
wall durations overlap).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        #: Extra Chrome events (program-side spans) to export as-is.
        self.external: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._anchor_perf = time.perf_counter()
        self._anchor_unix = time.time()
        self._restore: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **args: Any) -> Iterator[dict[str, Any] | None]:
        """Record ``name`` around the body (no-op when disabled)."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        record: dict[str, Any] = {
            "name": name,
            "tid": threading.get_ident(),
            "args": args,
            "children_s": 0.0,
        }
        stack.append(record)
        cpu_start = time.thread_time()
        start = time.perf_counter()
        try:
            yield record
        finally:
            end = time.perf_counter()
            record["cpu_s"] = time.thread_time() - cpu_start
            record["start_s"] = start - self._anchor_perf
            record["dur_s"] = end - start
            stack.pop()
            if stack:
                stack[-1]["children_s"] += record["dur_s"]
            with self._lock:
                self.spans.append(record)

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        on_result: Callable[[dict, tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attribute`` by a spanned wrapper until
        :meth:`unwrap_all`. ``on_result(record, args, result)`` may add
        counts to the span. Only plain functions and methods are
        wrapped (no classmethods)."""
        if not self.enabled:
            return
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
                if record is not None and on_result is not None:
                    on_result(record, args, result)
                return result

        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, spanned)

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def add_program_trace(self, trace: dict[str, Any], tid: int) -> None:
        """Queue a program ``QueryTrace.as_dict()`` for the Chrome export,
        placed on this tracer's timeline by its wall-clock origin."""
        if not self.enabled:
            return
        origin_s = trace["started_unix"] - self._anchor_unix
        for stage in trace.get("spans", []):
            self.external.append(
                {
                    "name": f"program.{stage['name']}",
                    "ph": "X",
                    "ts": (origin_s + stage["started_s"]) * 1e6,
                    "dur": stage["duration_s"] * 1e6,
                    "pid": os.getpid(),
                    "tid": tid,
                    "args": {"trace_id": trace.get("trace_id")},
                }
            )

    # -- summaries -----------------------------------------------------------

    def named(self, name: str) -> list[dict[str, Any]]:
        return [span for span in self.spans if span["name"] == name]

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per layer (name prefix before the first dot): span count, wall,
        self and CPU seconds."""
        table: dict[str, dict[str, float]] = {}
        for span in self.spans:
            layer = span["name"].split(".", 1)[0]
            row = table.setdefault(
                layer, {"count": 0, "wall_s": 0.0, "self_s": 0.0, "cpu_s": 0.0}
            )
            row["count"] += 1
            row["wall_s"] += span["dur_s"]
            row["self_s"] += span["dur_s"] - span["children_s"]
            row["cpu_s"] += span["cpu_s"]
        return table

    def write_chrome(
        self, path: Path, extra_events: list[dict[str, Any]] | None = None
    ) -> None:
        """One Chrome trace-event JSON (chrome://tracing, Perfetto)."""
        pid = os.getpid()
        events = [
            {
                "name": span["name"],
                "cat": span["name"].split(".", 1)[0],
                "ph": "X",
                "ts": span["start_s"] * 1e6,
                "dur": span["dur_s"] * 1e6,
                "pid": pid,
                "tid": span["tid"],
                "args": {
                    key: value
                    for key, value in span["args"].items()
                    if isinstance(value, (int, float, str, bool))
                },
            }
            for span in self.spans
        ]
        events.extend(self.external)
        events.extend(extra_events or [])
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def print_layer_table(
    table: dict[str, dict[str, float]], total_s: float, title: str
) -> None:
    """Self time per layer and the residual no layer span covers."""
    print(f"per-layer self time ({title}, wall {total_s * 1e3:.1f} ms):")
    print(f"  {'layer':<12} {'spans':>7} {'self ms':>11} {'cpu ms':>11} {'share':>7}")
    covered = 0.0
    for layer, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        if layer == "op":
            continue
        covered += row["self_s"]
        share = row["self_s"] / total_s if total_s > 0 else 0.0
        print(
            f"  {layer:<12} {int(row['count']):>7} "
            f"{row['self_s'] * 1e3:>11.1f} {row['cpu_s'] * 1e3:>11.1f} "
            f"{share:>7.1%}"
        )
    residual = table.get("op", {}).get("self_s", max(0.0, total_s - covered))
    share = residual / total_s if total_s > 0 else 0.0
    print(f"  {'unattributed':<12} {'':>7} {residual * 1e3:>11.1f} {'':>11} {share:>7.1%}")
