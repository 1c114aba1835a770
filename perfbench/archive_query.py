"""Workload ``archive_query``: one in-process caller, a fixed query mix.

A closed loop (one caller; the next query starts when the last one
returned) against a 512x512 synthetic Landsat TM + DEM stack served
by a default :class:`~repro.service.retrieval.RetrievalService`, with
the result cache bypassed (``use_cache=False``). One round is:

* four HPS-variant linear queries: top-10 and top-100, over the whole
  grid and over a random 128x128 window;
* one fused query-by-example (``similar_to`` a random cell, alpha 0.5);
* one ``top_k_batch`` call of 8 HPS-variant top-10 queries;
* two Figure-3-style fuzzy knowledge queries (sigmoid and gaussian
  memberships on bands 4, 5 and elevation), top-10,
  ``use_model_levels=False``.

``core``, ``models``, ``embed`` and ``service`` do almost all the work;
``serving`` and ``data.store`` do none. The knowledge queries are the
hot spot: ``KnowledgeModel.evaluate_batch`` scores each cell in a
Python loop.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

from perfbench import checks, inputs
from perfbench.harness import (
    CoreTally,
    Ops,
    Outcome,
    end_to_end_metrics,
    own_peak_rss_mb,
    p50,
)
from perfbench.tracing import Tracer
from repro.core.query import TopKQuery
from repro.models.knowledge import KnowledgeModel
from repro.service.retrieval import RetrievalService

# 512x512 rather than 1024x1024: on a shared 2-CPU VM the larger stack
# (32 MB of bands plus the checkers' dense grids) competed with other
# tenants for cache and its timings drifted by over 25% between runs.
SIZE = 512
ARCHIVE_SEED = 11
WINDOW = 128
BATCH = 8


def _answers(result) -> list[checks.Answer]:
    return [(a.row, a.col, a.score) for a in result.answers]


def run(seed: int, seconds: float, tracer: Tracer, cleanup) -> Outcome:
    stack = inputs.landsat_stack(SIZE, ARCHIVE_SEED)
    bands = inputs.bands_of(stack)
    quantiles = inputs.Quantiles(bands)
    shape = (SIZE, SIZE)
    rng = np.random.default_rng(seed)
    traced = tracer.enabled
    if traced:
        tracer.wrap(
            KnowledgeModel, "evaluate_batch", "models.evaluate_batch",
            on_result=lambda record, _args, result: record["args"].update(cells=int(result.size)),
        )
        tracer.wrap(KnowledgeModel, "evaluate_interval_batch", "models.interval_batch")
    cleanup.on_close("tracer wraps", tracer.unwrap_all)

    # Set-up is timed in process CPU time, like the operations below;
    # spans cover the measured loop only. A set-up takes ~20 ms and the
    # host's speed changes in spells of about a second, so besides the
    # service the loop uses, one throwaway set-up is timed per round:
    # the median then covers the whole run, not one spell.
    tracer.enabled = False
    setup_seconds, screen_s, embed_s = [], [], []

    def set_up() -> RetrievalService:
        start = time.process_time()
        built_service = RetrievalService(stack)
        built = time.process_time()
        built_service.embeddings()
        end = time.process_time()
        setup_seconds.append(end - start)
        screen_s.append(built - start)
        embed_s.append(end - built)
        return built_service

    service = set_up()
    embeddings = service.embeddings()
    vectors = embeddings.vectors
    row_starts, col_starts = embeddings.tile_row_starts, embeddings.tile_col_starts

    ops = Ops(cpu=True)
    problems: list[str] = []
    core = CoreTally()
    search_self_s: list[float] = []
    top_k_self_s: list[float] = []
    traced_busy = [0.0, 0]
    untraced_busy = [0.0, 0]
    batches = [0, 0]  # batch calls, members that shared a scan
    tid = threading.get_ident()

    def timed(kind: str, fn, *args, **kwargs):
        spans_before = len(tracer.spans)
        with tracer.span(f"op.{kind}"):
            with tracer.span("service.top_k" if kind != "batch" else "service.top_k_batch"):
                result = ops.call(kind, fn, *args, **kwargs)
        if result is not None:
            seconds_taken = ops.latency[kind][-1]
            bucket = traced_busy if tracer.enabled else untraced_busy
            bucket[0] += seconds_taken
            bucket[1] += 1
        return result, spans_before

    def absorb(result, query, spans_before: int, seconds_taken: float) -> None:
        if not tracer.enabled:
            return
        core.absorb(result, query, shape)
        stages = result.trace.stage_seconds() if result.trace is not None else {}
        search = stages.get("search", 0.0)
        model_cpu = sum(
            span["cpu_s"] for span in tracer.spans[spans_before:]
            if span["name"].startswith("models.")
        )
        search_self_s.append(max(0.0, search - model_cpu))
        top_k_self_s.append(seconds_taken - search - stages.get("index", 0.0))
        if result.trace is not None:
            tracer.add_program_trace(result.trace.as_dict(), tid)

    def solo(kind: str, query: TopKQuery, dense: np.ndarray, **knobs) -> None:
        result, before = timed(kind, service.top_k, query, use_cache=False, **knobs)
        if result is None:
            return
        absorb(result, query, before, ops.wall[kind][-1])
        region = query.clip_region(shape)
        problems.extend(
            f"{kind}: {p}" for p in checks.check_answers(_answers(result), dense, region, query.k)
        )

    deadline = time.perf_counter() + seconds
    round_index = 0
    while time.perf_counter() < deadline:
        # Traced runs alternate untraced and traced rounds, so the
        # tracing overhead is measured on interleaved, like-for-like work.
        tracer.enabled = False
        set_up()
        tracer.enabled = traced and round_index % 2 == 1
        round_index += 1
        busy_before = ops.busy_seconds()

        for k in (10, 100):
            for region in (None, inputs.window(rng, SIZE, WINDOW)):
                coefficients = inputs.hps_variant(rng)
                dense = checks.linear_scores(bands, coefficients)
                query = TopKQuery(inputs.linear_model(coefficients), k=k, region=region)
                solo("linear" if region is None else "linear_window", query, dense)

        coefficients = inputs.hps_variant(rng)
        example = (int(rng.integers(0, SIZE)), int(rng.integers(0, SIZE)))
        dense = checks.fused_scores(
            checks.linear_scores(bands, coefficients),
            checks.tile_cosines(vectors, row_starts, col_starts, example, shape),
            0.5,
        )
        query = TopKQuery(
            inputs.linear_model(coefficients), k=10, similar_to=example, alpha=0.5
        )
        solo("fused", query, dense)

        members = [inputs.hps_variant(rng) for _ in range(BATCH)]
        queries = [TopKQuery(inputs.linear_model(c), k=10) for c in members]
        shared_before = service.stats.batched_queries
        results, before = timed("batch", service.top_k_batch, queries, use_cache=False)
        if results is not None:
            if tracer.enabled:
                batches[0] += 1
                batches[1] += service.stats.batched_queries - shared_before
                for result, query in zip(results, queries):
                    core.absorb(result, query, shape)
            for index, (result, query, c) in enumerate(zip(results, queries, members)):
                dense = checks.linear_scores(bands, c)
                problems.extend(
                    f"batch[{index}]: {p}"
                    for p in checks.check_answers(_answers(result), dense, (0, 0, SIZE, SIZE), 10)
                )
                reference = service.top_k(query, use_cache=False)
                problems.extend(
                    checks.check_identical(
                        _answers(result), _answers(reference), f"batch[{index}] vs solo top_k"
                    )
                )

        for _ in range(2):
            spec = inputs.knowledge_spec(rng, quantiles)
            dense = checks.knowledge_scores(bands, spec)
            query = TopKQuery(inputs.knowledge_model(spec), k=10)
            solo("knowledge", query, dense, use_model_levels=False)
        ops.rounds.append(ops.busy_seconds() - busy_before)

    tracer.enabled = traced
    metrics = end_to_end_metrics(
        setup_seconds, ops, ops.busy_seconds(), own_peak_rss_mb(),
        hot_s=p50(ops.latency.get("knowledge", [])),
        query_s=p50(ops.latency.get("linear", [])),
    )
    details = {
        f"{kind}_p50_ms": (p50(ops.latency.get(kind, [])) * 1e3, "ms")
        for kind in ("knowledge", "fused", "batch")
    }
    linear = ops.latency.get("linear", []) + ops.latency.get("linear_window", [])
    details["linear_p50_ms"] = (p50(linear) * 1e3, "ms")
    outcome = Outcome(ops=ops, problems=problems, metrics=metrics, details=details)
    if traced:
        outcome.layer = _layer_metrics(
            tracer, core, search_self_s, top_k_self_s, batches,
            traced_busy, untraced_busy, screen_s, embed_s,
        )
    return outcome


def _layer_metrics(
    tracer, core, search_self_s, top_k_self_s, batches,
    traced_busy, untraced_busy, screen_s, embed_s,
):
    model_spans = tracer.named("models.evaluate_batch")
    cells = sum(span["args"].get("cells", 0) for span in model_spans)
    knowledge_queries = len(tracer.named("op.knowledge"))
    interval_cpu = sum(span["cpu_s"] for span in tracer.named("models.interval_batch"))
    traced_rate = traced_busy[1] / traced_busy[0] if traced_busy[0] else 0.0
    untraced_rate = untraced_busy[1] / untraced_busy[0] if untraced_busy[0] else 0.0
    return {
        **core.metrics(),
        "core.search_self_ms": statistics.mean(search_self_s) * 1e3 if search_self_s else 0.0,
        "models.evaluate_batch_us_per_cell": (
            sum(span["cpu_s"] for span in model_spans) / cells * 1e6 if cells else 0.0
        ),
        "models.interval_batch_ms": interval_cpu / knowledge_queries * 1e3 if knowledge_queries else 0.0,
        "embed.build_ms": statistics.median(embed_s) * 1e3,
        "service.top_k_self_ms": statistics.mean(top_k_self_s) * 1e3 if top_k_self_s else 0.0,
        "service.batch_shared_members": batches[1] / batches[0] if batches[0] else 0.0,
        "pyramid.screen_build_s": statistics.median(screen_s),
        "telemetry.trace_overhead": untraced_rate / traced_rate - 1.0 if traced_rate else 0.0,
    }
