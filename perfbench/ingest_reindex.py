"""Workload ``ingest_reindex``: writes beside reads on an on-disk store.

A 512x512 Landsat TM + DEM archive is written with
``ArchiveWriter.create`` into a scratch directory of the checkout,
opened with ``open_archive`` and served by
``RetrievalService.from_archive`` with its default cache; the service
also keeps its tile embeddings, as one serving fused queries would, so
ingest refreshes them too. The service keeps the Onion index of a fixed
128x128 window warm. Each cycle, in one closed loop:

1. ``append_region`` writes a fresh synthetic 64x64 block into every
   band; even cycles write inside the window, odd cycles outside it.
2. The routed read: ``warm_index`` for the window (a rebuild when the
   append dirtied it, a lookup otherwise), then a ``strategy="auto"``
   HPS top-1 query on it. On even cycles this is ``fresh_query``: how
   long a user waits for an answer after an ingest.
3. Two regional quadtree top-10 queries: the published HPS model on a
   fixed corner window the append did not touch (served from the cache
   unless an earlier append dirtied it), and an HPS variant on the
   128x128 window holding the new block.

This is the only workload that exercises ``data.store`` writes,
region-scoped cache, index and embedding invalidation, the router and
``index.hull``/``index.onion``.
"""

from __future__ import annotations

import statistics
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
from repro.data.archive import Archive
from repro.data.store import ArchiveWriter, open_archive
from repro.embed.tiles import TileEmbeddings
from repro.index import onion
from repro.models.linear import hps_risk_model
from repro.service.retrieval import RetrievalService
from repro.synth.landsat import generate_scene
from repro.synth.terrain import generate_dem

SIZE = 512
ARCHIVE_SEED = 13
BLOCK = 64
WINDOW = (192, 192, 320, 320)
CORNERS = ((0, 0, 128, 128), (0, 384, 128, 512), (384, 0, 512, 128), (384, 384, 512, 512))
SETUP_REPEATS = 5


def _wchar() -> int | None:
    """Bytes this process passed to write() so far (/proc/self/io)."""
    try:
        with open("/proc/self/io", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _intersects(a, b) -> bool:
    return a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]


def _block_region(rng: np.random.Generator, inside: bool) -> tuple[int, int, int, int]:
    if inside:
        row = WINDOW[0] + BLOCK * int(rng.integers(0, 2))
        col = WINDOW[1] + BLOCK * int(rng.integers(0, 2))
        return (row, col, row + BLOCK, col + BLOCK)
    while True:
        row = BLOCK * int(rng.integers(0, SIZE // BLOCK))
        col = BLOCK * int(rng.integers(0, SIZE // BLOCK))
        region = (row, col, row + BLOCK, col + BLOCK)
        if not _intersects(region, WINDOW):
            return region


def _block_values(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """A fresh synthetic acquisition for one block (TM bands + DEM)."""
    seed = int(rng.integers(0, 2**31 - 1))
    dem = generate_dem((BLOCK, BLOCK), seed=seed)
    scene = generate_scene((BLOCK, BLOCK), seed=seed + 1, terrain=dem)
    scene.add(dem)
    return {name: np.asarray(scene[name].values) for name in inputs.BANDS}


def _answers(result) -> list[checks.Answer]:
    return [(a.row, a.col, a.score) for a in result.answers]


def run(seed: int, seconds: float, tracer: Tracer, cleanup) -> Outcome:
    stack = inputs.landsat_stack(SIZE, ARCHIVE_SEED)
    archive = Archive("ingest_reindex")
    for name in inputs.BANDS:
        archive.add(stack[name])
    shadow = checks.Shadow(inputs.bands_of(stack))
    scratch = cleanup.temp_dir("ingest-")
    rng = np.random.default_rng(seed)
    routed_query = TopKQuery(hps_risk_model(), k=1, region=WINDOW)
    traced = tracer.enabled
    if traced:
        tracer.wrap(onion, "hull_layers", "index.hull_layers")
        tracer.wrap(
            TileEmbeddings, "refresh_region", "embed.refresh_region",
            on_result=lambda record, _args, result: record["args"].update(tiles=int(result)),
        )
    cleanup.on_close("tracer wraps", tracer.unwrap_all)

    # Set-up is timed in process CPU time, like the operations below;
    # spans cover the measured loop only.
    tracer.enabled = False
    setup_seconds, open_s, screen_s, embed_s = [], [], [], []
    for repeat in range(SETUP_REPEATS):
        store = scratch / f"store-{repeat}"
        start = time.process_time()
        ArchiveWriter.create(store, archive)
        opened = time.process_time()
        disk = open_archive(store)
        served = time.process_time()
        service = RetrievalService.from_archive(disk, list(inputs.BANDS))
        built = time.process_time()
        service.embeddings()
        embedded = time.process_time()
        service.warm_index(routed_query)
        setup_seconds.append(time.process_time() - start)
        open_s.append(served - opened)
        screen_s.append(built - served)
        embed_s.append(embedded - built)

    ops = Ops(cpu=True)
    problems: list[str] = []
    busy = {True: [0.0, 0], False: [0.0, 0]}
    core = CoreTally()
    layer = {"routed": 0, "onion": 0, "builds": [], "layers": [], "written": 0, "user": 0}
    hits_before = service.stats.cache_hits
    misses_before = service.stats.cache_misses

    def timed(kind, fn, *args, **kwargs):
        with tracer.span(f"op.{kind}"):
            result = ops.call(kind, fn, *args, **kwargs)
        if result is not None:
            busy[tracer.enabled][0] += ops.latency[kind][-1]
            busy[tracer.enabled][1] += 1
        return result

    def absorb(result, query) -> None:
        if tracer.enabled:
            core.absorb(result, query, (SIZE, SIZE))

    def check(kind, result, query) -> None:
        dense = checks.linear_scores(shadow.bands, query.model.coefficients)
        problems.extend(
            f"{kind}: {p}"
            for p in checks.check_answers(
                _answers(result), dense, query.clip_region((SIZE, SIZE)), query.k
            )
        )

    def append(updates, region):
        with tracer.span("store.append_region"):
            disk.append_region(updates, region)

    def routed():
        with tracer.span("service.warm_index"):
            built = service.warm_index(routed_query)
        with tracer.span("service.top_k"):
            result = service.top_k(routed_query, strategy="auto")
        return built, result

    deadline = time.perf_counter() + seconds
    cycle = 0
    # Whole rounds: a round is one inside cycle plus one outside cycle.
    while cycle % 2 == 1 or time.perf_counter() < deadline:
        # Traced runs alternate untraced and traced pairs of cycles, so
        # the tracing overhead is measured on like-for-like work.
        tracer.enabled = traced and (cycle // 2) % 2 == 1
        inside = cycle % 2 == 0
        cycle += 1
        if inside:
            busy_before = ops.busy_seconds()
        region = _block_region(rng, inside)
        updates = _block_values(rng)

        written_before = _wchar()
        timed("append", append, updates, region)
        written_after = _wchar()
        shadow.apply(updates, region)
        if tracer.enabled and written_before is not None and written_after is not None:
            user_bytes = sum(block.nbytes for block in updates.values())
            layer["written"] += written_after - written_before + user_bytes
            layer["user"] += user_bytes

        kind = "fresh_query" if inside else "routed_query"
        outcome = timed(kind, routed)
        if outcome is not None:
            built, result = outcome
            check(kind, result, routed_query)
            absorb(result, routed_query)
            if tracer.enabled:
                layer["routed"] += 1
                routing = result.trace.metadata.get("routing", {}) if result.trace else {}
                layer["onion"] += routing.get("chosen") == "onion"
                if inside:
                    layer["builds"].append(built.build_seconds)
                    layer["layers"].append(built.index.n_layers)

        corner = [c for c in CORNERS if not _intersects(c, region)][int(rng.integers(0, 3))]
        query = TopKQuery(hps_risk_model(), k=10, region=corner)
        result = timed("region_untouched", service.top_k, query)
        if result is not None:
            check("region_untouched", result, query)
            absorb(result, query)

        row0 = min(max(0, region[0] - BLOCK // 2), SIZE - 2 * BLOCK)
        col0 = min(max(0, region[1] - BLOCK // 2), SIZE - 2 * BLOCK)
        query = TopKQuery(
            inputs.linear_model(inputs.hps_variant(rng)), k=10,
            region=(row0, col0, row0 + 2 * BLOCK, col0 + 2 * BLOCK),
        )
        result = timed("region_touched", service.top_k, query)
        if result is not None:
            check("region_touched", result, query)
            absorb(result, query)
        if not inside:
            ops.rounds.append(ops.busy_seconds() - busy_before)
    
    tracer.enabled = traced
    hits = service.stats.cache_hits - hits_before
    lookups = hits + service.stats.cache_misses - misses_before
    reopened = open_archive(scratch / f"store-{SETUP_REPEATS - 1}")
    problems.extend(
        f"reopened store: {p}"
        for p in shadow.mismatches(
            {name: reopened.raster(name).values for name in inputs.BANDS}
        )
    )
    del reopened, disk, service

    metrics = end_to_end_metrics(
        setup_seconds, ops, ops.busy_seconds(), own_peak_rss_mb(),
        hot_s=p50(ops.latency.get("fresh_query", [])),
        query_s=p50(ops.latency.get("routed_query", [])),
    )
    details = {
        f"{kind}_p50_ms": (p50(ops.latency.get(kind, [])) * 1e3, "ms")
        for kind in ("append", "fresh_query", "routed_query", "region_untouched", "region_touched")
    }
    outcome = Outcome(ops=ops, problems=problems, metrics=metrics, details=details)
    if traced:
        appends = tracer.named("store.append_region")
        refreshes = tracer.named("embed.refresh_region")
        hulls = tracer.named("index.hull_layers")
        traced_rate = busy[True][1] / busy[True][0] if busy[True][0] else 0.0
        plain_rate = busy[False][1] / busy[False][0] if busy[False][0] else 0.0
        outcome.layer = {
            **core.metrics(),
            "embed.build_ms": statistics.median(embed_s) * 1e3,
            "embed.refreshed_tiles": (
                sum(span["args"].get("tiles", 0) for span in refreshes) / len(appends)
                if appends else 0.0
            ),
            "service.cache_hit_rate": hits / lookups if lookups else 0.0,
            "service.cache_lookups": float(lookups),
            "service.onion_routed_share": layer["onion"] / layer["routed"] if layer["routed"] else 0.0,
            "index.onion_build_s": p50(layer["builds"]),
            "index.hull_layers_s": p50([span["dur_s"] for span in hulls]),
            "index.onion_layers": p50(layer["layers"]),
            "store.append_self_ms": (
                statistics.mean(span["dur_s"] - span["children_s"] for span in appends) * 1e3
                if appends else 0.0
            ),
            "store.bytes_rewritten_per_user_byte": (
                layer["written"] / layer["user"] if layer["user"] else 0.0
            ),
            "store.open_ms": statistics.median(open_s) * 1e3,
            "pyramid.screen_build_s": statistics.median(screen_s),
            "telemetry.trace_overhead": plain_rate / traced_rate - 1.0 if traced_rate else 0.0,
        }
    return outcome
