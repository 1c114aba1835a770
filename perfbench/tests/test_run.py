"""End-to-end checks of the benchmark command itself.

These start real runs (seconds each): process hygiene after a normal
and an interrupted ``fleet_http`` run, a corrupted answer failing a
run, and the refusal to run without the program.
"""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import fleet_http, hygiene, ingest_reindex
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, "perfbench/run.py"]


def _pids(stdout: str) -> list[int]:
    pids = []
    for match in re.finditer(r"fleet workers: pids \[([0-9, ]+)\]", stdout):
        pids.extend(int(pid) for pid in match.group(1).split(","))
    return pids


def _scratch_left() -> list[Path]:
    scratch = ROOT / ".perfbench" / "tmp"
    return list(scratch.iterdir()) if scratch.exists() else []


def test_short_fleet_run_leaves_no_process():
    done = subprocess.run(
        [*RUN, "--workload", "fleet_http", "--seed", "3", "--seconds", "2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    pids = _pids(done.stdout)
    assert len(pids) == 2 * fleet_http.SETUP_REPEATS  # two workers per set-up
    assert not [pid for pid in pids if hygiene.pid_alive(pid)]
    assert not _scratch_left()


def test_interrupted_fleet_run_stops_its_workers():
    process = subprocess.Popen(
        [*RUN, "--workload", "fleet_http", "--seed", "4", "--seconds", "60", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        seen = ""
        deadline = time.monotonic() + 120
        while len(_pids(seen)) < 2 and time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                break
            seen += line
        pids = _pids(seen)
        assert pids, seen
        process.send_signal(signal.SIGTERM)
        stdout, _stderr = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode != 0
    assert '"correct"' not in stdout
    assert not [pid for pid in pids if hygiene.pid_alive(pid)]
    assert not _scratch_left()


def test_corrupted_answer_fails_the_run(monkeypatch):
    from repro.service.retrieval import RetrievalService

    original = RetrievalService.top_k

    def corrupted(self, query, *args, **kwargs):
        result = original(self, query, *args, **kwargs)
        if result.answers:
            first = result.answers[0]
            result.answers[0] = type(first)(row=first.row, col=first.col, score=first.score + 1.0)
        return result

    monkeypatch.setattr(RetrievalService, "top_k", corrupted)
    cleanup = hygiene.Cleanup(ROOT / ".perfbench" / "tmp")
    try:
        outcome = ingest_reindex.run(seed=1, seconds=1, tracer=Tracer(False), cleanup=cleanup)
    finally:
        cleanup.close()
    assert outcome.ops.total_failed == 0
    assert any("dense score" in problem for problem in outcome.problems)
    assert cleanup.leftovers() == []


@pytest.mark.parametrize("workload", ["archive_query", "ingest_reindex"])
def test_traced_run_prints_every_layer_metric(workload):
    done = subprocess.run(
        [*RUN, "--workload", workload, "--seed", "5", "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(m["name"] for m in bench["per_layer"])
    assert (ROOT / ".perfbench" / "traces" / f"{workload}.json").exists()


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*RUN, "--workload", "archive_query", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={**os.environ, "PYTHONPATH": ""},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
