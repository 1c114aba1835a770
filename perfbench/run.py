"""Run one benchmark workload and print its result as the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload archive_query --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run: it prints the per-layer
metrics and a per-layer self-time table, and writes a Chrome trace to
``.perfbench/traces/<workload>.json``. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Exit codes: 0 when every answer checked out, 1 when a
check failed, 2 when the program cannot be imported, 3 when a child
process or scratch directory outlived the run.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Spawned fleet workers re-import this file as their main module, so
# this import-time path setup is what lets them find the program.
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

WORKLOADS = ("archive_query", "fleet_http", "ingest_reindex")
OUT_DIR = ROOT / ".perfbench"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        import repro  # the program under test
    except ImportError as error:
        print(f"cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        # Measure the checkout's program, never an installed copy.
        print(f"the program was imported from {repro.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    from perfbench import harness, hygiene
    from perfbench.tracing import Tracer, print_layer_table

    print(harness.fingerprint(args.workload, args.seed, args.seconds, args.trace), flush=True)
    hygiene.install_signal_handlers()
    cleanup = hygiene.Cleanup(OUT_DIR / "tmp")
    tracer = Tracer(enabled=bool(args.trace))
    workload = importlib.import_module(f"perfbench.{args.workload}")
    try:
        outcome = workload.run(args.seed, args.seconds, tracer, cleanup)
    finally:
        cleanup.close()
    leftovers = cleanup.leftovers()
    if leftovers:
        for problem in leftovers:
            print(f"leftover: {problem}", file=sys.stderr)
        return 3

    harness.print_ops_table(outcome.ops)
    for name, (value, unit) in outcome.details.items():
        print(f"  {name} = {value:.4f} {unit}")
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}")
    correct = not outcome.problems
    print(f"answers checked: {'all correct' if correct else f'{len(outcome.problems)} problems'}")
    if args.trace:
        trace_path = OUT_DIR / "traces" / f"{args.workload}.json"
        tracer.write_chrome(trace_path, outcome.chrome_events)
        if outcome.breakdown:
            print("mean request split (ms):")
            for label, value in outcome.breakdown:
                print(f"  {label:<34} {value:>9.3f}")
        else:
            traced_s = sum(span["dur_s"] for span in tracer.spans if span["name"].startswith("op."))
            print_layer_table(tracer.layer_table(), traced_s, args.workload)
        print(f"chrome trace: {trace_path}")
        metrics = {name: outcome.layer.get(name, 0.0) for name in harness.PER_LAYER}
        units = harness.PER_LAYER
    else:
        metrics = outcome.metrics
        units = harness.END_TO_END
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(harness.result_line(correct, outcome.ops, metrics, units), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
