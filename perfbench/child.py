"""One benchmark pass in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass pays the real
set-up cost and reports its own peak memory::

    PYTHONPATH=src python3 perfbench/child.py --workload fanin-sweep --seed 1 \\
        --mode plain --variant full --work-dir perfbench/.work

Modes: ``warmup`` loads (and on first use compiles) the native event core
and exits; ``setup`` stops once the inputs are ready; ``plain`` runs the
pass untraced; ``spans`` runs it with span wrappers installed; ``profile``
runs it under ``cProfile``.  The last line of standard output is one JSON
record.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import time
from pathlib import Path

MODES = ("warmup", "setup", "plain", "spans", "profile")


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--variant", choices=("full", "serial", "profile", "quick"), default="full")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument(
        "--spawned-at",
        type=float,
        default=None,
        help="the parent's time.perf_counter() just before starting this process",
    )
    args = parser.parse_args()
    spawned_at = time.perf_counter() if args.spawned_at is None else args.spawned_at

    t0 = time.perf_counter()
    import repro
    from repro.sim import _native

    t1 = time.perf_counter()
    _native.core_factory()
    t2 = time.perf_counter()
    record = {
        "import_s": t1 - t0,
        "native_load_s": t2 - t1,
        "fingerprint": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "repro": repro.__version__,
            "native": _native.status(),
        },
    }
    if args.mode == "warmup":
        print(json.dumps(record))
        return

    import workloads
    import tracing

    recorder = None
    if args.mode == "spans":
        recorder = tracing.SpanRecorder()
        tracing.install_spans(recorder)
    setup, run = workloads.WORKLOADS[args.workload]
    ctx = setup(args.seed, args.work_dir, args.variant)
    record["setup_s"] = time.perf_counter() - spawned_at
    if args.mode == "setup":
        print(json.dumps(record))
        return

    profiler = None
    if args.mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
    result = run(ctx, profiler)
    record["pass"] = dataclasses.asdict(result)
    record["peak_rss_mb"] = peak_rss_mb()
    window = (result.started_at, result.started_at + result.elapsed_s)
    if recorder is not None:
        record["layers"] = tracing.span_metrics(recorder, window, result.ops)
        recorder.write(args.work_dir / f"spans-{args.workload}-{args.variant}.jsonl")
    if profiler is not None:
        import pstats

        folded = tracing.fold_profile(pstats.Stats(profiler).stats)
        record["layers"] = tracing.profile_metrics(folded, result.events)
        record["profile"] = folded
    print(json.dumps(record))


if __name__ == "__main__":
    main()
