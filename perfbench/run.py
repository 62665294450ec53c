"""Outside-in benchmark for ``repro``: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload fanin-sweep --seed 1 --seconds 20 --trace 0

Every pass runs in a fresh interpreter (``child.py``), so set-up time and
peak memory are a user's, not a warm process's.  Before any timed pass a
warm-up interpreter loads the native event core, compiling it on first
use, as a user pays once per source edit.

``--trace 0`` repeats passes until ``--seconds`` of timed work is done
(at least two) and prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, one pass with spans, and one profiled pass, and prints the
per-layer metrics with the spans' overhead against the untraced pass.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
give the environment fingerprint, every pass, the per-workload figures
that are not in the JSON (events/s, step latency, fail ratio) and the
``sim_digest`` all passes must share.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"

WORKLOADS = ("fanin-sweep", "ci512-parallel", "control-episode", "sweep-plan")
DEFAULT_SEED = 1

#: What one operation is, per workload (``ops_per_s`` counts these).
OP_NAMES = {
    "fanin-sweep": "sweep point",
    "ci512-parallel": "sweep point",
    "control-episode": "ControlEnv.step",
    "sweep-plan": "planned point",
}
#: Pass shapes of a traced run (see ``workloads.py``): spans, and profile.
SPAN_VARIANT = {"ci512-parallel": "serial"}
PROFILE_VARIANT = {
    "fanin-sweep": "profile",
    "ci512-parallel": "profile",
    "control-episode": "full",
    "sweep-plan": None,  # the engine does no work: nothing per event to fold
}

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.calls_per_event": "calls/event",
    "sim.self_s": "s",
    "net.calls_per_event": "calls/event",
    "net.self_s": "s",
    "net.drops": "count",
    "net.ecn_marks": "count",
    "net.build_ms": "ms",
    "tcp.calls_per_event": "calls/event",
    "tcp.self_s": "s",
    "tcp.timeouts": "count",
    "tcp.retransmit_ratio": "ratio",
    "core.calls_per_event": "calls/event",
    "core.self_s": "s",
    "workloads.calls_per_event": "calls/event",
    "workloads.self_s": "s",
    "workloads.build_ms": "ms",
    "telemetry.self_s": "s",
    "metrics.self_s": "s",
    "control.self_s": "s",
    "control.steps": "count",
    "control.step_us_p50": "us",
    "control.step_us_p99": "us",
    "exec.run_scenario_ms": "ms",
    "exec.overhead_ms": "ms",
    "exec.spawn_s": "s",
    "exec.cache_key_calls_per_point": "calls/point",
    "sweep.store_put_ms": "ms",
    "sweep.expand_s": "s",
    "sweep.has_key_calls": "count",
    "import_s": "s",
    "native.load_s": "s",
    "trace.overhead_ratio": "ratio",
}

MIN_PASSES = 2
SETUP_SAMPLES = 9
#: Whole-run budget after the warm-up; a pass never starts past it.
RUN_BUDGET_S = 170.0
#: The first warm-up in a fresh checkout compiles the native core.
WARMUP_TIMEOUT_S = 600.0


class Runner:
    """Starts ``child.py`` passes for one workload and seed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        tmp = WORK_DIR / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=src + (os.pathsep + path if path else ""),
            TMPDIR=str(tmp),
        )
        self.deadline = time.perf_counter() + RUN_BUDGET_S

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def child(
        self, mode: str, variant: str = "full", timeout: Optional[float] = None
    ) -> Optional[Dict]:
        """Run one fresh interpreter; its JSON record, or None if it failed."""
        cmd = [
            sys.executable,
            str(BENCH_DIR / "child.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--mode", mode,
            "--variant", variant,
            "--work-dir", str(WORK_DIR),
            "--spawned-at", repr(time.perf_counter()),
        ]
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.PIPE,
                text=True,
                timeout=max(1.0, self.remaining()) if timeout is None else timeout,
            )
        except subprocess.TimeoutExpired:
            print(f"perfbench: {mode} pass timed out", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {mode} pass exited with {proc.returncode}", file=sys.stderr)
            return None
        return json.loads(lines[-1])


class Tally:
    """Attempted and failed operations, and the digest every pass must share."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: List[str] = []

    def add(self, record: Optional[Dict], compare_digest: bool = True) -> None:
        """Count a pass; a pass that crashed counts as one failed operation."""
        if record is None:
            self.attempted += 1
            self.failed += 1
            return
        result = record["pass"]
        self.attempted += result["ops"]
        self.failed += result["failed"]
        for note in result["notes"]:
            print(f"  check failed: {note}")
        if not compare_digest:
            return
        if self.digests and result["digest"] != self.digests[0]:
            print(f"  check failed: sim_digest {result['digest']} != {self.digests[0]}")
            self.failed += result["ops"]
        self.digests.append(result["digest"])

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def describe_pass(label: str, record: Dict) -> None:
    result = record["pass"]
    rate = result["ops"] / result["elapsed_s"]
    events = result["events"]
    line = (
        f"  {label}: {result['ops']} ops in {result['elapsed_s']:.3f} s ({rate:.1f}/s)"
        f", setup {record['setup_s']:.3f} s, peak {record['peak_rss_mb']:.1f} MB"
    )
    if events:
        line += f", {events} events ({events / result['elapsed_s']:.0f}/s)"
    print(line + f", digest {result['digest']}, failed {result['failed']}")


def fingerprint_line(record: Optional[Dict]) -> str:
    if record is None:
        return "fingerprint: unavailable"
    return "fingerprint: " + " ".join(f"{k}={v}" for k, v in record["fingerprint"].items())


def setup_samples(runner: Runner, count: int) -> List[Dict]:
    """Records of up to ``count`` set-up-only interpreters."""
    samples: List[Dict] = []
    while len(samples) < count and runner.remaining() > 10.0:
        record = runner.child("setup")
        if record is None:
            break
        samples.append(record)
    return samples


def timed_run(runner: Runner, seconds: float, tally: Tally) -> Dict[str, float]:
    """Passes until ``seconds`` of timed work; a set-up-only interpreter
    after each spreads the set-up samples over the run."""
    passes: List[Dict] = []
    setups: List[Dict] = []
    measured = longest = 0.0
    while len(passes) < MIN_PASSES or measured < seconds:
        if passes and runner.remaining() < 2 * longest:
            break
        started = time.perf_counter()
        record = runner.child("plain")
        longest = max(longest, time.perf_counter() - started)
        tally.add(record)
        if record is None:
            break
        passes.append(record)
        measured += record["pass"]["elapsed_s"]
        describe_pass(f"pass {len(passes)}", record)
        setups += [record] + setup_samples(runner, 1)
    if not passes:
        return {}
    setups += setup_samples(runner, SETUP_SAMPLES - len(setups))
    rates = [p["pass"]["ops"] / p["pass"]["elapsed_s"] for p in passes]
    metrics = {
        "setup_s": median([s["setup_s"] for s in setups]),
        "ops_per_s": median(rates),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
    }
    events = [p["pass"]["events"] / p["pass"]["elapsed_s"] for p in passes]
    steps = [lat for p in passes for lat in p["pass"]["latencies_s"]]
    print(f"  {OP_NAMES[runner.workload]}s per second over {len(passes)} passes: "
          f"median {metrics['ops_per_s']:.2f}, min {min(rates):.2f}, max {max(rates):.2f}")
    print(f"  setup_s over {len(setups)} interpreters: median {metrics['setup_s']:.4f}, "
          f"max {max(s['setup_s'] for s in setups):.4f}")
    if any(events):
        print(f"  events_per_s: median {median(events):.0f}")
    if steps:
        print(f"  step_us over {len(steps)} steps: p50 {1e6 * percentile(steps, 50):.1f}, "
              f"p99 {1e6 * percentile(steps, 99):.1f}")
    spawn = [p["pass"]["spawn_s"] for p in passes]
    if any(spawn):
        print(f"  spawn_s: median {median(spawn):.4f}")
    return metrics


def traced_run(runner: Runner, tally: Tally) -> Dict[str, float]:
    workload = runner.workload
    span_variant = SPAN_VARIANT.get(workload, "full")
    plain = runner.child("plain")
    tally.add(plain)
    reference = plain
    if span_variant != "full":
        print(f"  traced passes run {workload} serially: spans and profile hooks "
              "do not follow into worker processes")
        reference = runner.child("plain", span_variant)
        tally.add(reference)
    spans = runner.child("spans", span_variant)
    tally.add(spans)
    profile = None
    if PROFILE_VARIANT[workload] is not None:
        profile = runner.child("profile", PROFILE_VARIANT[workload])
        tally.add(profile, compare_digest=PROFILE_VARIANT[workload] == "full")
    labelled = [("untraced", plain), ("spans", spans), ("profile", profile)]
    if reference is not plain:
        labelled.insert(1, ("reference", reference))
    for label, record in labelled:
        if record is not None:
            describe_pass(label, record)
    if plain is None or reference is None or spans is None:
        return {}
    if PROFILE_VARIANT[workload] is not None and profile is None:
        return {}

    setups = [plain, spans] + setup_samples(runner, 3)
    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}
    if profile is not None:
        metrics.update(profile["layers"])
    metrics.update(spans["layers"])
    span_pass, plain_pass = spans["pass"], plain["pass"]
    metrics["tcp.timeouts"] = span_pass["timeouts"]
    if span_pass["data_packets"]:
        metrics["tcp.retransmit_ratio"] = span_pass["retransmits"] / span_pass["data_packets"]
    metrics["exec.spawn_s"] = plain_pass["spawn_s"]
    metrics["sim.events_per_s"] = plain_pass["events"] / plain_pass["elapsed_s"]
    steps = plain_pass["latencies_s"]
    if steps:
        metrics["control.step_us_p50"] = 1e6 * percentile(steps, 50)
        metrics["control.step_us_p99"] = 1e6 * percentile(steps, 99)
    metrics["import_s"] = median([s["import_s"] for s in setups])
    metrics["native.load_s"] = median([s["native_load_s"] for s in setups])
    metrics["trace.overhead_ratio"] = (
        span_pass["elapsed_s"] / reference["pass"]["elapsed_s"] - 1.0
    )
    print(f"  span tracing overhead: {100 * metrics['trace.overhead_ratio']:+.1f}% "
          f"({span_pass['elapsed_s']:.3f} s vs {reference['pass']['elapsed_s']:.3f} s untraced)")
    if profile is not None:
        print(f"  profiled pass: {profile['pass']['ops']} ops, {profile['pass']['events']} events")
        for layer, figures in profile["profile"].items():
            if figures["calls"]:
                print(f"    {layer:10s} {figures['calls']:>10d} calls"
                      f"  {figures['self_s']:8.3f} s self")
    return metrics


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Outside-in benchmark for repro.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree at {ROOT / 'src'}; "
              "run from a repository checkout", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    warm = runner.child("warmup", timeout=WARMUP_TIMEOUT_S)
    runner.deadline = time.perf_counter() + RUN_BUDGET_S
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"(op = {OP_NAMES[args.workload]})")
    print(fingerprint_line(warm))
    if warm is None:
        return 1
    tally = Tally()
    if args.trace:
        metrics = traced_run(runner, tally)
        units = PER_LAYER_UNITS
    else:
        metrics = timed_run(runner, args.seconds, tally)
        units = END_TO_END_UNITS
    if not metrics:
        print("perfbench: no pass completed", file=sys.stderr)
        return 1
    print(f"  fail_ratio: {tally.failed}/{tally.attempted}")
    print(f"  sim_digest: {tally.digests[0] if tally.digests else '-'} "
          f"({'identical' if len(set(tally.digests)) == 1 else 'DIFFERS'} "
          f"across {len(tally.digests)} passes)")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
