"""Self-tests of the benchmark: repeatable counts, metric names, failure accounting.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.sweep import SweepStore  # noqa: E402

#: The figures a traced run must reproduce exactly, run after run.
EXACT = (
    "sim.events",
    "sim.calls_per_event",
    "net.calls_per_event",
    "tcp.calls_per_event",
    "core.calls_per_event",
    "workloads.calls_per_event",
    "exec.cache_key_calls_per_point",
    "sweep.has_key_calls",
    "control.steps",
)


def child(workload: str, mode: str, work_dir: Path) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "child.py"),
            "--workload", workload, "--seed", "3", "--mode", mode,
            "--variant", "quick", "--work-dir", str(work_dir),
        ],
        cwd=ROOT,
        env={**run.Runner(workload, 3).env, "TMPDIR": str(work_dir)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class QuickRunner(run.Runner):
    """Runs every requested pass in the tiny ``quick`` shape."""

    def __init__(self, workload: str, work_dir: Path):
        super().__init__(workload, 3)
        self.work_dir = work_dir

    def child(self, mode, variant="full", timeout=None):
        return child(self.workload, mode, self.work_dir)


def benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "workload, mode",
    [
        ("fanin-sweep", "profile"),  # native event core
        ("control-episode", "profile"),  # pure-Python loop
        ("ci512-parallel", "spans"),
        ("sweep-plan", "spans"),
    ],
)
def test_traced_counts_repeat_exactly(workload, mode, tmp_path):
    first = child(workload, mode, tmp_path)["layers"]
    second = child(workload, mode, tmp_path)["layers"]
    exact = [name for name in EXACT if name in first]
    assert exact
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}
    if mode == "profile":
        assert first["sim.events"] > 0 and first["tcp.calls_per_event"] > 0


def test_declared_names_match_benchmark_json():
    declared = benchmark_json()
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_printed_metrics_match_benchmark_json(workload, tmp_path, capsys):
    declared = benchmark_json()
    runner = QuickRunner(workload, tmp_path)
    tally = run.Tally()
    timed = run.timed_run(runner, 0.0, tally)
    assert set(timed) == {m["name"] for m in declared["end_to_end"]}
    assert all(value > 0 for value in timed.values())
    traced = run.traced_run(runner, tally)
    assert set(traced) == {m["name"] for m in declared["per_layer"]}
    assert tally.correct, capsys.readouterr().out


class CorruptStore(SweepStore):
    """A store whose read-back differs from what was written."""

    def get(self, spec):
        result = super().get(spec)
        if result is not None:
            result.goodput_mbps += 1.0
        return result


def test_injected_readback_mismatch_raises_fail_ratio(tmp_path):
    ctx = workloads.setup_fanin(3, tmp_path, "quick")
    ctx.store.close()
    ctx.store = CorruptStore(tmp_path / "corrupt.sqlite")
    result = workloads.run_sweep_pass(ctx)
    assert result.failed == result.ops == len(ctx.points)
    assert any("read-back" in note for note in result.notes)

    tally = run.Tally()
    tally.add({"pass": {"ops": result.ops, "failed": result.failed, "notes": [],
                        "digest": result.digest}})
    assert tally.failed / tally.attempted == 1.0 and not tally.correct


def test_digest_mismatch_between_passes_counts_as_failure():
    tally = run.Tally()
    for digest in ("a", "a", "b"):
        tally.add({"pass": {"ops": 10, "failed": 0, "notes": [], "digest": digest}})
    assert (tally.attempted, tally.failed, tally.correct) == (30, 10, False)


def test_plan_check_flags_points_of_another_shard():
    spec = workloads.plan_spec(3, "quick")
    points = spec.points()
    notes = []
    assert workloads.check_plan(points, points, (0, 1), notes) == 0
    assert workloads.check_plan(points, points, workloads.PLAN_SHARD, notes) > 0
    assert notes


def test_profile_folding_attributes_builtins_to_callers():
    engine = ("/x/src/repro/sim/engine.py", 1, "run")
    sender = ("/x/src/repro/tcp/sender.py", 9, "on_ack")
    native = ("~", 0, "<method 'run' of '_evcore.EventCore' objects>")
    builtin = ("~", 0, "<method 'get' of 'dict' objects>")
    stats = {
        engine: (1, 1, 0.5, 2.0, {}),
        native: (1, 1, 0.25, 1.5, {engine: (1, 1, 0.25, 1.5)}),
        sender: (4, 4, 1.0, 1.25, {native: (4, 4, 1.0, 1.25)}),
        builtin: (8, 8, 0.25, 0.25, {sender: (8, 8, 0.25, 0.25)}),
    }
    folded = tracing.fold_profile(stats)
    assert folded["sim"] == {"calls": 2, "self_s": 0.75}
    assert folded["tcp"] == {"calls": 4, "self_s": 1.25}
