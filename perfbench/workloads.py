"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Every workload is a closed loop: its one client (a sweep loop or a
control agent) issues the next operation only after the previous one
finished.  A *pass* is a fixed amount of work derived from the seed alone,
so every pass of one invocation must produce the same ``sim_digest``.

Each workload is a pair ``(setup, run)``:

- ``setup(seed, work_dir, variant)`` builds the inputs (specs, a fresh
  store, environments).  Its cost is the benchmark's ``setup_s``.
- ``run(ctx, profiler)`` performs the pass and returns a
  :class:`PassResult`: the operations done, the host time they took, and
  the output checks' failures.  Checks run after the timed region; an
  optional ``cProfile.Profile`` is enabled for the timed region only.

``variant`` selects the pass's shape: ``"full"`` is the timed pass;
``"serial"`` is the full pass with ``ci512-parallel`` on one in-process
worker, because profile hooks and spans do not follow into worker
processes; ``"profile"`` is the deterministic subset the profiler folds;
``"quick"`` is a tiny configuration for the benchmark's self-tests.  Only
``"full"`` starts a process pool.

``repro`` only ever sees the generated specs; the seed stays here.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import repro.sweep as sweep
from repro import ParallelExecutor, SerialExecutor
from repro.control import Action, ControlEnv
from repro.sweep import PRESETS, SweepSpec, SweepStore, preset, run_sweep, shard_index

#: N ladder for ``fanin-sweep``: one stratum per value, spanning the
#: ``phase-1m`` N axis (8-2048).  Stratifying N keeps every seed's pass
#: the same size, so throughput compares across seeds.
FANIN_LADDER = (8, 16, 32, 64, 96, 128, 192, 256, 384, 512, 1024, 2048)
FANIN_ROUNDS = 10
PROTOCOLS = ("dctcp", "dctcp+")

#: ``control-episode``: (protocol, N) per episode, every 8th flow controlled.
CONTROL_EPISODES = (("dctcp", 64), ("dctcp", 256), ("dctcp+", 64), ("dctcp+", 256))
CONTROL_ROUNDS = 20
CONTROL_STRIDE = 8
#: An episode that has not reached ``done`` after this many steps fails.
CONTROL_MAX_STEPS = 100_000
THROTTLE = Action(cwnd_scale=0.5)

#: ``sweep-plan``: the shard a ``sweep status`` / resume invocation owns.
PLAN_SHARD = (3, 8)


@dataclass
class PassResult:
    """What one pass did, measured and checked."""

    ops: int
    #: The timed region: ``time.perf_counter()`` at its start, and its length.
    started_at: float
    elapsed_s: float
    failed: int
    digest: str
    events: int = 0
    #: Per-operation host latencies (seconds); filled for ``ControlEnv.step``.
    latencies_s: List[float] = field(default_factory=list)
    #: First fresh result's arrival minus its own simulation time (sweeps).
    spawn_s: float = 0.0
    #: Behaviour counters summed over the pass.
    timeouts: int = 0
    data_packets: int = 0
    retransmits: int = 0
    notes: List[str] = field(default_factory=list)


def digest_of(rows: object) -> str:
    """Short stable digest of JSON-encodable simulation outputs."""
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _report_exception(what: str) -> str:
    text = f"{what}: {traceback.format_exc().strip().splitlines()[-1]}"
    traceback.print_exc(file=sys.stderr)
    return text


def _fresh_store(work_dir: Path, name: str) -> SweepStore:
    path = work_dir / f"{name}.sqlite"
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)
    return SweepStore(path)


# -- sweeps (fanin-sweep, ci512-parallel) ------------------------------------------------
@dataclass
class SweepContext:
    specs: List[SweepSpec]
    points: List  # expected ScenarioSpecs, in submission order
    store: SweepStore
    executor: object
    resume: bool


def fanin_specs(seed: int, variant: str) -> List[SweepSpec]:
    """One single-point random sweep per (protocol, N) stratum.

    Each stratum draws RTOmin, K, buffer and the scenario seed from the
    ``phase-1m`` axes with its own sample seed, taken from ``seed``.
    """
    rng = random.Random(seed)
    ladder, rounds = FANIN_LADDER, FANIN_ROUNDS
    if variant == "quick":
        ladder, rounds = (8, 32), 2
    elif variant == "profile":
        ladder = FANIN_LADDER[::2]
    base = preset("phase-1m").axes
    specs = []
    for protocol in PROTOCOLS:
        for n in FANIN_LADDER:
            sample_seed = rng.randrange(1, 2**31)  # drawn for every stratum: subsets agree
            if n not in ladder:
                continue
            axes = {k: v for k, v in base.items() if k not in ("protocol", "n_flows")}
            axes.update(protocol=[protocol], n_flows=[n])
            specs.append(
                SweepSpec(
                    name=f"fanin-{protocol}-n{n}",
                    mode="random",
                    rounds=rounds,
                    axes=axes,
                    samples=1,
                    sample_seed=sample_seed,
                )
            )
    return specs


def ci512_spec(seed: int, variant: str) -> SweepSpec:
    """The ``ci-512`` grid with its 8 scenario seeds drawn from ``seed``."""
    data = json.loads(json.dumps(PRESETS["ci-512"]))
    rng = random.Random(seed)
    data["axes"]["seed"] = sorted(rng.sample(range(1, 1_000_000), 8))
    if variant == "quick":
        data["axes"]["n_flows"] = [2]
        data["axes"]["seed"] = data["axes"]["seed"][:1]
    elif variant == "profile":
        data["axes"]["seed"] = data["axes"]["seed"][:2]
    return SweepSpec.from_dict(data)


def setup_fanin(seed: int, work_dir: Path, variant: str) -> SweepContext:
    specs = fanin_specs(seed, variant)
    points = [p for s in specs for p in s.points()]
    store = _fresh_store(work_dir, f"fanin-{variant}")
    return SweepContext(specs, points, store, SerialExecutor(), resume=False)


def setup_ci512(seed: int, work_dir: Path, variant: str) -> SweepContext:
    spec = ci512_spec(seed, variant)
    store = _fresh_store(work_dir, f"ci512-{variant}")
    executor = ParallelExecutor(2) if variant == "full" else SerialExecutor()
    return SweepContext([spec], spec.points(), store, executor, resume=True)


def run_sweep_pass(ctx: SweepContext, profiler=None) -> PassResult:
    """Run every sweep into the store, resume once, then check the store."""
    computed: Dict[object, object] = {}
    arrivals: List[Tuple[float, object]] = []

    def on_progress(event) -> None:
        if not event.cached:
            computed[event.spec] = event.result
            arrivals.append((time.perf_counter(), event.result))

    ctx.executor.progress = on_progress
    notes: List[str] = []
    recomputed = 0
    if profiler is not None:
        profiler.enable()
    started = time.perf_counter()
    for spec in ctx.specs:
        try:
            run_sweep(spec, ctx.store, ctx.executor)
        except Exception:  # noqa: BLE001 - a failed point is counted, not fatal
            notes.append(_report_exception(f"sweep {spec.name}"))
    if ctx.resume:
        for spec in ctx.specs:
            try:
                recomputed += run_sweep(spec, ctx.store, ctx.executor).computed
            except Exception:  # noqa: BLE001
                notes.append(_report_exception(f"resume {spec.name}"))
    elapsed = time.perf_counter() - started
    if profiler is not None:
        profiler.disable()

    failed = recomputed
    if recomputed:
        notes.append(f"resume pass recomputed {recomputed} points (expected 0)")
    rows = []
    events = timeouts = data_packets = retransmits = 0
    for point in ctx.points:
        result = computed.get(point)
        if result is None:
            failed += 1
            rows.append(None)
            continue
        short = result.rounds < point.rounds or result.events_processed >= point.max_events
        readback = ctx.store.get(point)
        if short or readback != result:
            failed += 1
            notes.append(f"{point.label()}: {'short run' if short else 'store read-back differs'}")
        events += result.events_processed
        timeouts += result.timeouts
        data_packets += sum(fs.data_packets_sent for fs in result.flow_stats)
        retransmits += sum(fs.retransmitted_packets for fs in result.flow_stats)
        rows.append(
            [
                result.events_processed,
                result.goodput_mbps,
                result.fct_ms,
                result.timeouts,
                result.round_durations_ns,
            ]
        )
    spawn_s = 0.0
    if arrivals:
        first_at, first = arrivals[0]
        spawn_s = max(0.0, first_at - started - first.wall_time_s)
    ctx.store.close()
    return PassResult(
        ops=len(ctx.points),
        started_at=started,
        elapsed_s=elapsed,
        failed=min(failed, len(ctx.points)),
        digest=digest_of(rows),
        events=events,
        spawn_s=spawn_s,
        timeouts=timeouts,
        data_packets=data_packets,
        retransmits=retransmits,
        notes=notes,
    )


# -- control-episode --------------------------------------------------------------------
def setup_control(seed: int, work_dir: Path, variant: str) -> List[ControlEnv]:
    rng = random.Random(seed)
    episodes, rounds = CONTROL_EPISODES, CONTROL_ROUNDS
    if variant == "quick":
        episodes, rounds = (("dctcp+", 16),), 2
    return [
        ControlEnv(
            protocol=protocol,
            n_flows=n,
            rounds=rounds,
            seed=rng.randrange(1, 2**31),
            controlled=tuple(range(0, n, CONTROL_STRIDE)),
        )
        for protocol, n in episodes
    ]


def agent(obs) -> Optional[Action]:
    """The scripted agent: halve cwnd when most of the last window was marked."""
    return THROTTLE if obs.marked_fraction > 0.5 else None


def run_control_pass(envs: List[ControlEnv], profiler=None) -> PassResult:
    latencies: List[float] = []
    episodes = []
    notes: List[str] = []
    if profiler is not None:
        profiler.enable()
    started = time.perf_counter()
    for env in envs:
        steps, done = 0, False
        try:
            obs = env.reset()
            while not obs.done and steps < CONTROL_MAX_STEPS:
                action = agent(obs)
                t = time.perf_counter()
                obs = env.step(action)
                latencies.append(time.perf_counter() - t)
                steps += 1
            done = obs.done
        except Exception:  # noqa: BLE001 - a failed episode is counted, not fatal
            notes.append(_report_exception(f"episode {env.protocol} N={env.n_flows}"))
        episodes.append((env, steps, done))
    elapsed = time.perf_counter() - started
    if profiler is not None:
        profiler.disable()

    ops = len(latencies)
    failed = events = timeouts = data_packets = retransmits = 0
    rows = []
    for env, steps, done in episodes:
        if not done:
            lost = max(steps, 1)  # an episode that never stepped is one failed op
            failed += lost
            ops += lost - steps
            notes.append(f"episode {env.protocol} N={env.n_flows} did not reach done")
            rows.append([steps, None])
            continue
        wl = env.workload
        events += env.sim.events_processed
        summary = env.summary()
        timeouts += int(summary["timeouts"])
        data_packets += sum(fs.data_packets_sent for fs in wl.flow_stats)
        retransmits += sum(fs.retransmitted_packets for fs in wl.flow_stats)
        rows.append(
            [
                steps,
                env.sim.events_processed,
                summary,
                [r.duration_ns for r in wl.rounds],
            ]
        )
        env.close()
    return PassResult(
        ops=ops,
        started_at=started,
        elapsed_s=elapsed,
        failed=failed,
        digest=digest_of(rows),
        events=events,
        latencies_s=latencies,
        timeouts=timeouts,
        data_packets=data_packets,
        retransmits=retransmits,
        notes=notes,
    )


# -- sweep-plan -------------------------------------------------------------------------
@dataclass
class PlanContext:
    spec: SweepSpec
    store: SweepStore


def plan_spec(seed: int, variant: str) -> SweepSpec:
    """A 2-seed slice of ``phase-1m`` (129,600 points); seeds drawn from ``seed``."""
    data = json.loads(json.dumps(PRESETS["phase-1m"]))
    rng = random.Random(seed)
    data["axes"]["seed"] = sorted(rng.sample(data["axes"]["seed"], 2))
    if variant == "quick":
        for axis in ("n_flows", "rto_min_ms", "ecn_threshold_bytes", "buffer_bytes"):
            data["axes"][axis] = data["axes"][axis][:3]
    return SweepSpec.from_dict(data)


def setup_plan(seed: int, work_dir: Path, variant: str) -> PlanContext:
    return PlanContext(plan_spec(seed, variant), _fresh_store(work_dir, f"plan-{variant}"))


def run_plan_pass(ctx: PlanContext, profiler=None) -> PassResult:
    notes: List[str] = []
    owned: List = []
    missing: List = []
    if profiler is not None:
        profiler.enable()
    started = time.perf_counter()
    try:
        # Looked up on the package at call time, so a traced run sees its span.
        owned, missing = sweep.plan_sweep(ctx.spec, ctx.store, PLAN_SHARD)
    except Exception:  # noqa: BLE001 - counted as a failed plan
        notes.append(_report_exception("plan_sweep"))
    elapsed = time.perf_counter() - started
    if profiler is not None:
        profiler.disable()
    ctx.store.close()
    total = ctx.spec.point_count()
    if not owned:
        return PassResult(total, started, elapsed, failed=total, digest="-", notes=notes)
    return PassResult(
        ops=total,
        started_at=started,
        elapsed_s=elapsed,
        failed=check_plan(owned, missing, PLAN_SHARD, notes),
        digest=digest_of([p.to_dict() for p in owned]),
        notes=notes,
    )


def check_plan(owned: List, missing: List, shard: Tuple[int, int], notes: List[str]) -> int:
    """Planned points that are wrong: outside the shard, or missing from an
    empty store's work list."""
    failed = sum(1 for p in owned if shard_index(p, shard[1]) != shard[0])
    if failed:
        notes.append(f"{failed} planned points belong to another shard")
    if missing != owned:
        notes.append(f"an empty store reported {len(missing)} of {len(owned)} points missing")
        failed += abs(len(owned) - len(missing)) or 1
    return failed


# -- registry ---------------------------------------------------------------------------
WORKLOADS: Dict[str, Tuple[Callable, Callable]] = {
    "fanin-sweep": (setup_fanin, run_sweep_pass),
    "ci512-parallel": (setup_ci512, run_sweep_pass),
    "control-episode": (setup_control, run_control_pass),
    "sweep-plan": (setup_plan, run_plan_pass),
}

