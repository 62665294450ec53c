"""Traced-run instrumentation: spans around ``repro``'s public entry points,
and a ``cProfile`` pass folded by ``repro`` subpackage.

Spans are recorded by wrappers this file installs over the public calls
(nothing under ``src/`` changes): ``run_scenario`` as the executor calls
it, ``Executor.map``, the callable ``topology_builder`` returns, the
``IncastWorkload`` constructor, ``ScenarioSpec.cache_key``,
``SweepSpec.points``, ``SweepStore.put/get/has_key/missing``,
``plan_sweep`` and ``ControlEnv.reset/step``.  A span holds its name,
start, end, parent span and a point identifier shared by every span of
one simulated point (one ``run_scenario`` call or one ``ControlEnv``
episode).  Spans stay in memory until :meth:`SpanRecorder.write`.

The per-event layers call each other through engine callbacks rather than
through one entry point, so their cost comes from the profile instead:
:func:`fold_profile` sums call counts and self time per layer.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: ``repro`` subpackages reported as layers.
LAYERS = (
    "sim",
    "net",
    "tcp",
    "core",
    "workloads",
    "telemetry",
    "metrics",
    "control",
    "exec",
    "sweep",
)
#: Layers whose work is driven per simulated event.
EVENT_LAYERS = ("sim", "net", "tcp", "core", "workloads")

_REPRO_MODULE = re.compile(r"[\\/]repro[\\/](\w+)[\\/]")


class SpanRecorder:
    """In-memory span log: ``[name, start, end, parent, point]`` rows."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._points = 0
        self.episode_points: Dict[int, int] = {}
        self._trees: List[object] = []
        #: Bottleneck-queue counters harvested from finished topologies.
        self.drops = 0
        self.ecn_marks = 0

    def _open(self, name: str, point: Optional[int]) -> int:
        parent = self._stack[-1] if self._stack else -1
        if point is None and parent >= 0:
            point = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, point])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def new_point(self) -> int:
        self._points += 1
        return self._points

    def wrap(self, name: str, fn: Callable, point_of: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around every call; ``point_of(args)`` names the point."""

        def traced(*args, **kwargs):
            index = self._open(name, point_of(args) if point_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    # -- bottleneck counters ---------------------------------------------------------
    def track_tree(self, tree: object) -> None:
        """Harvest finished topologies, then keep ``tree`` until its run ends."""
        self.harvest()
        self._trees.append(tree)

    def harvest(self) -> None:
        for tree in self._trees:
            queue = tree.bottleneck_port.queue
            self.drops += queue.dropped_packets
            self.ecn_marks += queue.marked_packets
        self._trees.clear()

    # -- reading -----------------------------------------------------------------------
    def durations(self, name: str, window: Tuple[float, float]) -> List[float]:
        """Durations of ``name`` spans that started inside ``window``."""
        lo, hi = window
        return [
            end - start for n, start, end, _, _ in self.spans if n == name and lo <= start <= hi
        ]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, point in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "point": point}
                    )
                    + "\n"
                )


def install_spans(recorder: SpanRecorder) -> None:
    """Wrap the public entry points; lasts for the life of the process."""
    import repro.control.env as control_env
    import repro.exec.executors as executors
    import repro.exec.scenario as scenario
    import repro.sweep as sweep_pkg
    import repro.sweep.orchestrator as orchestrator
    from repro.control import ControlEnv
    from repro.exec import ScenarioSpec
    from repro.sweep import SweepSpec, SweepStore
    from repro.workloads.incast import IncastWorkload

    executors.run_scenario = recorder.wrap(
        "exec.run_scenario", executors.run_scenario, lambda args: recorder.new_point()
    )
    executors.Executor.map = recorder.wrap("exec.map", executors.Executor.map)

    def traced_builder(builder_of: Callable) -> Callable:
        def topology_builder(name: str):
            build = recorder.wrap("net.build", builder_of(name))

            def build_and_track(*args, **kwargs):
                tree = build(*args, **kwargs)
                recorder.track_tree(tree)
                return tree

            return build_and_track

        return topology_builder

    scenario.topology_builder = traced_builder(scenario.topology_builder)
    control_env.topology_builder = traced_builder(control_env.topology_builder)
    IncastWorkload.__init__ = recorder.wrap("workloads.build", IncastWorkload.__init__)
    ScenarioSpec.cache_key = recorder.wrap("exec.cache_key", ScenarioSpec.cache_key)
    SweepSpec.points = recorder.wrap("sweep.expand", SweepSpec.points)
    for method in ("put", "get", "has_key", "missing"):
        setattr(
            SweepStore, method, recorder.wrap(f"sweep.store_{method}", getattr(SweepStore, method))
        )
    plan = recorder.wrap("sweep.plan", orchestrator.plan_sweep)
    orchestrator.plan_sweep = plan
    sweep_pkg.plan_sweep = plan

    def episode_start(args) -> int:
        point = recorder.new_point()
        recorder.episode_points[id(args[0])] = point
        return point

    ControlEnv.reset = recorder.wrap("control.reset", ControlEnv.reset, episode_start)
    ControlEnv.step = recorder.wrap(
        "control.step", ControlEnv.step, lambda args: recorder.episode_points.get(id(args[0]))
    )


def span_metrics(recorder: SpanRecorder, window: Tuple[float, float], points: int) -> Dict:
    """Per-layer figures from the spans of one timed pass.

    ``points`` is the pass's expanded point count, the base of
    ``exec.cache_key_calls_per_point``.
    """
    recorder.harvest()

    def mean_ms(name: str) -> float:
        values = recorder.durations(name, window)
        return 1e3 * sum(values) / len(values) if values else 0.0

    runs = recorder.durations("exec.run_scenario", window)
    maps = recorder.durations("exec.map", window)
    return {
        "net.build_ms": mean_ms("net.build"),
        "workloads.build_ms": mean_ms("workloads.build"),
        "exec.run_scenario_ms": mean_ms("exec.run_scenario"),
        "exec.overhead_ms": 1e3 * (sum(maps) - sum(runs)) / len(runs) if runs else 0.0,
        "sweep.store_put_ms": mean_ms("sweep.store_put"),
        "sweep.expand_s": sum(recorder.durations("sweep.expand", window)),
        "exec.cache_key_calls_per_point": (
            len(recorder.durations("exec.cache_key", window)) / points if points else 0.0
        ),
        "sweep.has_key_calls": len(recorder.durations("sweep.store_has_key", window)),
        "control.steps": len(recorder.durations("control.step", window)),
        "net.drops": recorder.drops,
        "net.ecn_marks": recorder.ecn_marks,
    }


# -- profile folding ---------------------------------------------------------------------
def layer_of(func: Tuple[str, int, str]) -> Optional[str]:
    """The ``repro`` layer a profiled function belongs to, or ``None``.

    ``_evcore`` builtins (the native event core) count as ``sim``; other
    builtins and the standard library belong to no layer.
    """
    filename, _, name = func
    if filename == "~":
        return "sim" if "_evcore" in name else None
    match = _REPRO_MODULE.search(filename)
    if match is None:
        return None
    return match.group(1) if match.group(1) in LAYERS else "other"


def fold_profile(stats: Dict) -> Dict[str, Dict[str, float]]:
    """Fold ``pstats.Stats.stats`` into per-layer calls and self seconds.

    A layer's calls count calls of functions defined in it.  Its self time
    is those functions' own time plus the time of builtins and library
    functions they call directly.
    """
    folded = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS + ("other",)}
    for func, (_, calls, self_s, _, callers) in stats.items():
        layer = layer_of(func)
        if layer is not None:
            folded[layer]["calls"] += calls
            folded[layer]["self_s"] += self_s
            continue
        for caller, (_, _, caller_self_s, _) in callers.items():
            caller_layer = layer_of(caller)
            if caller_layer is not None:
                folded[caller_layer]["self_s"] += caller_self_s
    return folded


def profile_metrics(folded: Dict[str, Dict[str, float]], events: int) -> Dict[str, float]:
    metrics: Dict[str, float] = {"sim.events": events}
    for layer in EVENT_LAYERS:
        calls = folded[layer]["calls"]
        metrics[f"{layer}.calls_per_event"] = calls / events if events else 0.0
    for layer in EVENT_LAYERS + ("telemetry", "metrics", "control"):
        metrics[f"{layer}.self_s"] = folded[layer]["self_s"]
    return metrics
