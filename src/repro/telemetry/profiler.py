"""Opt-in engine profiling: dispatch-loop time broken down by event kind.

An :class:`EngineProfiler` handed to the :class:`~repro.sim.engine.Simulator`
becomes the pure dispatch loop's per-event probe: :meth:`dispatch` times
every callback and attributes the wall time to its kind (keyed by
``__qualname__``, e.g. ``OutputPort._finish_tx``).  Semantics are identical
to the plain loop — same ordering, same event counts — only slower, so
profiled runs are for finding where the engine spends its time, never for
gating results.  With an invariant checker attached as well, the checker's
probe wraps this one, so a validated run is profiled too.

``repro bench --profile`` and ``python -m repro trace --profile`` report
through this; the numbers export via the shared Collector surface
(:meth:`schema` / :meth:`rows` / :meth:`to_csv`).
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Tuple

from .collector import Collector


class EngineProfiler(Collector):
    """Accumulates per-callback-kind dispatch counts and seconds."""

    __slots__ = ("counts", "times_s", "events", "wall_s")

    def __init__(self):
        self.counts: Dict[str, int] = {}
        self.times_s: Dict[str, float] = {}
        self.events = 0
        self.wall_s = 0.0

    # -- engine feed -------------------------------------------------------------
    def dispatch(self, time_ns: int, callback: Callable[..., None], args: tuple) -> None:
        """The engine's per-event probe: run ``callback(*args)``, timed."""
        started = perf_counter()
        callback(*args)
        elapsed = perf_counter() - started
        kind = getattr(callback, "__qualname__", None) or type(callback).__name__
        counts = self.counts
        times = self.times_s
        counts[kind] = counts.get(kind, 0) + 1
        times[kind] = times.get(kind, 0.0) + elapsed

    def record_run(self, events: int, wall_s: float) -> None:
        """Called by the dispatch loop after each run() returns."""
        self.events += events
        self.wall_s += wall_s

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    # -- Collector surface -------------------------------------------------------
    def schema(self) -> Tuple[str, ...]:
        return ("kind", "events", "total_s", "mean_us", "share")

    def rows(self) -> List[Tuple[str, int, float, float, float]]:
        """One row per callback kind, heaviest total time first."""
        total = sum(self.times_s.values()) or 1.0
        out = []
        for kind, seconds in sorted(self.times_s.items(), key=lambda kv: -kv[1]):
            count = self.counts[kind]
            out.append(
                (
                    kind,
                    count,
                    seconds,
                    seconds / count * 1e6 if count else 0.0,
                    seconds / total,
                )
            )
        return out

    def report(self) -> str:
        """Human-readable table (the --profile output)."""
        lines = [
            f"{self.events} events in {self.wall_s:.3f}s "
            f"({self.events_per_sec:,.0f} events/s)",
            f"{'kind':<40} {'events':>10} {'total_s':>9} {'mean_us':>8} {'share':>6}",
        ]
        for kind, count, seconds, mean_us, share in self.rows():
            lines.append(f"{kind:<40} {count:>10} {seconds:>9.3f} {mean_us:>8.2f} {share:>6.1%}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EngineProfiler({self.events} events, {self.wall_s:.3f}s)"
