"""The discrete-event simulator core.

A :class:`Simulator` owns the clock (integer nanoseconds), the event queue
and the RNG registry.  Components schedule callbacks with
:meth:`Simulator.schedule` / :meth:`Simulator.at` and the experiment driver
pumps events with :meth:`Simulator.run`.

The engine is deliberately tiny — all protocol behaviour lives in the
components — so the hot loop is a ``pop -> callback`` cycle with no
dispatch indirection.  :meth:`Simulator.run` fuses the peek/pop scan of
:class:`~repro.sim.events.EventQueue` into one loop over the raw heap with
``heapq`` bound to locals, and **batches same-timestamp dispatch**: once
the head event's time is established, every consecutive event at that
time is drained in one inner loop, so the clock store, the ``until``
bound and the head-of-heap rescan are paid once per distinct timestamp
instead of once per event (packet-level simulations tie heavily — fan-in
arrivals, ACK bursts, zero-delay control packets).

The simulator also owns the struct-of-arrays stores the components share:
``sim.pool`` (the :class:`~repro.net.pool.PacketPool` packet flyweights)
and ``sim.flows`` (the :class:`~repro.tcp.flowstate.FlowLedger` per-flow
counter columns).  Both are created lazily by their layer — the engine
never imports net or tcp.

Automatic garbage collection is paused while :meth:`run` pumps events
(and restored on exit, exception-safe).  The hot path allocates almost
nothing cyclic — events and packets are recycled through freelists, and
acyclic temporaries die by refcount — so the collector's periodic
traversals were pure overhead (~10% of runtime at the default thresholds).
"""

from __future__ import annotations

import gc
import os
from heapq import heappop, heappush, heapreplace
from sys import maxsize
from typing import Callable, Optional

from ._native import core_factory
from .events import FREELIST_MAX, Event, EventQueue, _noop
from .rng import RngRegistry

#: Environment opt-in for runtime invariant checking (see ``repro.validate``).
VALIDATE_ENV = "REPRO_VALIDATE"


def _env_validate() -> bool:
    return os.environ.get(VALIDATE_ENV, "").strip().lower() in ("1", "true", "on", "yes")


class SimulationError(RuntimeError):
    """Raised on engine misuse (scheduling in the past, etc.)."""


class Simulator:
    """Event loop + simulated clock.

    Parameters
    ----------
    seed:
        Master seed for the per-component RNG registry.
    validate:
        Attach a :class:`repro.validate.InvariantChecker` that components
        register with at construction and that the (separate, slower)
        validated dispatch loop sweeps while running.  ``None`` (default)
        consults the ``REPRO_VALIDATE`` environment variable; ``False``
        leaves ``checker`` as ``None`` and the hot path untouched.
    tracer:
        Attach a :class:`repro.telemetry.Tracer` recording typed event
        records from the component hook points.  The tracer schedules no
        events, so event counts and digests match untraced runs exactly.
    profiler:
        Attach a :class:`repro.telemetry.EngineProfiler`; dispatch then
        runs through a (slower) timing loop attributing wall time per
        callback kind.  Ignored while a checker is attached (the validated
        loop takes priority).

    ``checker`` and ``tracer`` both observe the simulation through one
    :class:`repro.telemetry.HookRegistry` (``self.hooks``); components
    announce themselves to it at construction.  ``hooks`` is ``None`` when
    neither observer is active, so the plain path pays exactly one
    attribute test per component construction and nothing per event.
    """

    __slots__ = (
        "now",
        "queue",
        "rng",
        "checker",
        "tracer",
        "profiler",
        "hooks",
        "pool",
        "flows",
        "_running",
        "events_processed",
        "_sequence",
        "_packet_seq",
        "_core",
        "push_light",
        "_stop",
    )

    def __init__(
        self,
        seed: int = 0,
        validate: Optional[bool] = None,
        tracer=None,
        profiler=None,
        native: Optional[bool] = None,
    ):
        self.now: int = 0
        self.queue = EventQueue()
        self.rng = RngRegistry(seed)
        self._running = False
        self.events_processed: int = 0
        self._sequence = 0
        self._packet_seq = 0
        # Struct-of-arrays stores, attached lazily by their owning layers
        # (PacketPool.of / FlowLedger.of) so the engine stays import-free.
        self.pool = None
        self.flows = None
        self._stop = False
        if validate is None:
            validate = _env_validate()
        if validate:
            # Imported lazily: the validate layer is optional and the
            # common (disabled) path must not pay for it.
            from ..validate.checker import InvariantChecker

            self.checker = InvariantChecker(self)
        else:
            self.checker = None
        self.tracer = tracer
        self.profiler = profiler
        if tracer is not None or self.checker is not None:
            # One fan-out point for every observer; lazy import keeps the
            # unobserved path free of the telemetry layer entirely.
            from ..telemetry.hooks import HookRegistry

            hooks = HookRegistry()
            if self.checker is not None:
                hooks.subscribe(self.checker)
            if tracer is not None:
                tracer.bind(self)
                hooks.subscribe(tracer)
            self.hooks = hooks
        else:
            self.hooks = None
        # Native event core (see repro/sim/_evcore.c): owns the light-event
        # heap, the global sequence counter, and the dispatch loop.  The
        # mode is fixed here, once — the validated and profiled loops are
        # the ground truth the native loop is measured against, so a
        # checker or profiler always pins the simulator to pure Python.
        core = None
        if native is None:
            native = self.checker is None and profiler is None
        elif native and (self.checker is not None or profiler is not None):
            raise SimulationError("native dispatch cannot be combined with validate/profiler")
        if native:
            factory = core_factory()
            if factory is not None:
                core = factory()
        self._core = core
        self.queue._core = core
        # `push_light(abs_time, callback, arg)` is the unchecked light-event
        # scheduling primitive, bound once so per-hop call sites pay a
        # single call (a C call in native mode).
        self.push_light = core.push if core is not None else self._push_light_py

    @property
    def native(self) -> bool:
        """True when this simulator dispatches through the C event core."""
        return self._core is not None

    def next_sequence(self) -> int:
        """Per-simulation monotonically increasing id.

        Components use this (not any process-global counter) to derive RNG
        stream names, so that two simulations built identically from the
        same seed draw identical randomness regardless of what ran before
        them in the process.
        """
        self._sequence += 1
        return self._sequence

    def next_packet_id(self) -> int:
        """Per-simulation packet id (separate from :meth:`next_sequence` so
        packet churn cannot perturb RNG stream naming).

        Owning ids here — not in a process-global counter — makes packet
        ids reproducible: two identical simulations emit identical id
        streams no matter what ran before them in the process, which keeps
        any id-derived artifact stable across serial and worker-pool runs.
        """
        self._packet_seq += 1
        return self._packet_seq

    # -- scheduling -----------------------------------------------------------
    def _push_event(self, time: int, callback: Callable[..., None], args: tuple) -> Event:
        # Mirrors EventQueue.push, inlined: this runs for every regular
        # event and the queue-level call frame is measurable at that rate.
        # Any change to the push protocol must be made in both places.
        queue = self.queue
        core = self._core
        if core is None:
            seq = queue._seq
            queue._seq = seq + 1
        else:
            # The native core owns the simulation-wide sequence counter so
            # light events (filed in its C heap) and regular events (filed
            # here) share one totally ordered (time, seq) stream.
            seq = core.take_seq()
        free = queue._free
        if free:
            ev = free.pop()
            ev.time = time
            ev.seq = seq
            ev.deadline = time
            ev._dseq = seq
            ev.callback = callback
            ev.args = args
            ev.cancelled = False
        else:
            ev = Event(time, seq, callback, args)
        queue._live += 1
        heappush(queue._heap, (time, seq, ev))
        return ev

    def schedule(self, delay: int, callback: Callable[..., None], *args) -> Event:
        """Run ``callback(*args)`` after ``delay`` ns of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        return self._push_event(self.now + delay, callback, args)

    def _push_light_py(self, time: int, callback: Callable[[int], None], arg: int) -> None:
        # Pure-Python implementation behind `push_light` (native mode binds
        # the core's C push instead): a bare (time, seq, callback, arg)
        # tuple on the regular heap.
        queue = self.queue
        seq = queue._seq
        queue._seq = seq + 1
        queue._live += 1
        heappush(queue._heap, (time, seq, callback, arg))

    def schedule_light(self, delay: int, callback: Callable[[int], None], arg: int) -> None:
        """Schedule a one-shot ``callback(arg)`` after ``delay`` ns — no handle.

        The fast path for the two scheduling sites every packet hop pays
        (serialization-finish and propagation-arrival, ~94% of all events):
        no :class:`Event` is allocated — the entry is a bare
        ``(time, seq, callback, arg)`` record (a tuple on the regular heap,
        or a C struct in the native core's heap) consuming the same sequence
        stream as :meth:`schedule`, so event ordering (including FIFO ties
        at one timestamp) is bit-for-bit identical to the heavyweight path.
        Light events cannot be cancelled or rescheduled — callers that need
        a handle use :meth:`schedule`.  Per-hop call sites bind
        ``sim.push_light`` (same primitive, absolute time, no validation)
        to skip this method's frame.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        self.push_light(self.now + delay, callback, arg)

    def at(self, time: int, callback: Callable[..., None], *args) -> Event:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at t={time} before current time t={self.now}")
        return self._push_event(time, callback, args)

    def reschedule(
        self, event: Optional[Event], delay: int, callback: Callable[..., None], *args
    ) -> Event:
        """Re-arm a timer ``delay`` ns from now without heap churn.

        Drop-in replacement for the ``cancel(); schedule()`` idiom (and
        bit-for-bit equivalent to it, including event ordering): the
        returned handle supersedes ``event``, which must not be used
        afterwards.  ``None`` is accepted and behaves like ``schedule``.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        return self.queue.reschedule(event, self.now + delay, callback, args)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel an event handle (``None`` is accepted and ignored)."""
        if event is not None:
            self.queue.cancel(event)

    def request_stop(self) -> None:
        """Stop :meth:`run` after the currently executing event completes.

        Called from inside event callbacks by workload drivers when their
        completion condition is reached; cheaper than a per-event
        ``stop_when`` predicate because the loop only tests a flag.
        """
        self._stop = True

    # -- execution -------------------------------------------------------------
    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Process events in timestamp order.

        Parameters
        ----------
        until:
            Absolute simulated time bound.  Events strictly after ``until``
            are left in the queue and the clock is advanced to ``until``.
        max_events:
            Safety valve for runaway simulations (mainly used by tests).
        stop_when:
            Predicate checked after each event; the loop stops when it
            returns True (used by experiment drivers to stop at workload
            completion without draining idle timers).

        Returns the number of events processed in this call.
        """
        if self.checker is not None:
            return self._run_validated(until, max_events, stop_when)
        if self.profiler is not None:
            return self._run_profiled(until, max_events, stop_when)
        if self._core is not None:
            return self._run_native(until, max_events, stop_when)
        queue = self.queue
        # The dispatch loop works on the queue's raw heap (same entry
        # layout as EventQueue.pop) so each event costs one tuple unpack
        # instead of two method calls; heapq functions and the freelist
        # are bound to locals for the same reason.
        heap = queue._heap
        free = queue._free
        free_append = free.append
        limit = maxsize if max_events is None else max_events
        processed = 0
        self._running = True
        self._stop = False
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            running = True
            while running and processed < limit:
                # Establish the next live head event (skipping cancelled
                # carcasses, re-filing deferred reschedules).  Light
                # entries — bare (time, seq, callback, arg) tuples, see
                # Simulator.schedule_light — are always live, so they
                # skip every check.
                ev = None
                while heap:
                    entry = heap[0]
                    ev = entry[2]
                    ev_time = entry[0]
                    if ev.__class__ is Event:
                        if ev.cancelled:
                            heappop(heap)
                            if len(free) < FREELIST_MAX:
                                free_append(ev)
                            ev = None
                            continue
                        deadline = ev.deadline
                        if deadline > ev_time:
                            # Stale slot from a reschedule: re-file at the
                            # true deadline.
                            ev.time = deadline
                            ev.seq = ev._dseq
                            heapreplace(heap, (deadline, ev._dseq, ev))
                            ev = None
                            continue
                    break
                if ev is None:
                    break
                if until is not None and ev_time > until:
                    self.now = until
                    break
                self.now = ev_time
                # Same-timestamp batch: every consecutive live event at
                # ev_time dispatches here without re-checking `until` or
                # re-storing the clock.  Events scheduled *during* the
                # batch with zero delay land at ev_time with higher seq
                # and are picked up by the same loop, preserving exact
                # (time, seq) order.
                while True:
                    heappop(heap)
                    queue._live -= 1
                    if ev.__class__ is Event:
                        ev.deadline = -1  # fired: no longer pending
                        ev.callback(*ev.args)
                        # Recycle the fired event.  Safe because handles
                        # are single-use: every component that stores one
                        # clears or overwrites its reference inside the
                        # callback (and cancel/reschedule on a fired
                        # handle are no-ops), so nothing can reach `ev`
                        # once its callback has run.
                        if len(free) < FREELIST_MAX:
                            ev.callback = _noop
                            ev.args = ()
                            free_append(ev)
                    else:
                        ev(entry[3])
                    processed += 1
                    if (
                        self._stop
                        or (stop_when is not None and stop_when())
                        or processed >= limit
                    ):
                        running = False
                        break
                    if not heap:
                        break
                    entry = heap[0]
                    if entry[0] != ev_time:
                        break
                    ev = entry[2]
                    if ev.__class__ is Event and (ev.cancelled or ev.deadline > ev_time):
                        # Rare in-batch carcass/deferral: fall back to the
                        # outer scan, which re-enters the batch if more
                        # live events remain at this timestamp.
                        break
        finally:
            if gc_was_enabled:
                gc.enable()
            self._running = False
            self.events_processed += processed
        if until is not None and self.now < until and queue.peek_time() is None:
            self.now = until
        return processed

    def _run_native(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Dispatch through the C event core (see ``_evcore.c``).

        Semantically identical to :meth:`run` — same (time, seq) dispatch
        order, same stop-condition order, same freelist recycling, same
        ``events_processed`` accounting (the core credits partial progress
        even when a callback raises, matching the pure loop's ``finally``).
        """
        core = self._core
        queue = self.queue
        limit = maxsize if max_events is None else max_events
        self._running = True
        self._stop = False
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            processed = core.run(
                self, queue, until, limit, stop_when, _noop, FREELIST_MAX, Event
            )
        finally:
            if gc_was_enabled:
                gc.enable()
            self._running = False
        if (
            until is not None
            and self.now < until
            and len(core) == 0
            and queue.peek_time() is None
        ):
            self.now = until
        return processed

    def _run_validated(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Dispatch loop used when an :class:`InvariantChecker` is attached.

        Semantically identical to :meth:`run` — same ordering, same stop
        conditions, same ``events_processed`` accounting — but it asserts
        monotone non-decreasing dispatch timestamps and sweeps the checker
        inline every ``checker.sweep_every`` events.  Sweeps are *not*
        scheduled events, so event counts and digests match unvalidated
        runs exactly.  Fired events are not recycled to the freelist here;
        the only difference is object identity, which no component can
        observe (handles are single-use).  Dispatch stays strictly
        per-event (no batching) so ``check_dispatch_time`` sees every
        event — the checker is the ground truth the batched loop is
        measured against.
        """
        queue = self.queue
        heap = queue._heap
        checker = self.checker
        sweep_every = checker.sweep_every
        since_sweep = 0
        processed = 0
        self._running = True
        self._stop = False
        try:
            while True:
                if max_events is not None and processed >= max_events:
                    break
                ev = None
                while heap:
                    entry = heap[0]
                    ev = entry[2]
                    ev_time = entry[0]
                    if ev.__class__ is Event:
                        if ev.cancelled:
                            heappop(heap)
                            ev = None
                            continue
                        deadline = ev.deadline
                        if deadline > ev_time:
                            ev.time = deadline
                            ev.seq = ev._dseq
                            heapreplace(heap, (deadline, ev._dseq, ev))
                            ev = None
                            continue
                    break
                if ev is None:
                    break
                if until is not None and ev_time > until:
                    self.now = until
                    break
                checker.check_dispatch_time(ev_time)
                heappop(heap)
                queue._live -= 1
                self.now = ev_time
                if ev.__class__ is Event:
                    ev.deadline = -1
                    ev.callback(*ev.args)
                else:
                    ev(entry[3])
                processed += 1
                since_sweep += 1
                if since_sweep >= sweep_every:
                    since_sweep = 0
                    checker.sweep()
                if self._stop:
                    break
                if stop_when is not None and stop_when():
                    break
        finally:
            self._running = False
            self.events_processed += processed
        checker.sweep()
        if until is not None and self.now < until and queue.peek_time() is None:
            self.now = until
        return processed

    def _run_profiled(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Dispatch loop used when an :class:`EngineProfiler` is attached.

        Semantically identical to :meth:`run` — same ordering, same batched
        same-timestamp dispatch, same stop conditions, same freelist
        recycling, same ``events_processed`` accounting — but each callback
        is timed and attributed to its ``__qualname__``, and each
        same-timestamp batch's size is attributed to every kind dispatched
        inside it (so the profiler can report per-event-type batch sizes).
        The timing itself perturbs nothing the simulation can observe.
        """
        from time import perf_counter

        queue = self.queue
        heap = queue._heap
        free = queue._free
        free_append = free.append
        profiler = self.profiler
        counts = profiler.counts
        times = profiler.times_s
        batch_kinds: list = []
        limit = maxsize if max_events is None else max_events
        processed = 0
        self._running = True
        self._stop = False
        wall_started = perf_counter()
        try:
            running = True
            while running and processed < limit:
                ev = None
                while heap:
                    entry = heap[0]
                    ev = entry[2]
                    ev_time = entry[0]
                    if ev.__class__ is Event:
                        if ev.cancelled:
                            heappop(heap)
                            if len(free) < FREELIST_MAX:
                                free_append(ev)
                            ev = None
                            continue
                        deadline = ev.deadline
                        if deadline > ev_time:
                            ev.time = deadline
                            ev.seq = ev._dseq
                            heapreplace(heap, (deadline, ev._dseq, ev))
                            ev = None
                            continue
                    break
                if ev is None:
                    break
                if until is not None and ev_time > until:
                    self.now = until
                    break
                self.now = ev_time
                del batch_kinds[:]
                while True:
                    heappop(heap)
                    queue._live -= 1
                    if ev.__class__ is Event:
                        ev.deadline = -1
                        callback = ev.callback
                        started = perf_counter()
                        callback(*ev.args)
                        elapsed = perf_counter() - started
                        if len(free) < FREELIST_MAX:
                            ev.callback = _noop
                            ev.args = ()
                            free_append(ev)
                    else:
                        callback = ev
                        started = perf_counter()
                        callback(entry[3])
                        elapsed = perf_counter() - started
                    kind = getattr(callback, "__qualname__", None) or type(callback).__name__
                    counts[kind] = counts.get(kind, 0) + 1
                    times[kind] = times.get(kind, 0.0) + elapsed
                    batch_kinds.append(kind)
                    processed += 1
                    if (
                        self._stop
                        or (stop_when is not None and stop_when())
                        or processed >= limit
                    ):
                        running = False
                        break
                    if not heap:
                        break
                    entry = heap[0]
                    if entry[0] != ev_time:
                        break
                    ev = entry[2]
                    if ev.__class__ is Event and (ev.cancelled or ev.deadline > ev_time):
                        break
                profiler.record_batch(batch_kinds)
        finally:
            self._running = False
            self.events_processed += processed
            profiler.record_run(processed, perf_counter() - wall_started)
        if until is not None and self.now < until and queue.peek_time() is None:
            self.now = until
        return processed

    def run_until_idle(self, max_events: Optional[int] = None) -> int:
        """Drain the event queue completely."""
        return self.run(until=None, max_events=max_events)

    # -- helpers ---------------------------------------------------------------
    def stream(self, name: str):
        """Named RNG stream (see :class:`repro.sim.rng.RngRegistry`)."""
        return self.rng.stream(name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        pending = len(self.queue) + (len(self._core) if self._core is not None else 0)
        return f"Simulator(now={self.now}, pending={pending})"
