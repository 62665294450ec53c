"""Differential property test: every dispatch mode runs a program identically.

Hypothesis draws small engine programs — ``schedule``, ``schedule_light``,
``at``, ``cancel``, ``reschedule`` and partial ``run(until=..., max_events=...)``
resumes, with callbacks that nest zero-delay events, cancel or re-arm other
timers, call ``request_stop`` or raise — and runs each one on a fresh
simulator per dispatch mode: the native core (when it builds), the plain
pure loop, and the pure loop carrying the checker's probe, the profiler's
probe, or both.  Every mode must produce the same dispatch log and the
same ``now``, ``events_processed`` and pending-event count after every run.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim import _native
from repro.sim.engine import Simulator
from repro.telemetry import EngineProfiler

MODES = {
    "pure": lambda: Simulator(validate=False, native=False),
    "validated": lambda: Simulator(validate=True),
    "profiled": lambda: Simulator(validate=False, profiler=EngineProfiler()),
    "validated+profiled": lambda: Simulator(validate=True, profiler=EngineProfiler()),
}
if _native.core_factory() is not None:
    MODES["native"] = lambda: Simulator(validate=False, native=True)

REACTIONS = ("none", "nest", "nest_light", "stop", "raise", "cancel", "reschedule")
DELAY = st.integers(min_value=0, max_value=6)
REACTION = st.sampled_from(REACTIONS)
SLOT = st.integers(min_value=0, max_value=15)
OP = st.one_of(
    st.tuples(st.just("schedule"), DELAY, REACTION),
    st.tuples(st.just("light"), DELAY, REACTION),
    st.tuples(st.just("at"), DELAY, REACTION),
    st.tuples(st.just("cancel"), SLOT),
    st.tuples(st.just("reschedule"), SLOT, DELAY, REACTION),
    st.tuples(
        st.just("run"),
        st.none() | st.integers(min_value=0, max_value=8),
        st.none() | st.integers(min_value=0, max_value=6),
    ),
)


class Boom(Exception):
    """Raised by a callback whose reaction is ``raise``."""


class Program:
    """Replays one drawn program on one simulator, logging what it sees.

    Handles live in ``slots``; a slot is cleared when its event fires or is
    cancelled, so no handle is used after it stops being pending (handles
    are single-use, and fired ones are recycled).
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.slots: list = []
        self.log: list = []
        self.tags = 0

    def _tag(self) -> int:
        self.tags += 1
        return self.tags

    def _slot(self, k: int):
        return k % len(self.slots) if self.slots else None

    def schedule(self, delay: int, reaction: str, at: bool = False) -> None:
        slot = len(self.slots)
        self.slots.append(None)
        args = (self.fire, slot, self._tag(), reaction)
        sim = self.sim
        self.slots[slot] = sim.at(sim.now + delay, *args) if at else sim.schedule(delay, *args)

    def light(self, delay: int, reaction: str) -> None:
        self.sim.schedule_light(delay, self.fire_light, (self._tag(), reaction))

    def cancel(self, k: int) -> None:
        slot = self._slot(k)
        if slot is not None:
            self.sim.cancel(self.slots[slot])
            self.slots[slot] = None

    def reschedule(self, k: int, delay: int, reaction: str) -> None:
        slot = self._slot(k)
        if slot is not None:
            self.slots[slot] = self.sim.reschedule(
                self.slots[slot], delay, self.fire, slot, self._tag(), reaction
            )

    def fire(self, slot: int, tag: int, reaction: str) -> None:
        self.slots[slot] = None
        self.react("regular", tag, reaction)

    def fire_light(self, arg: tuple) -> None:
        self.react("light", *arg)

    def react(self, kind: str, tag: int, reaction: str) -> None:
        self.log.append((self.sim.now, kind, tag, reaction))
        if reaction == "nest":
            self.schedule(0, "none")
        elif reaction == "nest_light":
            self.light(0, "none")
        elif reaction == "stop":
            self.sim.request_stop()
        elif reaction == "raise":
            raise Boom(tag)
        elif reaction == "cancel":
            self.cancel(tag)
        elif reaction == "reschedule":
            self.reschedule(tag, tag % 4, "none")

    def run(self, until, max_events) -> bool:
        """One ``sim.run`` call; False when a callback raised out of it."""
        sim = self.sim
        bound = None if until is None else sim.now + until
        try:
            returned = sim.run(until=bound, max_events=max_events)
        except Boom as exc:
            returned = f"raised {exc}"
        self.log.append(("run", returned, sim.now, sim.events_processed, pending(sim)))
        return not isinstance(returned, str)

    def play(self, ops) -> list:
        for op in ops:
            name, *params = op
            if name == "schedule":
                self.schedule(*params)
            elif name == "light":
                self.light(*params)
            elif name == "at":
                self.schedule(*params, at=True)
            elif name == "cancel":
                self.cancel(*params)
            elif name == "reschedule":
                self.reschedule(*params)
            else:
                self.run(*params)
        # Drain what is left; each raising callback interrupts the drain
        # and is consumed by it, so this terminates.
        while not self.run(None, None):
            pass
        return self.log


def pending(sim: Simulator) -> int:
    """Live events, counting the native core's light-event heap too."""
    return len(sim.queue) + (len(sim._core) if sim._core is not None else 0)


@settings(max_examples=1000, deadline=None)
@given(ops=st.lists(OP, max_size=40))
def test_every_dispatch_mode_runs_a_program_identically(ops):
    logs = {}
    for mode, make in MODES.items():
        sim = make()
        logs[mode] = Program(sim).play(ops)
        profiler = sim.profiler
        if profiler is not None:
            assert profiler.events == sim.events_processed
            assert sum(profiler.counts.values()) == sim.events_processed
        if sim.checker is not None:
            assert sim.checker.sweeps >= 1
    reference = logs["pure"]
    for mode, log in logs.items():
        assert log == reference, mode
