"""The native event core (repro.sim._evcore) against the pure engine.

Two kinds of pinning:

- **Semantics parity**: every engine behaviour (until/max_events/
  request_stop, cancellation, deferred reschedules, exception
  propagation, freelist recycling, light/regular interleaving) runs
  parametrized over both modes and must behave identically.
- **Digest equivalence**: a full scenario simulated natively must hash
  to the same result as the pure-Python run — the bit-for-bit ordering
  guarantee the core's shared sequence counter exists to provide.

Everything native is skipped (not failed) on machines without a working
C toolchain; the engine itself falls back the same way.
"""

from __future__ import annotations

import pytest

from repro.sim import _native
from repro.sim.engine import SimulationError, Simulator

requires_native = pytest.mark.skipif(
    _native.core_factory() is None,
    reason=f"native core unavailable: {_native.status()}",
)

MODES = [
    pytest.param(False, id="pure"),
    pytest.param(True, marks=requires_native, id="native"),
]


@pytest.fixture(params=MODES)
def sim(request) -> Simulator:
    s = Simulator(native=request.param)
    assert s.native is request.param
    return s


class TestModeSelection:
    @requires_native
    def test_default_simulator_is_native_when_available(self):
        assert Simulator().native

    def test_env_optout_forces_pure(self, monkeypatch):
        monkeypatch.setenv(_native.NATIVE_ENV, "0")
        assert not Simulator().native

    def test_checker_and_profiler_pin_pure(self):
        assert not Simulator(validate=True).native
        from repro.telemetry import EngineProfiler

        assert not Simulator(profiler=EngineProfiler()).native

    @requires_native
    def test_explicit_native_with_checker_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(validate=True, native=True)


class TestSemanticsParity:
    def test_interleaved_light_and_regular_order(self, sim):
        seen = []
        sim.schedule(10, seen.append, "r10")
        sim.schedule_light(10, seen.append, "l10")
        sim.schedule(5, seen.append, "r5")
        sim.schedule_light(0, seen.append, "l0")
        sim.schedule_light(5, seen.append, "l5")
        assert sim.run() == 5
        assert seen == ["l0", "r5", "l5", "r10", "l10"]

    def test_fifo_ties_across_kinds_at_one_timestamp(self, sim):
        seen = []
        for i in range(6):
            if i % 2:
                sim.schedule_light(7, seen.append, i)
            else:
                sim.schedule(7, seen.append, i)
        sim.run()
        assert seen == [0, 1, 2, 3, 4, 5]

    def test_until_leaves_future_events_and_advances_clock(self, sim):
        seen = []
        sim.schedule(10, seen.append, 10)
        sim.schedule_light(30, seen.append, 30)
        assert sim.run(until=20) == 1
        assert seen == [10] and sim.now == 20
        sim.run_until_idle()
        assert seen == [10, 30] and sim.now == 30

    def test_until_advances_clock_when_idle(self, sim):
        sim.run(until=500)
        assert sim.now == 500

    def test_max_events_and_events_processed(self, sim):
        for t in range(10):
            sim.schedule_light(t, lambda _a: None, 0)
        assert sim.run(max_events=4) == 4
        assert sim.events_processed == 4
        assert sim.run() == 6

    def test_request_stop_from_callback(self, sim):
        seen = []

        def cb(v):
            seen.append(v)
            if v == 2:
                sim.request_stop()

        for v in range(5):
            sim.schedule_light(v, cb, v)
        sim.run()
        assert seen == [0, 1, 2]

    def test_cancelled_events_skipped_and_recycled(self, sim):
        seen = []
        keep = sim.schedule(10, seen.append, "keep")
        kill = sim.schedule(5, seen.append, "kill")
        sim.cancel(kill)
        sim.run()
        assert seen == ["keep"]
        assert kill in sim.queue._free  # carcass recycled through the freelist
        assert keep in sim.queue._free  # fired handle recycled too

    def test_reschedule_to_its_own_slot_time_orders_like_cancel_and_push(self, sim):
        seen = []
        timer = sim.schedule(5, seen.append, "timer")
        sim.schedule(5, seen.append, "other")
        sim.reschedule(timer, 5, seen.append, "rearmed")
        sim.run()
        assert seen == ["other", "rearmed"]

    def test_reschedule_back_to_a_deferred_slot_time(self, sim):
        # The timer's slot is at t=5 but its deadline was deferred to t=6;
        # moving it back to t=5 must still order it after "other".
        seen = []
        timer = sim.schedule(5, seen.append, "timer")
        sim.schedule(5, seen.append, "other")
        timer = sim.reschedule(timer, 6, seen.append, "deferred")
        sim.schedule_light(1, lambda _a: sim.reschedule(timer, 4, seen.append, "back"), 0)
        sim.run()
        assert seen == ["other", "back"]

    def test_deferred_reschedule_refiles_at_true_deadline(self, sim):
        seen = []
        timer = sim.schedule(10, seen.append, "early")
        sim.schedule_light(5, lambda _a: sim.reschedule(timer, 20, seen.append, "late"), 0)
        sim.schedule_light(15, seen.append, "mid")
        sim.run()
        assert seen == ["mid", "late"]
        assert sim.now == 25  # 5 (reschedule) + 20

    def test_callback_exception_propagates_with_partial_accounting(self, sim):
        seen = []
        sim.schedule_light(1, seen.append, 1)
        sim.schedule(2, self._boom)
        sim.schedule_light(3, seen.append, 3)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert seen == [1]
        assert sim.events_processed == 1  # the raising event is not credited
        sim.run_until_idle()
        assert seen == [1, 3]

    @staticmethod
    def _boom():
        raise RuntimeError("boom")

    def test_nested_scheduling_from_light_callbacks(self, sim):
        seen = []

        def chain(depth):
            seen.append(sim.now)
            if depth:
                sim.schedule_light(5, chain, depth - 1)

        sim.schedule_light(0, chain, 3)
        sim.run_until_idle()
        assert seen == [0, 5, 10, 15]

    def test_zero_delay_light_event_runs_in_same_batch(self, sim):
        seen = []
        sim.schedule_light(10, lambda _a: sim.schedule_light(0, seen.append, "child"), 0)
        sim.schedule(10, seen.append, "sibling")
        sim.run()
        # parent (seq 0) -> sibling (seq 1) -> child (scheduled during the
        # batch, higher seq): exact (time, seq) order in both modes.
        assert seen == ["sibling", "child"]

    def test_shared_sequence_stream_with_direct_queue_push(self, sim):
        seen = []
        sim.queue.push(10, seen.append, ("direct",))
        sim.schedule_light(10, seen.append, "light")
        sim.schedule(10, seen.append, "regular")
        sim.run()
        assert seen == ["direct", "light", "regular"]


@requires_native
class TestDigestEquivalence:
    @pytest.mark.parametrize("protocol", ["dctcp", "dctcp+", "pulser"])
    def test_scenario_results_match_pure(self, protocol, monkeypatch):
        from repro.exec.scenario import ScenarioSpec, run_scenario
        from repro.validate.fuzz import result_digest

        spec = ScenarioSpec.create(protocol, 16, rounds=2, seed=3)
        native = run_scenario(spec)
        monkeypatch.setenv(_native.NATIVE_ENV, "0")
        pure = run_scenario(spec)
        assert result_digest(native) == result_digest(pure)


# -- step boundaries and memory ------------------------------------------------------
@requires_native
def test_native_request_stop_then_resume_drains_the_rest():
    """A control env pauses the native loop with request_stop() at every
    step boundary; the next run() must clear the latch and pick up exactly
    where the stop left off, across both heaps."""
    sim = Simulator(seed=1, native=True)
    seen = []

    def tick(i):
        seen.append(i)
        if i == 2:
            sim.request_stop()

    for i in range(6):
        if i % 2:
            sim.schedule(10 * (i + 1), tick, i)
        else:
            sim.schedule_light(10 * (i + 1), tick, i)
    assert sim.run() == 3
    assert seen == [0, 1, 2] and sim.now == 30
    assert sim.run() == 3
    assert seen == [0, 1, 2, 3, 4, 5]
    assert sim.events_processed == 6


@requires_native
def test_finished_native_simulation_is_collected():
    """The C core, pool, ports, demuxes and receivers are GC-tracked:
    pending light events hold ports and bound methods of components that
    point back at the Simulator, receivers hold their Python half and its
    callbacks, and those cycles must not keep a finished simulation alive —
    not even one stopped with packets still queued and on the wire and a
    receiver holding out-of-order segments."""
    import gc

    from repro.exec.scenario import ScenarioSpec, run_scenario
    from repro.net.topology import topology_builder
    from repro.tcp.receiver import TcpReceiver
    from repro.workloads.incast import IncastWorkload

    def live():
        return {
            id(o)
            for o in gc.get_objects()
            if isinstance(o, Simulator) or type(o).__module__ == "_evcore"
        }

    gc.collect()
    before = live()
    run_scenario(ScenarioSpec.create("dctcp", 16, rounds=2, seed=1))

    spec = ScenarioSpec.create("dctcp", 64, rounds=1, seed=1)
    sim = Simulator(seed=spec.seed)
    tree = topology_builder(spec.topology)(sim, spec.topology_params())
    workload = IncastWorkload(sim, tree, spec.protocol_spec(), spec.incast_config())
    workload.start()
    sim.run(max_events=5_000)
    port = tree.bottleneck_port
    assert len(port.queue) > 0 and port._busy  # stopped mid-burst
    flow, peer, server = 10**6, tree.aggregator.node_id, tree.servers[0]
    receiver = TcpReceiver(
        sim,
        server,
        peer,
        flow,
        expected_bytes=10**6,
        on_data=lambda n: sim.request_stop(),
        on_complete=lambda r: sim.request_stop(),
    )
    pool = sim.pool
    for seq in (2920, 5840):  # two segments past a hole
        receiver.on_packet(pool.alloc_data(flow, peer, server.node_id, seq, 1460, True, False, 0))
    assert type(receiver.on_packet).__name__ == "Receiver" and len(receiver._ooo) == 2
    del sim, tree, workload, port, server, receiver, pool
    gc.collect()
    assert not live() - before


@requires_native
def test_native_incast_runs_no_python_receiver_frames(monkeypatch):
    """Under the native core a plain receiver's segments never enter the
    Python receiver, and the incast's results are the pure engine's."""
    import sys

    from repro.exec.scenario import ScenarioSpec
    from repro.net.topology import topology_builder
    from repro.tcp.receiver import TcpReceiver
    from repro.workloads.incast import IncastWorkload

    spec = ScenarioSpec.create("dctcp", 32, rounds=3, seed=1)

    def run():
        sim = Simulator(seed=spec.seed)
        tree = topology_builder(spec.topology)(sim, spec.topology_params())
        workload = IncastWorkload(sim, tree, spec.protocol_spec(), spec.incast_config())
        workload.run_to_completion(max_events=spec.max_events)
        return sim, workload.rounds

    watched = {
        getattr(TcpReceiver, name).__code__: name
        for name in ("on_packet", "_buffer", "_advance", "_ack_policy", "_send_ack")
    }
    calls = {name: 0 for name in watched.values()}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls[watched[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        sim, native_rounds = run()
    finally:
        sys.setprofile(None)
    assert sim.native
    assert calls == {name: 0 for name in watched.values()}

    monkeypatch.setenv(_native.NATIVE_ENV, "0")
    sim, pure_rounds = run()
    assert not sim.native
    assert len(native_rounds) == 3
    assert native_rounds == pure_rounds
