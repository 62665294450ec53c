"""The native port pump, packet pool and receiver against the Python
references.

Under the native core an ``OutputPort`` over a plain ``DropTailQueue`` is
a C port that owns the queue, the transmitter and the link, arrivals at
switches and hosts are demultiplexed in C, the packet pool allocates and
frees in C, and a plain ``TcpReceiver`` handles its segments in C.  On
the pure engine (what ``REPRO_NATIVE=0`` selects) the same topology runs
the Python pump, pool and receiver.  Both must be indistinguishable from
outside:

- a hypothesis differential drives random small topologies and packet
  programs through both and compares delivery logs, every queue, port and
  link counter, hook call sequences and packet-pool conservation.  Some
  flows end at ``TcpReceiver`` endpoints fed reordered, duplicate,
  overlapping, CE/INC-marked and stray-ACK segments, with callbacks,
  ``expect()``/``close()`` mid-run and pool growth; their ACK streams,
  counters, ledger columns and reassembly buffers are compared too;
- an incast parity test checks the counters of a full Pulser run and that
  hooks installed *after* the ports were built still fire natively.

Native cases are skipped (not failed) where the C core does not build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.faults import drop_nth, make_lossy
from repro.net.host import Host
from repro.net.link import Link
from repro.net.node import Node
from repro.net.pool import F_CE, F_INC, PacketPool, PoolError
from repro.net.switch import Switch
from repro.sim import _native
from repro.sim.engine import Simulator
from repro.tcp.delack import DelayedAckReceiver
from repro.tcp.receiver import TcpReceiver

pytestmark = pytest.mark.skipif(
    _native.core_factory() is None,
    reason=f"native core unavailable: {_native.status()}",
)

QUEUE_COUNTERS = (
    "capacity_bytes",
    "ecn_threshold_bytes",
    "inc_threshold_bytes",
    "occupancy_bytes",
    "enqueued_packets",
    "enqueued_bytes",
    "dequeued_packets",
    "dequeued_bytes",
    "dropped_packets",
    "dropped_bytes",
    "marked_packets",
    "inc_marked_packets",
)
LINK_COUNTERS = ("rate_bps", "prop_delay_ns", "delivered_packets", "delivered_bytes")
RECEIVER_STATE = (
    "data_packets_received",
    "duplicate_packets_received",
    "ce_packets_received",
    "reordered_packets",
    "rcv_nxt",
    "bytes_delivered",
    "expected_bytes",
    "complete",
    "closed",
    "_inc_echo",
)
#: Receiver-flow segments start on multiples of this, so segments of the
#: drawn payload sizes duplicate and partially overlap each other.
SEQ_STEP = 730
#: Packet kinds: plain, CE-marked, INC-marked, both, or a stray ACK.
PLAIN, CE, INC, CE_INC, STRAY_ACK = range(5)
MARKS = {PLAIN: 0, CE: F_CE, INC: F_INC, CE_INC: F_CE | F_INC}


class Sink(Node):
    """A destination that is neither a Switch nor a Host (Python arrival)."""

    __slots__ = ("log",)

    def __init__(self, sim, log):
        super().__init__(sim, "sink")
        self.log = log

    def receive(self, h):
        pool = self.sim.pool
        self.log.append(("sink", self.sim.now, h, pool.flow_id[h], pool.flags[h]))
        pool.free(h)


class Recorder:
    """Flow endpoint: logs what arrives and frees it."""

    __slots__ = ("sim", "name", "log")

    def __init__(self, sim, name, log):
        self.sim = sim
        self.name = name
        self.log = log

    def on_packet(self, h):
        pool = self.sim.pool
        self.log.append(
            (
                self.name,
                self.sim.now,
                h,
                pool.flow_id[h],
                pool.seq[h],
                pool.flags[h],
                pool.ack_seq[h],
                pool.packet_id[h],
            )
        )
        pool.free(h)


@dataclass(frozen=True)
class Program:
    """A topology plus a timed packet schedule and mid-run interventions."""

    n_switches: int
    n_hosts: int
    ecmp_per_packet: Optional[bool]  # two parallel trunks when not None
    buffer_bytes: int
    nic_buffer_bytes: int
    ecn_threshold: Optional[int]
    rates: Tuple[int, ...]  # access, trunk (bps)
    prop_ns: int
    # t, src, dst, payload, ect, seq step (receiver flows), kind
    packets: Tuple[Tuple[int, int, int, int, bool, int, int], ...]
    inc_at: Optional[Tuple[int, int, int]]  # t, port index, threshold
    hooks_at: Optional[Tuple[int, int]]  # t, port index
    splice_at: Optional[Tuple[int, int, Tuple[int, ...]]]  # t, port index, drops
    stop_at: int
    tcp_sources: int  # bit i: flows from host i end at a TcpReceiver
    expected: Optional[int]  # the receivers' initial expected_bytes
    rearm: bool  # on_complete asks for more (a persistent connection)
    expect_at: Optional[Tuple[int, int, int]]  # t, receiver index, bytes
    close_at: Optional[Tuple[int, int]]  # t, receiver index
    ballast_at: Optional[Tuple[int, int]]  # t, hold ns: take every free handle


@st.composite
def programs(draw, receivers_only: bool = False) -> Program:
    """A random program; ``receivers_only`` aims every packet at a host and
    ends every flow between two hosts at a ``TcpReceiver``, with segments
    packed closely enough to overlap, cover and strand each other."""
    n_switches = draw(st.integers(1, 2))
    n_hosts = draw(st.integers(2, 4))
    # Destinations: a host index, n_hosts = the sink, n_hosts + 1 = an
    # unroutable address, n_hosts + 2 = a host flow nobody registered.
    packet = st.tuples(
        st.integers(0, 400_000),
        st.integers(0, n_hosts - 1),
        st.integers(0, n_hosts - 1 if receivers_only else n_hosts + 2),
        st.sampled_from([0, 40, 536, 1460, 1460, 1460]),
        st.booleans(),
        st.integers(0, 6 if receivers_only else 12),
        st.sampled_from([PLAIN, PLAIN, PLAIN, CE, INC, CE_INC, STRAY_ACK]),
    )
    # Receiver flows need a few segments each to reorder and overlap.
    min_packets = 8 if receivers_only else 1
    t_events = st.integers(0, 500_000)
    # Occupancies are sums of wire sizes, so thresholds on those sums probe
    # the strict `occupancy > threshold` comparisons at their boundary.
    thresholds = st.sampled_from([0, 40, 1_500, 3_000]) | st.integers(0, 6_000)
    drops = st.lists(st.integers(0, 8), max_size=3).map(tuple)  # offered-packet indices
    return Program(
        n_switches=n_switches,
        n_hosts=n_hosts,
        ecmp_per_packet=draw(st.none() | st.booleans()) if n_switches == 2 else None,
        buffer_bytes=draw(st.sampled_from([3_000, 6_000, 20_000, 128 * 1024])),
        nic_buffer_bytes=draw(st.sampled_from([4_000, 1024 * 1024])),
        ecn_threshold=draw(st.none() | thresholds),
        rates=(
            draw(st.sampled_from([10**9, 10**10])),
            draw(st.sampled_from([10**9, 4 * 10**8])),
        ),
        prop_ns=draw(st.sampled_from([0, 1_000, 12_000])),
        packets=tuple(sorted(draw(st.lists(packet, min_size=min_packets, max_size=60)))),
        inc_at=draw(st.none() | st.tuples(t_events, st.integers(0, 20), thresholds)),
        hooks_at=draw(st.none() | st.tuples(t_events, st.integers(0, 20))),
        splice_at=draw(st.none() | st.tuples(t_events, st.integers(0, 20), drops)),
        stop_at=draw(st.integers(0, 600_000)),
        tcp_sources=15 if receivers_only else draw(st.integers(0, 15)),
        expected=draw(st.none() | st.sampled_from([0, 1460, 2920, 5000])),
        rearm=draw(st.booleans()),
        expect_at=draw(st.none() | st.tuples(t_events, st.integers(0, 20), st.integers(1, 3000))),
        close_at=draw(st.none() | st.tuples(t_events, st.integers(0, 20))),
        ballast_at=draw(st.none() | st.tuples(t_events, st.integers(0, 200_000))),
    )


def simulate(prog: Program, native: bool):
    """Run ``prog``; returns every observable, keyed by names (not ids)."""
    sim = Simulator(seed=0, validate=False, native=native)
    assert sim.native is native
    pool = PacketPool.of(sim)
    log: List[tuple] = []
    access, trunk = prog.rates
    switches = [
        Switch(sim, f"s{i}", buffer_bytes=prog.buffer_bytes, ecn_threshold_bytes=prog.ecn_threshold)
        for i in range(prog.n_switches)
    ]
    hosts = [Host(sim, f"h{i}") for i in range(prog.n_hosts)]
    sink = Sink(sim, log)
    home = {}
    for i, host in enumerate(hosts):
        sw = switches[i % prog.n_switches]
        home[host] = sw
        host.attach_link(Link(sw, access, prog.prop_ns), nic_buffer_bytes=prog.nic_buffer_bytes)
        sw.add_route(host.node_id, sw.add_port(Link(host, access, prog.prop_ns)))
    sw0 = switches[0]
    sw0.add_route(sink.node_id, sw0.add_port(Link(sink, access, prog.prop_ns)))
    if prog.n_switches == 2:
        a, b = switches
        n_trunks = 1 if prog.ecmp_per_packet is None else 2
        for x, y in ((a, b), (b, a)):
            trunks = [x.add_port(Link(y, trunk, prog.prop_ns)) for _ in range(n_trunks)]
            remote = [h.node_id for h in hosts if home[h] is y]
            if y is a:
                remote.append(sink.node_id)
            for dst in remote:
                if n_trunks == 1:
                    x.add_route(dst, trunks[0])
                else:
                    x.add_ecmp_group(dst, trunks, salt=7, per_packet=prog.ecmp_per_packet)
    ports = [h.nic for h in hosts] + [p for sw in switches for p in sw.ports]
    links = [p.link for p in ports]

    def is_tcp(src, dst):
        return src != dst and prog.tcp_sources >> src & 1

    def on_complete_of(name):
        def on_complete(receiver):
            log.append(("complete", name, sim.now, receiver.rcv_nxt))
            if prog.rearm:
                receiver.expect(1460)

        return on_complete

    # Receiver flows: a TcpReceiver on the destination, and a recorder for
    # its ACKs under the same flow id on the source.
    registered = set()
    receivers: List[TcpReceiver] = []
    for t, src, dst, *_rest in prog.packets:
        if dst < prog.n_hosts and (src, dst) not in registered:
            registered.add((src, dst))
            flow = 1000 + 10 * src + dst
            if is_tcp(src, dst):
                name = f"r{src}{dst}"
                receivers.append(
                    TcpReceiver(
                        sim,
                        hosts[dst],
                        hosts[src].node_id,
                        flow,
                        expected_bytes=prog.expected,
                        on_data=lambda n, name=name: log.append(("data", name, sim.now, n)),
                        on_complete=on_complete_of(name),
                    )
                )
                hosts[src].register_flow(flow, Recorder(sim, f"ack{src}{dst}", log))
            else:
                hosts[dst].register_flow(flow, Recorder(sim, f"h{dst}", log))

    def inject(i):
        t, src, dst, payload, ect, step, kind = prog.packets[i]
        seq = i
        if dst < prog.n_hosts:
            addr, flow = hosts[dst].node_id, 1000 + 10 * src + dst
            if is_tcp(src, dst):
                seq = step * SEQ_STEP
        elif dst == prog.n_hosts:
            addr, flow = sink.node_id, 1
        elif dst == prog.n_hosts + 1:
            addr, flow = 10**9, 2
        else:
            addr, flow = hosts[(src + 1) % prog.n_hosts].node_id, 3
        if kind == STRAY_ACK:
            h = pool.alloc_ack(flow, hosts[src].node_id, addr, seq, False, False, i)
        else:
            h = pool.alloc_data(flow, hosts[src].node_id, addr, seq, payload, ect, False, i)
            pool.flags[h] |= MARKS[kind]
        log.append(("sent", sim.now, i, hosts[src].send(h)))

    if receivers and prog.expect_at is not None:
        t, k, extra = prog.expect_at
        sim.schedule(t, receivers[k % len(receivers)].expect, extra)

    if receivers and prog.close_at is not None:
        t, k = prog.close_at
        sim.schedule(t, receivers[k % len(receivers)].close)

    if prog.ballast_at is not None:
        # Empty the freelist, so the next allocation (often a receiver's
        # ACK) grows the pool mid-run; give the handles back later.
        t, hold = prog.ballast_at
        held = []

        def take():
            while pool._free:
                held.append(pool.alloc_control(0, 0, 0, 64, -2))

        def give_back():
            for h in held:
                pool.free(h)

        sim.schedule(t, take)
        sim.schedule(t + hold, give_back)

    if prog.inc_at is not None:
        t, k, threshold = prog.inc_at
        sim.schedule(t, setattr, ports[k % len(ports)].queue, "inc_threshold_bytes", threshold)

    if prog.hooks_at is not None:
        t, k = prog.hooks_at
        queue = ports[k % len(ports)].queue

        def logger(name):
            def hook(h):
                log.append((name, sim.now, h, pool.flags[h], queue.occupancy_bytes, len(queue)))

            return hook

        def install():
            for name in ("on_drop", "on_mark", "on_enqueue"):
                setattr(queue, name, logger(name))

        sim.schedule(t, install)

    spliced = []
    if prog.splice_at is not None:
        t, k, drops = prog.splice_at
        port = ports[k % len(ports)]

        def splice():
            port.link = make_lossy(port.link, drop_nth(*drops))
            spliced.append(port.link)

        sim.schedule(t, splice)

    # Scheduled after the interventions, so one at the same instant as a
    # packet acts first.
    for i, (t, *_rest) in enumerate(prog.packets):
        sim.schedule(t, inject, i)

    def observe():
        out = {"now": sim.now, "events": sim.events_processed}
        for port in ports:
            q = port.queue
            out[port.name] = (
                tuple(getattr(q, f) for f in QUEUE_COUNTERS),
                len(q),
                port.backlog_bytes,
                port.tx_packets,
                port.tx_bytes,
                bool(port._busy),
            )
        for i, link in enumerate(links + spliced):
            extra = (link.offered_packets, link.injected_drops) if link in spliced else ()
            out[f"link{i}"] = tuple(getattr(link, f) for f in LINK_COUNTERS) + extra
        for node in switches:
            out[node.name] = node.unroutable_drops
        for node in hosts:
            out[node.name] = node.undeliverable_packets
        for receiver in receivers:
            state = tuple(getattr(receiver, f) for f in RECEIVER_STATE)
            out[f"r{receiver.flow_id}"] = state + (list(receiver._ooo.items()),)
        flows = sim.flows
        if flows is not None:
            out["ledger"] = (list(flows.rcv_nxt), list(flows.bytes_delivered))
        out["pool"] = (
            pool.allocated_total,
            pool.freed_total,
            pool.live_count,
            pool.capacity,
            list(pool._free),
            bytes(pool.live),
        )
        out["log"] = list(log)
        return out

    mid = (sim.run(until=prog.stop_at), observe())
    end = (sim.run_until_idle(), observe())
    # A stale handle is refused, and refusing it changes nothing.
    stale = pool.alloc_control(0, 0, 0, 64, -3)
    pool.free(stale)
    try:
        pool.free(stale)
        refused = None
    except PoolError as exc:
        refused = str(exc)
    end[1]["stale_free"] = (refused, pool.freed_total, len(pool._free))
    return mid, end


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(prog=programs())
def test_native_pump_matches_pure_reference(prog):
    check_native_matches_pure(prog)


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(prog=programs(receivers_only=True))
def test_native_receiver_matches_pure_reference(prog):
    check_native_matches_pure(prog)


def check_native_matches_pure(prog):
    (n_mid, n_end), (p_mid, p_end) = simulate(prog, True), simulate(prog, False)
    assert n_mid == p_mid
    assert n_end == p_end
    # Every packet ended somewhere: delivered, dropped, or refused.
    allocated, freed, live = n_end[1]["pool"][:3]
    assert live == 0 and allocated == freed


def test_program_exercises_native_ports():
    """Guard against the differential silently comparing pure with pure."""
    sim = Simulator(validate=False, native=True)
    host, sw = Host(sim, "h"), Switch(sim, "s")
    host.attach_link(Link(sw))
    assert type(host.nic.send).__name__ == "Port"
    assert type(host.nic.link).__name__ == "_PortLink"
    assert type(host.nic.queue).__name__ == "_PortQueue"
    assert type(sim.pool).__name__ == "_NativePool"
    assert type(sim.pool.free).__qualname__ == "builtin_function_or_method"
    receiver = TcpReceiver(sim, host, 99, 1)
    assert type(receiver).__name__ == "_NativeReceiver"
    assert type(receiver.on_packet).__name__ == "Receiver"
    assert host._dispatch[1] is receiver.on_packet


def test_delayed_ack_receiver_stays_python_under_the_native_core():
    sim = Simulator(validate=False, native=True)
    host, sw = Host(sim, "h"), Switch(sim, "s")
    host.attach_link(Link(sw))
    receiver = DelayedAckReceiver(sim, host, 99, 1)
    assert type(receiver) is DelayedAckReceiver
    assert host._dispatch[1] == receiver.on_packet  # the Python bound method


def test_native_pool_lifecycle_matches_python_pool():
    """LIFO reuse, growth by in-place doubling, the totals and the
    double-free error: the C pool and the Python pool, call for call."""
    results = []
    for native in (True, False):
        pool = PacketPool.of(Simulator(validate=False, native=native))
        flags, wire = pool.flags, pool.wire_bytes
        trace = []
        handles = [pool.alloc_data(1, 2, 3, i, 1460, i % 3, i % 2, i) for i in range(300)]
        for h in handles[::3]:
            pool.free(h)
        handles += [pool.alloc_ack(4, 5, 6, 7, True, False, 8) for _ in range(150)]
        handles.append(pool.alloc_control(flow_id=9, src=1, dst=2, wire_bytes=77, packet_id=3))
        pool.free(handles[-1])
        with pytest.raises(PoolError, match="double free") as exc:
            pool.free(handles[-1])
        trace.append(str(exc.value))
        with pytest.raises(TypeError):
            pool.alloc_control(1, 2, 3, 4)
        assert pool.flags is flags and pool.wire_bytes is wire
        columns = [list(getattr(pool, c)) for c in ("flow_id", "seq", "payload_len", "ack_seq")]
        results.append(
            (
                handles,
                trace,
                columns,
                list(pool.wire_bytes),
                list(pool.packet_id),
                bytes(pool.flags),
                bytes(pool.live),
                list(pool._free),
                pool.capacity,
                pool.allocated_total,
                pool.freed_total,
            )
        )
    assert results[0] == results[1]
    assert results[0][8] == 512  # grew by doubling


def test_queue_methods_on_a_port_owned_queue():
    """``enqueue``/``dequeue``/``len``/iteration keep working on a queue
    whose state the native port owns, exactly as on the Python queue."""
    results = []
    for native in (True, False):
        sim = Simulator(validate=False, native=native)
        pool = PacketPool.of(sim)
        host, sw = Host(sim, "h"), Switch(sim, "s")
        host.attach_link(Link(sw), nic_buffer_bytes=3_200)
        q = host.nic.queue
        q.ecn_threshold_bytes = 1_000
        handles = [pool.alloc_data(1, 0, 0, i, 1460, True, False, i) for i in range(3)]
        admitted = [q.enqueue(h) for h in handles]  # the third overflows
        queued = list(q._queue)
        first = q.dequeue()
        results.append(
            (admitted, queued, first, len(q), q.is_empty, [pool.flags[h] for h in queued])
            + tuple(getattr(q, f) for f in QUEUE_COUNTERS)
        )
    assert results[0] == results[1]
    assert results[0][:5] == ([True, True, False], handles[:2], handles[0], 1, False)


def test_spliced_link_keeps_its_counters_and_the_frame_on_the_wire():
    """``port.link = ...`` mid-flight: the frame being serialized leaves
    through the new link, and the old link keeps what it delivered."""
    results = []
    for native in (True, False):
        sim = Simulator(validate=False, native=native)
        pool = PacketPool.of(sim)
        log = []
        a, b = Host(sim, "a"), Host(sim, "b")
        b.register_flow(5, Recorder(sim, "b", log))
        a.attach_link(Link(b, 10**9, 1_000))
        old = a.nic.link
        for i in range(3):
            a.send(pool.alloc_data(5, a.node_id, b.node_id, i, 1460, True, False, i))
        sim.run(until=20_000)  # first frame delivered, second on the wire
        a.nic.link = make_lossy(old, drop_nth(0))
        sim.run_until_idle()
        new = a.nic.link
        results.append(
            (
                log,
                (old.delivered_packets, old.delivered_bytes, old.prop_delay_ns),
                (new.delivered_packets, new.offered_packets, new.injected_drops),
                (a.nic.tx_packets, pool.live_count),
            )
        )
        assert type(old) is Link
    assert results[0] == results[1]
    log, old_counts, new_counts, _ = results[0]
    assert old_counts[0] == 1 and new_counts == (1, 2, 1)
    assert [entry[4] for entry in log] == [0, 2]


# -- incast parity and late hooks -------------------------------------------------
def run_pulser_incast(native: bool):
    """A Pulser incast on the two-tier tree with a tracer, plus a high-water
    observer installed after construction; returns (counters, observations)."""
    from repro.exec.scenario import ScenarioSpec
    from repro.net.topology import topology_builder
    from repro.telemetry import Tracer
    from repro.telemetry.observe import QueueHighWater
    from repro.workloads.incast import IncastWorkload

    spec = ScenarioSpec.create("pulser", 48, rounds=3, seed=2)
    tracer = Tracer()
    sim = Simulator(seed=spec.seed, validate=False, tracer=tracer, native=native)
    assert sim.native is native
    tree = topology_builder(spec.topology)(sim, spec.topology_params())
    protocol_spec = spec.protocol_spec()
    protocol_spec.install_network(tree)  # Pulser: inc_threshold_bytes, post-build
    bottleneck = tree.bottleneck_port
    watcher = QueueHighWater(bottleneck.queue)  # on_enqueue, post-build
    workload = IncastWorkload(sim, tree, protocol_spec, spec.incast_config())
    workload.run_to_completion(max_events=spec.max_events)

    counters = {}
    nics = [h.nic for h in [tree.aggregator, *tree.servers]]
    for port in nics + [p for sw in [tree.root, *tree.leaves] for p in sw.ports]:
        q = port.queue
        counters[port.name] = (
            q.dropped_packets,
            q.marked_packets,
            q.inc_marked_packets,
            q.occupancy_bytes,
            len(q),
            q.enqueued_packets,
            q.enqueued_bytes,
            q.dequeued_packets,
            q.dequeued_bytes,
            port.tx_packets,
            port.tx_bytes,
            port.link.delivered_packets,
            port.link.delivered_bytes,
        )
    kinds = {}
    for rec in tracer.records:
        kinds[rec.kind] = kinds.get(rec.kind, 0) + 1
    observed = {
        "events": sim.events_processed,
        "highwater": watcher.peak,
        "trace": kinds,
        "bottleneck_inc": bottleneck.queue.inc_marked_packets,
    }
    return counters, observed


def test_incast_counters_and_late_hooks_match_pure():
    native_counters, native_obs = run_pulser_incast(True)
    pure_counters, pure_obs = run_pulser_incast(False)
    assert native_counters == pure_counters
    assert native_obs == pure_obs
    # The three late hooks really fired natively: a pump that copied the
    # queue's hooks and thresholds at construction would read zero here.
    assert native_obs["bottleneck_inc"] > 0  # Pulser's inc_threshold_bytes
    assert native_obs["highwater"] > 0  # QueueHighWater's on_enqueue
    assert native_obs["trace"].get("mark", 0) > 0  # tracer's port_created closures
    assert native_obs["trace"].get("queue_hwm", 0) > 0
