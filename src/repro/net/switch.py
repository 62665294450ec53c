"""Output-queued switch with static per-port buffers.

Forwarding is destination-based: the topology builder installs a route for
every reachable host, mapping its node id to one of this switch's output
ports.  Each port owns a *static* (not shared) buffer, matching the paper's
"static 128KB shared buffer in each port" testbed switches: the buffer is
statically partitioned per port, so one congested port cannot borrow from
others.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.engine import Simulator
from .link import Link
from .node import Node
from .pool import PacketPool
from .port import OutputPort
from .queues import DEFAULT_BUFFER_BYTES, DEFAULT_ECN_THRESHOLD, DropTailQueue

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def ecmp_hash(key: int, salt: int) -> int:
    """Seeded 64-bit integer mix (splitmix64 finalizer) used for ECMP.

    Pure arithmetic on explicit inputs: no ``hash()``, no process state,
    so the same (key, salt) picks the same next hop in every process,
    every executor, and under the native event core.
    """
    x = (key * _GOLDEN64 + salt) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def make_ecmp_forward(
    pool: PacketPool,
    ordinals: Dict[int, int],
    ports: Tuple[OutputPort, ...],
    salt: int,
    per_packet: bool,
) -> Callable[[int], bool]:
    """Build the per-destination ECMP forwarding closure.

    ``ordinals`` is the owning switch's flow-normalization table: flow ids
    come from a process-wide counter (their numeric values depend on what
    ran earlier in the process), so the hash keys on the order flows
    *first traverse the switch* — a pure function of the scenario,
    identical across processes, executors and reruns.
    """
    sends = tuple(port.send for port in ports)
    n = len(ports)
    flow_col = pool.flow_id
    if per_packet:
        pid_col = pool.packet_id

        def _forward(
            h: int,
            _sends=sends,
            _n=n,
            _salt=salt,
            _flow=flow_col,
            _pid=pid_col,
            _ord=ordinals,
            _mix=ecmp_hash,
        ) -> bool:
            fid = _flow[h]
            o = _ord.get(fid)
            if o is None:
                o = _ord[fid] = len(_ord)
            # Packet ids come from the per-simulator counter, so the spray
            # sequence replays exactly for a given scenario seed.
            return _sends[_mix((o << 32) + _pid[h], _salt) % _n](h)

    else:

        def _forward(
            h: int,
            _sends=sends,
            _n=n,
            _salt=salt,
            _flow=flow_col,
            _ord=ordinals,
            _mix=ecmp_hash,
        ) -> bool:
            fid = _flow[h]
            o = _ord.get(fid)
            if o is None:
                o = _ord[fid] = len(_ord)
            return _sends[_mix(o, _salt) % _n](h)

    return _forward


class Switch(Node):
    """ECN-capable output-queued switch."""

    __slots__ = (
        "ports",
        "pool",
        "_dst_col",
        "_pool_free",
        "_routes",
        "_sends",
        "_sends_get",
        "_ecmp",
        "_flow_ord",
        "buffer_bytes",
        "ecn_threshold_bytes",
        "unroutable_drops",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str = "",
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        ecn_threshold_bytes: Optional[int] = DEFAULT_ECN_THRESHOLD,
    ):
        super().__init__(sim, name)
        self.ports: List[OutputPort] = []
        self.pool = PacketPool.of(sim)
        # Bound once: the route lookup runs for every forwarded packet.
        self._dst_col = self.pool.dst
        self._pool_free = self.pool.free
        self._routes: Dict[int, OutputPort] = {}
        # Forwarding table: destination -> the route port's send, so the
        # hop is one dict probe + one call (native ports demux it in C off
        # this same live dict).  Kept in lockstep with _routes by add_route.
        self._sends: Dict[int, Callable[[int], bool]] = {}
        self._sends_get = self._sends.get
        # ECMP groups: destination -> the tuple of equal-cost candidate
        # ports (empty dict on single-path switches; the fast path above
        # is untouched unless add_ecmp_group installs a selector).
        self._ecmp: Dict[int, Tuple[OutputPort, ...]] = {}
        # Per-switch flow normalization for the ECMP hash: the process-wide
        # flow-id counter depends on what ran earlier in the process, so the
        # hash keys on the order flows *first traverse this switch* — a pure
        # function of the scenario, identical across processes and reruns.
        self._flow_ord: Dict[int, int] = {}
        self.buffer_bytes = buffer_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.unroutable_drops = 0

    def add_port(self, link: Link, name: str = "") -> OutputPort:
        """Attach an egress link behind a fresh static buffer."""
        queue = DropTailQueue(self.buffer_bytes, self.ecn_threshold_bytes, pool=self.pool)
        port = OutputPort(self.sim, link, queue, name or f"{self.name}:p{len(self.ports)}")
        self.ports.append(port)
        return port

    def add_route(self, dst_node_id: int, port: OutputPort) -> None:
        """Install a destination-based forwarding entry."""
        if port not in self.ports:
            raise ValueError(f"port {port.name!r} does not belong to switch {self.name!r}")
        self._routes[dst_node_id] = port
        self._sends[dst_node_id] = port.send
        self._ecmp.pop(dst_node_id, None)

    def add_ecmp_group(
        self,
        dst_node_id: int,
        ports: Sequence[OutputPort],
        salt: int,
        per_packet: bool = False,
    ) -> None:
        """Install an equal-cost multipath entry for one destination.

        ``ports`` are the candidate next hops; ``salt`` seeds the hash (the
        topology builders draw it from a named simulator stream, so path
        assignment is a pure function of the scenario seed).  The default
        flow-level mode pins each flow to one candidate — the classic
        per-flow ECMP that keeps a flow's segments in order.  ``per_packet``
        sprays individual packets instead (packet-level ECMP), which is
        deliberately reordering-prone; the TCP receiver's reassembly buffer
        absorbs it and counts ``reordered_packets``.
        """
        ports = tuple(ports)
        if not ports:
            raise ValueError("an ECMP group needs at least one port")
        for port in ports:
            if port not in self.ports:
                raise ValueError(
                    f"port {port.name!r} does not belong to switch {self.name!r}"
                )
        if len(ports) == 1:
            self.add_route(dst_node_id, ports[0])
            return
        self._ecmp[dst_node_id] = ports
        self._routes.pop(dst_node_id, None)
        self._sends[dst_node_id] = make_ecmp_forward(
            self.pool, self._flow_ord, ports, salt, per_packet
        )

    def route_for(self, dst_node_id: int) -> Optional[OutputPort]:
        return self._routes.get(dst_node_id)

    def ecmp_candidates(self, dst_node_id: int) -> Optional[Tuple[OutputPort, ...]]:
        """The equal-cost candidate set for a destination (None if the
        destination has a plain single route or no route at all)."""
        return self._ecmp.get(dst_node_id)

    def receive(self, h: int) -> None:
        send = self._sends_get(self._dst_col[h])
        if send is None:
            # Mirrors a real switch's behaviour for an unknown unicast
            # destination with learning disabled: count, drop, free.
            self.unroutable_drops += 1
            self._pool_free(h)
            return
        send(h)
