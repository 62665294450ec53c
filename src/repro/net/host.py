"""End host: a NIC egress queue plus a flow demultiplexer.

Hosts do not route; every outgoing packet goes to the single access link.
Incoming packets are demultiplexed by flow id to a registered endpoint
(TCP sender or receiver).  A flow's sender and receiver live on different
hosts, so both register the same flow id on their own host.

The NIC queue is deliberately generous (default 1 MB, no ECN marking): the
bottleneck in every experiment is a switch port, and a real host backs
pressure into socket buffers rather than dropping on its own NIC.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol

from ..sim.engine import Simulator
from .link import Link
from .node import Node
from .pool import PacketPool
from .port import OutputPort
from .queues import DropTailQueue

DEFAULT_NIC_BUFFER_BYTES = 1024 * 1024


class FlowEndpoint(Protocol):
    """Anything that consumes packets for one flow (sender or receiver).

    ``on_packet`` receives a live pool handle and owns it: the endpoint
    frees it (directly or by forwarding it onward).
    """

    def on_packet(self, h: int) -> None: ...


class Host(Node):
    """A server in the testbed (aggregator or worker)."""

    __slots__ = (
        "nic",
        "pool",
        "_flow_col",
        "_pool_free",
        "_flows",
        "_dispatch",
        "_dispatch_get",
        "undeliverable_packets",
    )

    def __init__(self, sim: Simulator, name: str = ""):
        super().__init__(sim, name)
        self.nic: Optional[OutputPort] = None
        self.pool = PacketPool.of(sim)
        # Bound once: the demux lookup runs for every delivered packet.
        self._flow_col = self.pool.flow_id
        self._pool_free = self.pool.free
        self._flows: Dict[int, FlowEndpoint] = {}
        # Demux table: flow id -> the endpoint's bound on_packet (probed in
        # C by native ports).  Kept in lockstep with _flows by
        # register/unregister (endpoints never rebind on_packet).
        self._dispatch: Dict[int, Callable[[int], None]] = {}
        self._dispatch_get = self._dispatch.get
        self.undeliverable_packets = 0

    def attach_link(self, link: Link, nic_buffer_bytes: int = DEFAULT_NIC_BUFFER_BYTES) -> None:
        """Connect the host's NIC to its access link."""
        queue = DropTailQueue(nic_buffer_bytes, ecn_threshold_bytes=None, pool=self.pool)
        self.nic = OutputPort(self.sim, link, queue, name=f"{self.name}:nic")

    def register_flow(self, flow_id: int, endpoint: FlowEndpoint) -> None:
        """Bind incoming packets of ``flow_id`` to ``endpoint``."""
        if flow_id in self._flows:
            raise ValueError(f"flow {flow_id} already registered on {self.name}")
        self._flows[flow_id] = endpoint
        self._dispatch[flow_id] = endpoint.on_packet

    def unregister_flow(self, flow_id: int) -> None:
        self._flows.pop(flow_id, None)
        self._dispatch.pop(flow_id, None)

    def send(self, h: int) -> bool:
        """Transmit through the NIC; returns False on NIC-queue drop."""
        if self.nic is None:
            raise RuntimeError(f"host {self.name} has no attached link")
        return self.nic.send(h)

    def receive(self, h: int) -> None:
        on_packet = self._dispatch_get(self._flow_col[h])
        if on_packet is None:
            # End of the line for a packet nobody claims: count and free.
            self.undeliverable_packets += 1
            self._pool_free(h)
            return
        on_packet(h)
