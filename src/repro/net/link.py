"""Point-to-point links.

A :class:`Link` is **unidirectional**: it carries frames from one node's
output port to a destination node, modelling serialization delay (frame
bits at the link rate) followed by propagation delay.  Full-duplex cables
are modelled as two independent ``Link`` objects, which matches how the
experiments use them (data one way, ACKs the other, no interference).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from ..sim.engine import Simulator
from ..sim.units import GBPS, transmission_time_ns

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node

#: Paper testbed: GbE links, RTT ~100 us across the 2-tier tree.
DEFAULT_RATE_BPS = GBPS
DEFAULT_PROP_DELAY_NS = 12_000  # 12 us per hop -> ~100 us unloaded RTT


class Link:
    """One direction of a cable: serialization + propagation to ``dst``."""

    __slots__ = (
        "rate_bps",
        "prop_delay_ns",
        "dst",
        "delivered_packets",
        "delivered_bytes",
        "_ser_ns",
        "_wire",
        "_dst_receive",
        "_port",
    )

    def __init__(
        self,
        dst: "Node",
        rate_bps: int = DEFAULT_RATE_BPS,
        prop_delay_ns: int = DEFAULT_PROP_DELAY_NS,
    ):
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        if prop_delay_ns < 0:
            raise ValueError(f"propagation delay must be >= 0, got {prop_delay_ns}")
        self.rate_bps = rate_bps
        self.prop_delay_ns = prop_delay_ns
        self.dst = dst
        self.delivered_packets = 0
        self.delivered_bytes = 0
        #: The native port that owns this link's delays and counters while
        #: attached to it (see repro.net.port), else None.
        self._port = None
        # Traffic uses a handful of frame sizes (full MSS, pure ACK, tail
        # segments), so serialization delays memoize to a tiny dict and the
        # per-packet ceil-division drops out of the hot path.
        self._ser_ns: Dict[int, int] = {}
        # dst may legitimately be None in unit tests that only exercise the
        # delay arithmetic; propagate() would fail on such a link either way.
        if dst is not None:
            from .pool import PacketPool

            self._wire = PacketPool.of(dst.sim).wire_bytes
            self._dst_receive = dst.receive
        else:
            self._wire = None
            self._dst_receive = None

    def serialization_delay(self, wire_bytes: int) -> int:
        """Time to clock ``wire_bytes`` onto the wire, in nanoseconds."""
        delay = self._ser_ns.get(wire_bytes)
        if delay is None:
            delay = self._ser_ns[wire_bytes] = transmission_time_ns(wire_bytes, self.rate_bps)
        return delay

    def propagate(self, sim: Simulator, h: int) -> None:
        """Deliver handle ``h`` to the far end after the propagation delay.

        Called by the output port at the instant serialization completes
        (a native port does this hop in C for a plain link).  The arrival
        is one-shot and never cancelled, so it schedules as a light event.
        """
        self.delivered_packets += 1
        self.delivered_bytes += self._wire[h]
        sim.schedule_light(self.prop_delay_ns, self._dst_receive, h)
