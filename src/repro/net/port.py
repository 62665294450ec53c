"""Output port: a drop-tail queue drained onto a link.

The port implements the standard store-and-forward egress pump: when a
packet is admitted to an idle port it begins serializing immediately; when
serialization finishes the frame is handed to the link for propagation and
the next queued frame (if any) starts serializing.  Ports move packet
*handles* (see :mod:`repro.net.pool`), never objects.

There are two pumps with one behaviour:

- :class:`OutputPort` is the plain Python reference: ``send`` calls
  ``queue.enqueue``, serialization-finish calls ``link.propagate`` and
  ``queue.dequeue``.  It runs on the pure-Python engine, and under the
  native core for queue subclasses (the shared-buffer switch), queues
  whose methods were swapped (the validate fuzzer's mutations), and
  queues that already hold packets.
- Everywhere else under the native core, ``OutputPort(...)`` builds a
  :class:`_NativePort`: a C port (``_evcore.Port``) owns the FIFO, the
  admission and ECN/INC marking, the transmitter and the link's delays and
  counters, and *is* the port's ``send``.  Its serialization-finish and
  the arrival it schedules are light events on the core's heap, and
  arrivals at a :class:`~repro.net.switch.Switch` or
  :class:`~repro.net.host.Host` are demultiplexed in C, so a packet only
  re-enters Python at an endpoint's ``on_packet`` and at installed hooks.
  The queue and the plain link read and write their public attributes
  through to the C port for as long as it owns them, so hooks and
  thresholds set after construction (Pulser's ``inc_threshold_bytes``,
  a telemetry ``on_enqueue``) reach it.
"""

from __future__ import annotations

from ..sim.engine import Simulator
from .link import Link
from .queues import DropTailQueue

# Captured at import: a queue still running exactly these methods can hand
# its admission to the native port; a swapped method keeps the Python pump
# so the override stays in the loop.
_PRISTINE_ENQUEUE = DropTailQueue.enqueue
_PRISTINE_DEQUEUE = DropTailQueue.dequeue

#: The queue's and the link's public state, which the native port owns
#: under the same names while it runs their pump.
_QUEUE_STATE = tuple(n for n in DropTailQueue.__slots__ if n[0] != "_" and n != "pool")
_LINK_STATE = tuple(n for n in Link.__slots__ if n[0] != "_" and n != "dst")


class OutputPort:
    """Queue + transmitter for one egress direction.

    Parameters
    ----------
    sim:
        The simulator (owns the clock the pump runs on).
    link:
        The outgoing :class:`Link`; assigning ``port.link`` splices in a
        replacement (e.g. a :class:`~repro.net.faults.FaultyLink`) that
        takes over from the next frame to finish serializing.
    queue:
        Byte-accounted FIFO; ECN marking behaviour is configured there.
    name:
        Identifier used by instrumentation (e.g. ``"switch1->aggregator"``).
    """

    __slots__ = ("sim", "queue", "name", "_link", "_wire", "_busy", "tx_packets", "tx_bytes")

    def __new__(cls, sim: Simulator, link: Link, queue: DropTailQueue, name: str = ""):
        if (
            cls is OutputPort
            and sim._core is not None
            and queue.__class__ is DropTailQueue
            and DropTailQueue.enqueue is _PRISTINE_ENQUEUE
            and DropTailQueue.dequeue is _PRISTINE_DEQUEUE
            and not queue._queue
        ):
            cls = _NativePort
        return object.__new__(cls)

    def __init__(self, sim: Simulator, link: Link, queue: DropTailQueue, name: str = ""):
        self.sim = sim
        self.queue = queue
        self.name = name
        self._wire = queue.pool.wire_bytes
        self._busy = False
        self.tx_packets = 0
        self.tx_bytes = 0
        self._link = link
        self._announce()

    def _announce(self) -> None:
        hooks = self.sim.hooks
        if hooks is not None:
            hooks.port_created(self)

    @property
    def link(self) -> Link:
        return self._link

    @link.setter
    def link(self, link: Link) -> None:
        self._link = link

    @property
    def backlog_bytes(self) -> int:
        """Bytes currently waiting (excludes the frame on the wire)."""
        return self.queue.occupancy_bytes

    def send(self, h: int) -> bool:
        """Admit handle ``h`` to the egress queue; start the pump if idle.

        Returns False when the queue dropped the packet (the handle is
        freed by the queue in that case and must not be used again).
        """
        if not self.queue.enqueue(h):
            return False
        if not self._busy:
            self._start_next()
        return True

    def _start_next(self) -> None:
        h = self.queue.dequeue()
        if h is None:
            self._busy = False
            return
        self._busy = True
        sim = self.sim
        # Serialization-finish is one-shot and never cancelled: a light event.
        delay = self._link.serialization_delay(self._wire[h])
        sim.push_light(sim.now + delay, self._finish_tx, h)

    def _finish_tx(self, h: int) -> None:
        self.tx_packets += 1
        self.tx_bytes += self._wire[h]
        self._link.propagate(self.sim, h)
        self._start_next()


class _NativePort(OutputPort):
    """An :class:`OutputPort` whose pump runs in the native event core.

    ``send`` is the C port itself.  The queue's and the plain link's public
    attributes read through to it (see :class:`_PortQueue` and
    :class:`_PortLink`); ``tx_packets``, ``tx_bytes`` and ``_busy`` here
    do the same.
    """

    __slots__ = ("send",)

    def __init__(self, sim: Simulator, link: Link, queue: DropTailQueue, name: str = ""):
        self.sim = sim
        self.queue = queue
        self.name = name
        pool = queue.pool
        port = self.send = sim._core.port(sim, pool.flags, pool.wire_bytes, pool.free)
        for field in _QUEUE_STATE:
            setattr(port, field, getattr(queue, field))
        # The C port is the queue's FIFO from now on.
        queue._queue = port
        queue.__class__ = _PortQueue
        self._link = None
        self.link = link
        self._announce()

    tx_packets = property(lambda self: self.send.tx_packets)
    tx_bytes = property(lambda self: self.send.tx_bytes)
    _busy = property(lambda self: self.send.busy)

    @property
    def link(self) -> Link:
        return self._link

    @link.setter
    def link(self, link: Link) -> None:
        port = self.send
        old = self._link
        if old is not None and old._port is port:
            # Hand the detached link its counters back.
            state = [getattr(old, field) for field in _LINK_STATE]
            old.__class__ = Link
            old._port = None
            for field, value in zip(_LINK_STATE, state):
                setattr(old, field, value)
        self._link = link
        if link.__class__ is Link and link.dst is not None and link._port is None:
            for field in _LINK_STATE:
                setattr(port, field, getattr(link, field))
            link._port = port
            link.__class__ = _PortLink
            port.arrival = _arrival(self.sim._core, link.dst)
            port.propagate = port.serialize = None
        else:
            # A Link subclass (fault injection) keeps its own hop in Python.
            port.propagate = link.propagate
            port.serialize = link.serialization_delay


def _arrival(core, dst):
    """What the native port schedules when a frame reaches ``dst``."""
    from .host import Host
    from .switch import Switch

    if dst.__class__ is Switch:
        return core.demux(dst._sends, dst._dst_col, dst.receive)
    if dst.__class__ is Host:
        return core.demux(dst._dispatch, dst._flow_col, dst.receive)
    return dst.receive


def _through(owner: str, field: str) -> property:
    """Attribute ``field`` stored on the native port held in slot ``owner``."""

    def get(self):
        return getattr(getattr(self, owner), field)

    def set(self, value):
        setattr(getattr(self, owner), field, value)

    return property(get, set)


class _PortQueue(DropTailQueue):
    """A :class:`DropTailQueue` whose FIFO and state a native port owns."""

    __slots__ = ()

    def enqueue(self, h: int) -> bool:
        return self._queue.enqueue(h)

    def dequeue(self):
        return self._queue.dequeue()


class _PortLink(Link):
    """A plain :class:`Link` whose delays and counters a native port owns."""

    __slots__ = ()


for _field in _QUEUE_STATE:
    setattr(_PortQueue, _field, _through("_queue", _field))
for _field in _LINK_STATE:
    setattr(_PortLink, _field, _through("_port", _field))
del _field
