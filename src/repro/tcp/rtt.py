"""RFC 6298 round-trip-time estimation.

Maintains SRTT/RTTVAR and derives the retransmission timeout.  Karn's
algorithm (never sample a retransmitted segment) is enforced by the sender,
which only calls :meth:`RttEstimator.add_sample` for clean segments.
"""

from __future__ import annotations

from typing import Optional


class RttEstimator:
    """SRTT/RTTVAR tracker producing RFC 6298 RTO values (integer ns)."""

    __slots__ = (
        "srtt_ns",
        "rttvar_ns",
        "rto_min_ns",
        "rto_max_ns",
        "rto_initial_ns",
        "samples",
        "rto_ns",
    )

    #: RFC 6298 gains: alpha = 1/8, beta = 1/4.
    ALPHA = 0.125
    BETA = 0.25
    #: Clock granularity term G is negligible at ns resolution; RFC's
    #: ``max(G, K*rttvar)`` reduces to ``K*rttvar`` with K = 4.
    K = 4

    def __init__(
        self,
        rto_min_ns: int,
        rto_max_ns: int,
        rto_initial_ns: int,
        seed_rtt_ns: Optional[int] = None,
    ):
        if rto_max_ns < rto_min_ns:
            raise ValueError(f"rto_max_ns {rto_max_ns} is below rto_min_ns {rto_min_ns}")
        self.rto_min_ns = rto_min_ns
        self.rto_max_ns = rto_max_ns
        self.rto_initial_ns = rto_initial_ns
        self.srtt_ns: Optional[float] = None
        self.rttvar_ns: float = 0.0
        self.samples = 0
        #: Current RTO (before exponential backoff), clamped to the bounds;
        #: kept up to date by every sample, so reading it costs nothing.
        self.rto_ns = max(rto_min_ns, min(rto_max_ns, rto_initial_ns))
        if seed_rtt_ns is not None:
            self.add_sample(seed_rtt_ns)

    def add_sample(self, rtt_ns: int) -> None:
        """Fold one clean RTT measurement into the estimator."""
        if rtt_ns < 0:
            raise ValueError(f"negative RTT sample: {rtt_ns}")
        if self.srtt_ns is None:
            self.srtt_ns = float(rtt_ns)
            self.rttvar_ns = rtt_ns / 2.0
        else:
            err = abs(self.srtt_ns - rtt_ns)
            self.rttvar_ns = (1 - self.BETA) * self.rttvar_ns + self.BETA * err
            self.srtt_ns = (1 - self.ALPHA) * self.srtt_ns + self.ALPHA * rtt_ns
        self.samples += 1
        base = int(self.srtt_ns + self.K * self.rttvar_ns)
        self.rto_ns = max(self.rto_min_ns, min(self.rto_max_ns, base))

    def backed_off_rto_ns(self, backoff_exponent: int) -> int:
        """RTO after ``backoff_exponent`` consecutive expirations."""
        if backoff_exponent <= 0:
            return self.rto_ns
        return min(self.rto_max_ns, self.rto_ns << backoff_exponent)
