"""Runtime invariant checking and scenario fuzzing.

The paper's argument is an accounting argument — pipeline capacity,
per-port buffers, cwnd floors, timeout taxonomies — and this package is
the layer that proves our simulator's accounts balance on every run, not
just at the handful of points covered by golden digests.

Two entry points:

- :class:`InvariantChecker` — attached via ``Simulator(validate=True)``
  (or ``REPRO_VALIDATE=1``); components register themselves at
  construction and the engine's per-event dispatch probe sweeps the
  conservation laws while the simulation runs.  When not attached the
  hot path pays one ``is None`` test per event (the native core: none).
- ``python -m repro fuzz`` — a seeded scenario fuzzer that draws
  random topologies/protocols/workloads/faults and runs each under full
  checking plus differential (rerun and serial-vs-parallel) comparisons.
"""

from .checker import InvariantChecker, InvariantViolation

__all__ = ["InvariantChecker", "InvariantViolation"]
