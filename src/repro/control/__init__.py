"""repro.control — scripted CC policies and the gym-style control env.

Two public surfaces:

- :class:`ExternalPolicy` + the policy registry: congestion-control
  strategies written against the typed :class:`~repro.tcp.events.CCEvent`
  protocol instead of sender subclassing, resolvable everywhere a
  strategy name flows via ``cc="external:<policy>"``.
- :class:`ControlEnv`: a step/observe/act environment that pauses the
  simulation at controlled flows' window boundaries, yields
  :class:`~repro.telemetry.observe.Observation` snapshots and applies
  :class:`Action` adjustments — deterministic on every dispatch loop,
  and byte-identical to the uncontrolled run when every step is autopilot.
"""

from ..telemetry.observe import Observation, ObservationAssembler, QueueHighWater
from .env import Action, ControlEnv, EnvBridgePolicy
from .external import ExternalPolicySender
from .policies import (
    DctcpPlusScripted,
    DeadlineGreedy,
    ExternalPolicy,
    external_cc,
    get_policy,
    policy_names,
    register_policy,
)

__all__ = [
    "Action",
    "ControlEnv",
    "DctcpPlusScripted",
    "DeadlineGreedy",
    "EnvBridgePolicy",
    "ExternalPolicy",
    "ExternalPolicySender",
    "Observation",
    "ObservationAssembler",
    "QueueHighWater",
    "external_cc",
    "get_policy",
    "policy_names",
    "register_policy",
]
