"""repro.chaos — deterministic infrastructure fault injection.

The simulator's whole premise (Mukherjee et al., ISCA 2002) is that
transient faults are inevitable and systems must detect and recover
from them.  This package turns that discipline on the repo's *own*
infrastructure: a seeded :class:`ChaosPlan` of ``(site, trigger,
fault)`` rules drives lightweight :func:`chaos_point` hooks threaded
through the campaign engine, the artifact store, and the serve layer,
injecting worker crashes, stalls, torn writes, disk errors, and
connection resets on a schedule that is a pure function of the plan
seed — so every chaos run is replayable, and the resilience machinery
(pool rebuild, quarantine, retry/backoff, circuit breaker, graceful
degradation) can be proven to converge to byte-identical artifacts.

With no plan armed, :func:`chaos_point` is a two-instruction no-op.
"""

from repro.chaos.controller import (ChaosController, ChaosEvent, armed,
                                    arm, arm_file, chaos_point,
                                    chaos_point_async, controller, disarm)
from repro.chaos.plan import (FAULT_KINDS, ChaosPlan, ChaosPlanError,
                              ChaosRule, soak_plan)

__all__ = [
    "FAULT_KINDS", "ChaosController", "ChaosEvent", "ChaosPlan",
    "ChaosPlanError", "ChaosRule", "arm", "arm_file", "armed",
    "chaos_point",
    "chaos_point_async", "controller", "disarm", "soak_plan",
]
