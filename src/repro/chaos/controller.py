"""The chaos controller: arms a plan and executes fault decisions.

Instrumented infrastructure code calls :func:`chaos_point` at named
sites.  With nothing armed the call is a global load and a ``None``
test — cheap enough to leave compiled into every hot path (the guard
benchmark in ``benchmarks/test_campaign_throughput.py`` holds it under
1% of per-task campaign cost).  With a plan armed, each crossing is
matched against the plan's rules and a firing rule's fault is executed
in place:

========== ==============================================================
crash      ``os._exit(87)`` — an abrupt worker kill (no atexit, no
           flush), exactly what a SIGKILL'd pool process looks like
stall      *deferred* to the crossing wrapper: :func:`chaos_point`
           sleeps with ``time.sleep``, :func:`chaos_point_async` with
           ``asyncio.sleep`` — so a stall injected on the serve path
           slows one request instead of freezing the event loop
disk-full  raises ``OSError(ENOSPC)``
io-error   raises ``OSError(EIO)``
conn-reset raises ``ConnectionResetError``
torn-write *returned* to the site, which writes a deterministic
           partial prefix of its buffer and then raises ``OSError``
========== ==============================================================

Cross-process arming: :func:`arm` exports the plan into the process
environment (``REPRO_CHAOS_PLAN``), so pool workers inherit it whether
the pool forks (module state is copied armed) or spawns (the child
lazily re-arms from the environment on its first crossing).
"""

import asyncio
import os
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.chaos.plan import FAULT_KINDS, ChaosPlan, ChaosPlanError

#: Environment variable carrying the armed plan JSON into child
#: processes (spawn-start pools re-arm from it lazily).
ENV_PLAN = "REPRO_CHAOS_PLAN"

#: Exit status of a chaos-crashed process (distinctive in pool logs).
CRASH_EXIT_CODE = 87


@dataclass(frozen=True)
class ChaosEvent:
    """One fired fault (also the torn-write directive handed to sites)."""

    seq: int
    site: str
    key: Optional[str]
    attempt: int
    fault: str
    rule_index: int
    fraction: float = 0.5  # torn-write tear point, deterministic
    delay_s: float = 0.0   # stall duration the crossing wrapper sleeps

    def tear(self, size: int) -> int:
        """Bytes of a ``size``-byte buffer to write before failing."""
        if size <= 1:
            return size
        return min(size - 1, max(1, int(size * self.fraction)))


class ChaosController:
    """Evaluates an armed plan at every hook crossing."""

    def __init__(self, plan: ChaosPlan) -> None:
        self.plan = plan.validate()
        self.fired: Dict[int, int] = {}   # rule index -> fire count
        self.log: List[ChaosEvent] = []
        self._counters: Dict[str, int] = {}  # keyless-crossing counters

    # -- evaluation --------------------------------------------------------
    def fire(self, site: str, key: Optional[str],
             attempt: int) -> Optional[ChaosEvent]:
        for index in self.plan.matching_rules(site):
            rule = self.plan.rules[index]
            if attempt > rule.max_attempt:
                continue
            if rule.key_pattern is not None:
                if key is None or not re.search(rule.key_pattern, key):
                    continue
            if rule.limit is not None and \
                    self.fired.get(index, 0) >= rule.limit:
                continue
            draw_key = key if key is not None else self._next_count(site)
            if not self.plan.decides(index, site, str(draw_key), attempt):
                continue
            self.fired[index] = self.fired.get(index, 0) + 1
            event = ChaosEvent(
                seq=len(self.log), site=site, key=key, attempt=attempt,
                fault=rule.fault, rule_index=index,
                fraction=self.plan.fraction(index, site, str(draw_key),
                                            attempt),
                delay_s=(rule.delay_s if rule.fault == "stall" else 0.0))
            self.log.append(event)
            # Observability: fired faults show up in /metrics and the
            # `repro metrics` snapshot alongside the serve counters.
            from repro.obs.metrics import registry
            registry().counter(f"chaos.fired.{rule.fault}").inc()
            return self._execute(rule, event)
        return None

    def _next_count(self, site: str) -> str:
        count = self._counters.get(site, 0)
        self._counters[site] = count + 1
        return f"#{count}"

    def _execute(self, rule, event: ChaosEvent) -> Optional[ChaosEvent]:
        if rule.fault == "crash":
            os._exit(CRASH_EXIT_CODE)
        if rule.fault == "stall":
            return event  # the crossing wrapper performs the sleep
        if rule.fault == "torn-write":
            return event  # the site tears its own buffer
        message = (f"chaos[{event.seq}]: {rule.fault} at {event.site}"
                   + (f" key={event.key}" if event.key else ""))
        errno_value = FAULT_KINDS[rule.fault]
        if rule.fault == "conn-reset":
            raise ConnectionResetError(errno_value, message)
        raise OSError(errno_value, message)

    # -- introspection -----------------------------------------------------
    def summary(self) -> Dict[str, object]:
        by_fault: Dict[str, int] = {}
        for event in self.log:
            by_fault[event.fault] = by_fault.get(event.fault, 0) + 1
        return {
            "rules": len(self.plan.rules),
            "fired": len(self.log),
            "by_fault": dict(sorted(by_fault.items())),
        }


# -- module-level arming ---------------------------------------------------

_CONTROLLER: Optional[ChaosController] = None
#: True only when this process was handed a plan through the
#: environment (spawned pool worker) and has not loaded it yet.
_ENV_PENDING = ENV_PLAN in os.environ


def _active_controller() -> Optional[ChaosController]:
    controller = _CONTROLLER
    if controller is None and _ENV_PENDING:
        controller = _arm_from_env()
    return controller


def chaos_point(site: str, key: Optional[str] = None,
                attempt: int = 0) -> Optional[ChaosEvent]:
    """Cross an instrumented site; a no-op unless a plan is armed.

    Returns a :class:`ChaosEvent` only for torn-write faults (the site
    performs the tear); error faults raise, stalls sleep here with
    ``time.sleep``, crashes never return.  Event-loop code must use
    :func:`chaos_point_async` instead, which awaits its stalls.
    """
    controller = _active_controller()
    if controller is None:
        return None
    event = controller.fire(site, key, attempt)
    if event is not None and event.fault == "stall":
        time.sleep(event.delay_s)
        return None
    return event


async def chaos_point_async(site: str, key: Optional[str] = None,
                            attempt: int = 0) -> Optional[ChaosEvent]:
    """:func:`chaos_point` for coroutines: stalls yield to the loop.

    A ``stall`` fault injected on the serve path should model one slow
    request, not a frozen daemon — ``asyncio.sleep`` keeps every other
    connection breathing while this crossing is held.
    """
    controller = _active_controller()
    if controller is None:
        return None
    event = controller.fire(site, key, attempt)
    if event is not None and event.fault == "stall":
        await asyncio.sleep(event.delay_s)
        return None
    return event


def controller() -> Optional[ChaosController]:
    """The armed controller, or None."""
    return _CONTROLLER


def arm(plan: ChaosPlan) -> ChaosController:
    """Arm ``plan`` process-wide (and for future child processes)."""
    global _CONTROLLER, _ENV_PENDING
    _CONTROLLER = ChaosController(plan)
    _ENV_PENDING = False
    os.environ[ENV_PLAN] = plan.to_json()
    return _CONTROLLER


def disarm() -> None:
    """Disarm chaos in this process and stop exporting it to children."""
    global _CONTROLLER, _ENV_PENDING
    _CONTROLLER = None
    _ENV_PENDING = False
    os.environ.pop(ENV_PLAN, None)


def _arm_from_env() -> Optional[ChaosController]:
    global _CONTROLLER, _ENV_PENDING
    _ENV_PENDING = False
    text = os.environ.get(ENV_PLAN)
    if not text:
        return None
    _CONTROLLER = ChaosController(ChaosPlan.from_json(text))
    return _CONTROLLER


def arm_file(path: str) -> int:
    """Arm the plan file at ``path`` for a command's ``--chaos`` flag.

    Prints what it armed and returns 0, or prints ``error: bad chaos
    plan ...`` to stderr and returns 2, the command's exit status.
    """
    try:
        plan = ChaosPlan.load(path)
    except (OSError, ChaosPlanError) as error:
        print(f"error: bad chaos plan {path}: {error}", file=sys.stderr,
              flush=True)
        return 2
    arm(plan)
    print(f"chaos: armed {len(plan.rules)} rule(s) from {path} "
          f"(seed {plan.seed})", flush=True)
    return 0


@contextmanager
def armed(plan: ChaosPlan):
    """``with armed(plan): ...`` — arm for a scope, always disarm."""
    controller = arm(plan)
    try:
        yield controller
    finally:
        disarm()
