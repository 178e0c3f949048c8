"""Engine B: synthetic modules per rule, contract parsing, pragma
suppression, and the acceptance check that the shipped tree is clean."""

import textwrap

from repro.verify.lockset import (LOCKSET_TARGETS, Contract,
                                  analyze_lockset, analyze_modules,
                                  analyze_source)


def analyze(source, rel="serve/example.py"):
    return analyze_source(textwrap.dedent(source), rel)


def rules_of(findings):
    return sorted({f.rule for f in findings})


GUARDED = '''
import threading

class Counter:
    """A counter.

    Concurrency:
        guarded-by _lock: value
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def bump(self):
        with self._lock:
            self.value += 1
'''


class TestContractParsing:
    def test_guarded_by(self):
        contract = Contract.from_docstring(
            "X.\n\nConcurrency:\n    guarded-by _lock: a, b\n")
        assert contract.declared
        assert contract.guards == {"a": "_lock", "b": "_lock"}

    def test_all_entry_kinds_and_merging(self):
        contract = Contract.from_docstring(textwrap.dedent("""\
            X.

            Concurrency:
                guarded-by _lock: a
                guarded-by _other: b
                loop-confined: c, d
                loop-confined: e
                unguarded-ok: f
            """))
        assert contract.guards == {"a": "_lock", "b": "_other"}
        assert contract.loop_confined == {"c", "d", "e"}
        assert contract.unguarded_ok == {"f"}

    def test_block_ends_at_prose(self):
        contract = Contract.from_docstring(
            "Concurrency:\n    guarded-by _l: a\nOther prose.\n"
            "    guarded-by _l: b\n")
        assert contract.guards == {"a": "_l"}

    def test_no_block(self):
        assert not Contract.from_docstring("Just a docstring.").declared
        assert not Contract.from_docstring(None).declared


class TestS501:
    def test_clean_class(self):
        assert analyze(GUARDED) == []

    def test_unguarded_access_flagged(self):
        bad = '''
import threading

class Counter:
    """C.

    Concurrency:
        guarded-by _lock: value
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def peek(self):
        return self.value
'''
        findings = analyze(bad)
        assert rules_of(findings) == ["S501"]
        assert "guarded-by _lock" in findings[0].message

    def test_init_is_exempt(self):
        # __init__ writes the guarded field without the lock — fine.
        assert analyze(GUARDED) == []

    def test_caller_must_hold_precondition(self):
        src = '''
import threading

class C:
    """C.

    Concurrency:
        guarded-by _lock: value
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def _bump_locked(self):
        """Caller must hold _lock."""
        self.value += 1

    def bump(self):
        with self._lock:
            self._bump_locked()
'''
        assert analyze(src) == []

    def test_injected_lock_recognized(self):
        """A lock handed in through an annotated ``__init__`` parameter
        (the metrics registry's shared-lock idiom) counts as the
        class's lock: guarded accesses under it are clean, and the
        same class without the ``with`` is flagged."""
        clean = '''
import threading

class Metric:
    """M.

    Concurrency:
        guarded-by _lock: value
    """

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self.value = 0

    def bump(self):
        with self._lock:
            self.value += 1

    def _peek_locked(self):
        """Caller must hold `_lock`."""
        return self.value
'''
        assert analyze(clean) == []
        bad = clean.replace("        with self._lock:\n"
                            "            self.value += 1",
                            "        self.value += 1")
        assert rules_of(analyze(bad)) == ["S501"]

    def test_closure_under_lock_starts_unlocked(self):
        # The nested def runs later, without the lock its definer held.
        src = '''
import threading

class C:
    """C.

    Concurrency:
        guarded-by _lock: value
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def later(self):
        with self._lock:
            def peek():
                return self.value
            self.value += 1
        return peek
'''
        findings = analyze(src)
        assert [(f.rule, f.line) for f in findings] == [("S501", 18)]
        assert "(in peek)" in findings[0].message

    def test_undeclared_write_flagged(self):
        src = '''
import threading

class C:
    """C.

    Concurrency:
        guarded-by _lock: value
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def grow(self):
        self.extra = 1
'''
        findings = analyze(src)
        assert rules_of(findings) == ["S501"]
        assert "missing from the class" in findings[0].message

    def test_inference_mode(self):
        src = '''
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0

    def locked(self):
        with self._lock:
            self.n += 1

    def racy(self):
        self.n = 5
'''
        findings = analyze(src)
        assert rules_of(findings) == ["S501"]

    def test_loop_confined_field_in_off_loop_method(self):
        src = '''
import asyncio

class S:
    """S.

    Concurrency:
        loop-confined: jobs
    """

    def __init__(self):
        self.jobs = {}

    def _work(self):
        self.jobs["x"] = 1  # runs on an executor thread

    async def go(self, loop):
        await loop.run_in_executor(None, self._work)
'''
        findings = analyze(src)
        assert rules_of(findings) == ["S501"]
        assert "off-loop" in findings[0].message

    def test_loop_confined_field_via_helper_of_off_loop_method(self):
        src = '''
import asyncio

class S:
    """S.

    Concurrency:
        loop-confined: jobs
    """

    def __init__(self):
        self.jobs = {}

    def _work(self):
        self._record()

    def _record(self):
        self.jobs["x"] = 1  # reached from an executor thread

    async def go(self, loop):
        await loop.run_in_executor(None, self._work)
'''
        findings = analyze(src)
        assert rules_of(findings) == ["S501"]
        assert "_record runs off-loop" in findings[0].message

    def test_off_loop_is_per_class_not_per_method_name(self):
        # Worker ships its own _work; S._work never leaves the loop.
        src = '''
import asyncio

class S:
    """S.

    Concurrency:
        loop-confined: jobs
    """

    def __init__(self):
        self.jobs = {}

    def _work(self):
        self.jobs["x"] = 1


class Worker:
    def _work(self):
        return 1

    async def go(self, loop):
        await loop.run_in_executor(None, self._work)
'''
        assert analyze(src) == []

    def test_guarded_field_in_match_case(self):
        src = '''
import threading

class C:
    """C.

    Concurrency:
        guarded-by _lock: value
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def apply(self, command):
        match command:
            case "reset":
                self.value = 0
            case _:
                with self._lock:
                    self.value += 1
'''
        findings = analyze(src)
        assert [(f.rule, f.line) for f in findings] == [("S501", 18)]

    def test_module_level_globals(self):
        src = '''
"""M.

Concurrency:
    guarded-by _LOCK: _REGISTRY
"""

import threading

_REGISTRY = {}
_LOCK = threading.Lock()


def good(key):
    with _LOCK:
        _REGISTRY[key] = 1


def bad(key):
    return _REGISTRY.get(key)
'''
        findings = analyze(src)
        assert rules_of(findings) == ["S501"]
        assert findings[0].message.startswith("global _REGISTRY")


class TestS502:
    def test_in_class_cycle(self):
        src = '''
import threading

class C:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def one(self):
        with self._a:
            with self._b:
                pass

    def two(self):
        with self._b:
            with self._a:
                pass
'''
        findings = analyze(src)
        assert rules_of(findings) == ["S502"]
        assert "C._a" in findings[0].message
        assert "C._b" in findings[0].message

    def test_consistent_order_is_clean(self):
        src = '''
import threading

class C:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def one(self):
        with self._a:
            with self._b:
                pass

    def two(self):
        with self._a:
            with self._b:
                pass
'''
        assert analyze(src) == []

    def test_multi_item_with_against_nested_reverse(self):
        src = '''
import threading

class C:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def one(self):
        with self._a, self._b:
            pass

    def two(self):
        with self._b:
            with self._a:
                pass
'''
        findings = analyze(src)
        assert rules_of(findings) == ["S502"]
        assert "C._a" in findings[0].message
        assert "C._b" in findings[0].message

    def test_multi_item_with_cycle_of_module_locks(self):
        src = '''
import threading

_A = threading.Lock()
_B = threading.Lock()


def one():
    with _A, _B:
        pass


def two():
    with _B, _A:
        pass
'''
        assert rules_of(analyze(src)) == ["S502"]

    def test_multi_item_with_in_consistent_order_is_clean(self):
        src = '''
import threading

class C:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def one(self):
        with self._a, self._b:
            pass

    def two(self):
        with self._a:
            with self._b:
                pass
'''
        assert analyze(src) == []

    def test_multi_item_with_reentrant_lock_is_clean(self):
        src = '''
import threading

class C:
    def __init__(self):
        self._a = threading.RLock()

    def one(self):
        with self._a, self._a:
            pass
'''
        assert analyze(src) == []

    def test_cross_module_cycle_through_members(self):
        store = '''
import threading

from repro.campaign.engine import Engine

class Store:
    def __init__(self, engine: "Engine"):
        self._slock = threading.Lock()
        self.engine = engine

    def sync(self):
        with self._slock:
            self.engine.kick()
'''
        engine = '''
import threading

from repro.campaign.store import Store

class Engine:
    def __init__(self):
        self._elock = threading.Lock()
        self.store = Store(self)

    def flush(self):
        with self._elock:
            self.store.sync()

    def kick(self):
        with self._elock:
            pass
'''
        findings = analyze_modules([
            ("campaign/store.py", textwrap.dedent(store)),
            ("campaign/engine.py", textwrap.dedent(engine))])
        assert rules_of(findings) == ["S502"]

    def test_self_call_one_level(self):
        src = '''
import threading

class C:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def outer(self):
        with self._a:
            self.inner()

    def inner(self):
        with self._b:
            self.outer2()

    def outer2(self):
        with self._b:
            self.locked_a()

    def locked_a(self):
        with self._a:
            pass
'''
        # a->b (outer holding a calls inner) and b->a (outer2 holding b
        # calls locked_a): cycle through one-level call edges.
        findings = analyze(src)
        assert rules_of(findings) == ["S502"]


    def test_cycle_two_calls_down(self):
        src = '''
import threading

class C:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def outer(self):
        with self._a:
            self.middle()

    def middle(self):
        self.inner()

    def inner(self):
        with self._b:
            pass

    def reverse(self):
        with self._b:
            with self._a:
                pass
'''
        findings = analyze(src)
        assert rules_of(findings) == ["S502"]
        assert "C._a" in findings[0].message
        assert "C._b" in findings[0].message

    def test_cycle_through_module_function_call(self):
        src = '''
import threading

_A = threading.Lock()
_B = threading.Lock()


def take_b():
    with _B:
        pass


def one():
    with _A:
        take_b()


def two():
    with _B:
        with _A:
            pass
'''
        findings = analyze(src)
        assert rules_of(findings) == ["S502"]
        assert "serve/example.py::_A" in findings[0].message

class TestS503:
    def test_blocking_calls_under_lock(self):
        src = '''
import threading
import time

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.evt = threading.Event()

    def bad(self, worker):
        with self._lock:
            self.evt.wait()
            time.sleep(0.1)
            worker.join()
'''
        findings = analyze(src)
        assert [f.rule for f in findings] == ["S503", "S503", "S503"]

    def test_condition_wait_on_held_condition_is_clean(self):
        src = '''
import threading

class C:
    def __init__(self):
        self._cond = threading.Condition()

    def waiter(self):
        with self._cond:
            self._cond.wait()
'''
        assert analyze(src) == []

    def test_str_join_not_flagged(self):
        src = '''
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()

    def render(self, parts):
        with self._lock:
            return ", ".join(parts)
'''
        assert analyze(src) == []

    def test_queue_get_under_lock(self):
        src = '''
import threading
from queue import Queue

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.inbox = Queue()

    def bad(self):
        with self._lock:
            return self.inbox.get()
'''
        findings = analyze(src)
        assert rules_of(findings) == ["S503"]

    def test_dict_get_not_flagged(self):
        src = '''
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.table = {}

    def fine(self):
        with self._lock:
            return self.table.get("k")
'''
        assert analyze(src) == []


class TestSuppression:
    def test_line_pragma(self):
        src = '''
import threading

class C:
    """C.

    Concurrency:
        guarded-by _lock: value
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def peek(self):
        return self.value  # simlint: disable=S501
'''
        assert analyze(src) == []

    def test_file_pragma(self):
        src = '''
# simlint: disable-file=S501
import threading

class C:
    """C.

    Concurrency:
        guarded-by _lock: value
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def peek(self):
        return self.value

    def poke(self):
        self.value = 9
'''
        assert analyze(src) == []


class TestShippedTree:
    def test_targets_exist(self):
        from repro.analysis.simlint import package_root
        base = package_root()
        for rel in LOCKSET_TARGETS:
            assert (base / rel).exists(), rel

    def test_shipped_tree_is_clean(self):
        """Acceptance: `repro verify lockset --strict` exits 0."""
        findings = analyze_lockset()
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_shipped_tree_declares_contracts(self):
        # The serve stack must actually declare its discipline — an
        # empty analysis must come from checked contracts, not from
        # nothing to check.
        from repro.analysis.simlint import package_root
        base = package_root()
        for rel in ("serve/scheduler.py", "serve/cache.py",
                    "serve/client.py"):
            assert "Concurrency:" in (base / rel).read_text(
                encoding="utf-8"), rel
