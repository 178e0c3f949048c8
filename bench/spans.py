"""In-memory span recorder for the traced benchmark run.

Spans are opened by the benchmark's own code around each call into a
layer (``isa.generate``, ``core.warm``, ``serve.request`` ...).  Each
record carries a name, start and end (epoch seconds), its parent span
and a trace id; records stay in memory and are written once, when the
run ends.  Spans the program emits itself (``campaign.chunk`` from pool
workers, ``serve.job.*`` from the daemon) are read back from the
program's span log and joined into the same trace by :func:`join`.

A span's *self time* is its duration minus the part of its interval
that its children cover (overlapping children count once).
"""

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


class SpanRecorder:
    """Collects span records from any number of threads."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.records: List[Dict[str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._count = 0

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Dict[str, object]]:
        """Record the enclosed block; yields its (mutable) attrs dict."""
        stack = self._stack()
        with self._lock:
            self._count += 1
            span_id = f"b{self._count}"
        parent = stack[-1] if stack else None
        start = time.time()
        t0 = time.perf_counter()
        stack.append(span_id)
        ok = False
        try:
            yield attrs
            ok = True
        finally:
            stack.pop()
            record = {"trace": self.trace_id, "span": span_id,
                      "parent": parent, "name": name, "start": start,
                      "end": start + (time.perf_counter() - t0), "ok": ok,
                      "attrs": attrs}
            with self._lock:
                self.records.append(record)


class NullRecorder:
    """The untraced stand-in: same interface, records nothing."""

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Dict[str, object]]:
        yield attrs


def write(path, records: Iterable[Dict[str, object]]) -> None:
    """Write span records as JSON lines, in start order."""
    with open(path, "w", encoding="utf-8") as sink:
        for record in sorted(records, key=lambda r: r["start"]):
            sink.write(json.dumps(record, sort_keys=True) + "\n")


def covered(intervals: Iterable[Tuple[float, float]],
            lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(records: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Span id -> duration minus the coverage of its children."""
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for record in records:
        if record["parent"] is not None:
            children[record["parent"]].append(
                (record["start"], record["end"]))
    return {record["span"]: (record["end"] - record["start"])
            - covered(children[record["span"]], record["start"],
                      record["end"])
            for record in records}


def summarize(records: Sequence[Dict[str, object]]
              ) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total and self seconds."""
    own = self_times(records)
    table: Dict[str, Dict[str, float]] = {}
    for record in records:
        row = table.setdefault(record["name"],
                               {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += record["end"] - record["start"]
        row["self_s"] += own[record["span"]]
    return table


def join(bench: Sequence[Dict[str, object]],
         program: Iterable[Dict[str, object]],
         trace_id: str) -> List[Dict[str, object]]:
    """Convert program span records and hang them under benchmark spans.

    A program span keeps its own parent when it has one.  A program
    root attaches to the benchmark span whose ``link`` attr equals the
    root's trace id (the serve daemon roots each job's trace at the
    job key), else to the innermost benchmark span that contains it in
    time.  Every joined record carries the benchmark's trace id.
    """
    linked = {str(record["attrs"]["link"]): record["span"]
              for record in bench if record["attrs"].get("link")}
    joined: List[Dict[str, object]] = []
    for record in program:
        start = float(record.get("ts") or 0.0)
        end = start + float(record.get("dur_s") or 0.0)
        parent: Optional[str] = None
        if record.get("parent"):
            parent = f"p{record['parent']}"
        else:
            parent = (linked.get(str(record.get("trace")))
                      or _innermost(bench, start, end))
        joined.append({"trace": trace_id, "span": f"p{record['span']}",
                       "parent": parent, "name": record.get("name"),
                       "start": start, "end": end,
                       "ok": record.get("ok", True),
                       "attrs": dict(record.get("attrs") or {},
                                     key=record.get("key"))})
    return joined


#: Slack for containment tests: program span timestamps are rounded to
#: the microsecond, and clocks are read at slightly different moments.
_SLACK_S = 1e-3


def _innermost(bench: Sequence[Dict[str, object]], start: float,
               end: float) -> Optional[str]:
    best = None
    for record in bench:
        if (record["start"] - _SLACK_S <= start
                and end <= record["end"] + _SLACK_S):
            if best is None or record["start"] >= best["start"]:
                best = record
    return best["span"] if best is not None else None
