"""Benchmark trajectory recording and the CI perf-regression gate.

The repo's benchmarks print throughput figures but, before this layer,
nothing *recorded* them — the bench trajectory across PRs was empty.
Now each benchmark calls :func:`record` with its headline number; when
``REPRO_BENCH_OUT`` names a file the observation is merged into it
(and silently dropped otherwise, so local ``pytest benchmarks/`` runs
pay nothing).

Machine-agnostic normalization: raw ops/sec on a fast box and a slow
CI runner are incomparable, so every output file carries a *host
calibration score* — the throughput of a fixed pure-Python workload
(:func:`calibrate`) measured once per file — and each metric stores
``normalized = raw / calibration`` (rates) or ``raw * calibration``
(wall times).  Two hosts differing only in CPU speed then produce
comparable normalized values, which is what
``benchmarks/baseline.json`` commits and what ``repro obs
bench-check`` compares with a tolerance band (default 25%).

Refresh the committed baseline in one line::

    REPRO_BENCH_OUT=benchmarks/baseline.json python -m pytest \\
        benchmarks/test_campaign_throughput.py \\
        benchmarks/test_flow_analysis.py \\
        benchmarks/test_verify_explore.py \\
        benchmarks/test_cycle_core.py -q -s

The gate's teeth are proven the same way the verify mutation gates
are: ``tests/test_obs_bench.py`` seeds a 2x slowdown into a recorded
file and asserts :func:`compare` (and the CLI exit code) flags it.
"""

import json
import os
import time
from typing import Dict, List, Optional

#: Environment variable naming the output file; unset = no recording.
ENV_OUT = "REPRO_BENCH_OUT"

#: Default regression tolerance: a metric whose normalized value is
#: more than this fraction worse than baseline fails the gate.
DEFAULT_TOLERANCE = 0.25

#: Calibration workload size (dict/arithmetic churn, pure Python).
_CAL_OPS = 50_000
_CAL_REPEATS = 3

#: File-format version (bumped when the JSON shape changes).
BENCH_SCHEMA = 1


def _calibration_round() -> float:
    """One timed round of the fixed workload; returns ops/sec."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(_CAL_OPS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
        if acc & 7 == 0:
            acc ^= table.get((acc >> 3) & 1023, 0)
    elapsed = time.perf_counter() - start
    # `acc` anchors the loop against dead-code elimination by smarter
    # interpreters; fold it into nothing.
    return _CAL_OPS / elapsed if elapsed > 0 else float(_CAL_OPS)


def calibrate() -> float:
    """Host speed score: best-of-N ops/sec of a fixed pure-Python mix.

    Best-of (not mean) because scheduling noise only ever makes a round
    slower; the fastest round is the closest estimate of what the host
    can actually do.
    """
    return max(_calibration_round() for _ in range(_CAL_REPEATS))


def _load(path) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as source:
            data = json.load(source)
    except (FileNotFoundError, json.JSONDecodeError):
        return {}
    return data if isinstance(data, dict) else {}


def record(name: str, ops_per_s: Optional[float] = None,
           wall_s: Optional[float] = None,
           meta: Optional[Dict[str, object]] = None) -> Optional[str]:
    """Record one benchmark observation into ``$REPRO_BENCH_OUT``.

    Exactly one of ``ops_per_s`` (a rate: higher is better) or
    ``wall_s`` (a wall time: lower is better) must be given.  A no-op
    returning ``None`` when the environment variable is unset.  The
    file is read-modify-written whole (benchmarks run sequentially in
    one pytest process; this is a trajectory file, not a database).
    """
    if (ops_per_s is None) == (wall_s is None):
        raise ValueError("record() needs exactly one of ops_per_s/wall_s")
    out = os.environ.get(ENV_OUT)
    if not out:
        return None
    data = _load(out)
    if "calibration" not in data:
        data = {"version": BENCH_SCHEMA, "calibration": calibrate(),
                "metrics": {}}
    calibration = float(data["calibration"])
    if ops_per_s is not None:
        kind, raw = "rate", float(ops_per_s)
        normalized = raw / calibration if calibration else raw
    else:
        kind, raw = "wall", float(wall_s)
        normalized = raw * calibration
    entry: Dict[str, object] = {
        "kind": kind, "raw": round(raw, 6),
        "normalized": round(normalized, 9),
    }
    if meta:
        entry["meta"] = meta
    data.setdefault("metrics", {})[name] = entry
    with open(out, "w", encoding="utf-8") as sink:
        json.dump(data, sink, indent=2, sort_keys=True)
        sink.write("\n")
    return out


def compare(current: Dict[str, object], baseline: Dict[str, object],
            tolerance: float = DEFAULT_TOLERANCE) -> List[Dict[str, object]]:
    """Regressions of ``current`` against ``baseline``.

    Every baseline metric must be present in ``current`` (a silently
    vanished benchmark is itself a regression) and its normalized
    value must be within the tolerance band: rates may not drop more
    than ``tolerance`` below baseline, wall times may not rise more
    than ``tolerance`` above it.  Improvements never fail.
    """
    current_metrics = current.get("metrics") or {}
    findings: List[Dict[str, object]] = []
    for name, base in sorted((baseline.get("metrics") or {}).items()):
        entry = current_metrics.get(name)
        if entry is None:
            findings.append({"metric": name, "kind": base.get("kind"),
                             "error": "missing from current run"})
            continue
        kind = base.get("kind", "rate")
        base_value = float(base.get("normalized", 0.0))
        value = float(entry.get("normalized", 0.0))
        if not base_value:
            continue
        if kind == "rate":
            ratio = value / base_value
            regressed = ratio < 1.0 - tolerance
        else:
            ratio = value / base_value
            regressed = ratio > 1.0 + tolerance
        if regressed:
            findings.append({
                "metric": name, "kind": kind,
                "baseline": round(base_value, 6),
                "current": round(value, 6),
                "ratio": round(ratio, 4),
                "tolerance": tolerance,
            })
    return findings


def check_files(current_path, baseline_path,
                tolerance: float = DEFAULT_TOLERANCE
                ) -> List[Dict[str, object]]:
    """:func:`compare` over two trajectory files (the CLI's core)."""
    current = _load(current_path)
    baseline = _load(baseline_path)
    if not baseline.get("metrics"):
        return [{"metric": "*", "error": f"no baseline metrics in "
                                         f"{baseline_path}"}]
    if not current.get("metrics"):
        return [{"metric": "*", "error": f"no recorded metrics in "
                                         f"{current_path}"}]
    return compare(current, baseline, tolerance)
