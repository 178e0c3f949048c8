"""Content-addressed result cache (disk-backed, integrity-sealed).

Entries are keyed by :meth:`JobSpec.cache_key` — the content hash of
the canonical job spec — so the cache *is* the dedupe: two requests
for the same computation land on the same key whether they arrive
concurrently (coalesced upstream by the scheduler), sequentially
(second one served from here), or across daemon restarts (entries are
plain files).

Layout::

    <root>/ab/ab12cd34....json     one JSON entry per key

Each entry stores the spec it answers, the result payload, and a full
SHA-256 seal over the payload's canonical encoding.  ``get`` verifies
the seal and the key binding; an entry that fails either check (torn
write from a pre-atomic crash, bit rot, manual tampering) is **evicted
and reported as a miss** — the caller recomputes, never serves a
corrupt payload.  Writes are write-temp-then-``os.replace`` atomic
with an fsync, mirroring the campaign store's sidecar discipline.

The cache is an accelerator, never a dependency: a write that hits a
disk fault (``ENOSPC``/``EIO``, chaos torn write) is logged and
counted but the job still succeeds — the result simply is not cached —
and a read error degrades to a miss so the scheduler recomputes.
"""

import errno
import json
import logging
import os
import tempfile
import threading
from pathlib import Path
from typing import Dict, Optional

from repro.chaos import chaos_point
from repro.serve.jobs import JobSpec
from repro.util.canonical import canonical_json, payload_digest

run_log = logging.getLogger("repro.run")

ENTRY_VERSION = 1


class ResultCache:
    """On-disk content-addressed store for finished job payloads.

    Called from executor worker threads (scheduler hit-probes and
    post-run seals) concurrently with loop-side ``stats()`` reads, so
    the counters share one lock; entry files themselves need none —
    writes are single-``os.replace`` atomic and reads reseal-verify.

    Concurrency:
        guarded-by _lock: hits, misses, evictions, write_errors
        unguarded-ok: root
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.write_errors = 0

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- read --------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The cached result for ``key``, or None (miss).

        A corrupt or mismatched entry counts as a miss *and* is evicted
        so the recomputation can overwrite it cleanly.
        """
        path = self.path(key)
        if not path.exists():
            with self._lock:
                self.misses += 1
            return None
        try:
            chaos_point("serve.cache.get", key=key)
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except json.JSONDecodeError:
            self._evict_corrupt(path)
            return None
        except OSError:
            # Transient read fault: degrade to a miss (recompute) but
            # keep the entry — the bytes on disk may be fine.
            with self._lock:
                self.misses += 1
            return None
        if not self._entry_valid(key, entry):
            self._evict_corrupt(path)
            return None
        with self._lock:
            self.hits += 1
        return entry["result"]

    @staticmethod
    def _entry_valid(key: str, entry: object) -> bool:
        if not isinstance(entry, dict):
            return False
        if entry.get("entry_version") != ENTRY_VERSION:
            return False
        if entry.get("key") != key or "result" not in entry:
            return False
        return entry.get("sha256") == payload_digest(entry["result"])

    def _evict_corrupt(self, path: Path) -> None:
        with self._lock:
            self.misses += 1
            self.evictions += 1
        try:
            path.unlink()
        except OSError:
            pass  # already gone, or unlinkable — recompute regardless

    # -- write -------------------------------------------------------------
    def put(self, spec: JobSpec, result: Dict[str, object]) -> str:
        """Seal and store ``result`` under ``spec``'s key; returns it.

        The cache is best-effort: a disk fault during the write is
        swallowed (counted in ``write_errors``, logged once per
        incident) so the job that computed ``result`` still succeeds.
        A chaos torn write leaves a partial entry at the *final* path —
        deliberately, to exercise the seal check — which the next
        ``get`` detects and evicts.
        """
        key = spec.cache_key()
        try:
            self._put_sealed(key, spec, result)
        except OSError as error:
            with self._lock:
                self.write_errors += 1
            run_log.warning(
                "result cache: write for %s failed (%s); serving "
                "uncached", key[:12], error)
        return key

    def _put_sealed(self, key: str, spec: JobSpec,
                    result: Dict[str, object]) -> None:
        entry = {
            "entry_version": ENTRY_VERSION,
            "key": key,
            "spec": spec.to_dict(),
            "sha256": payload_digest(result),
            "result": result,
        }
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fault = chaos_point("serve.cache.put", key=key)
        if fault is not None and fault.fault == "torn-write":
            # Simulate a pre-atomic-rename crash: a torn entry lands at
            # the final path, for the seal check to catch on read.
            data = (canonical_json(entry) + "\n").encode("utf-8")
            path.write_bytes(data[:fault.tear(len(data))])
            raise OSError(
                errno.EIO, f"chaos[{fault.seq}]: torn cache entry write")
        # Unique temp name per writer: two processes sealing the same
        # key (shared cache dir) must not race on one .tmp file.
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{key}.",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(canonical_json(entry))
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- introspection -----------------------------------------------------
    def entry_count(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def stats(self) -> Dict[str, int]:
        entries = self.entry_count()
        with self._lock:
            return {
                "entries": entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "write_errors": self.write_errors,
            }
