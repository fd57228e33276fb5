"""Content-addressed result cache for fleet jobs.

Entries are keyed by the sha256 job key (:func:`repro.fleet.jobs.job_key`)
and hold the deterministic result payload verbatim: a hit returns the
exact bytes a fresh simulation would produce, which the cross-process
determinism tests assert.  Two backends share one interface:

* :class:`MemoryCache` — a per-process dict; the default for one-shot
  sweeps and benchmarks, where cross-run persistence would make the
  numbers lie.
* :class:`~repro.contentstore.ResultCache` — a directory of JSON files,
  written atomically, with corrupt entries read as misses; the fusion
  store (``repro.core.fuse``) uses the same class.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Optional

from ..contentstore import ResultCache


class MemoryCache:
    """In-process result cache (thread-safe)."""

    persistent = False

    def __init__(self):
        self._entries: Dict[str, str] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            text = self._entries.get(key)
            if text is None:
                self.misses += 1
                return None
            self.hits += 1
        return json.loads(text)

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        text = json.dumps(payload, sort_keys=True)
        with self._lock:
            self._entries[key] = text

    def __len__(self) -> int:
        return len(self._entries)


def open_cache(cache_dir: Optional[str]):
    """A cache backend: directory-backed when *cache_dir* is given,
    otherwise in-process memory."""
    return ResultCache(cache_dir) if cache_dir else MemoryCache()
