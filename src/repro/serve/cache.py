"""Compiled-plan and result caches keyed on each query's data version.

Both caches key on ``(query name, data version)``. A query's data
version is the newest :class:`~repro.apps.sql.ir.Catalog` version
among the ``(table, column)`` pairs its plan reads
(:attr:`~repro.apps.sql.physical.CompiledQuery.data_version`):
``Catalog.update_column`` stamps only the column it writes, and
``Catalog.bump_version`` advances every column. So a write invalidates
exactly the plans and results of the queries that read the written
column — their lookup key stops matching and the entry ages out of the
LRU — while every other query keeps hitting. ``put`` additionally
drops same-query entries from older data versions eagerly, counting
them as ``invalidations`` so the serving report can show cache churn
caused by catalog writes (as opposed to capacity evictions).

Byte-equality contract: a result-cache hit returns the exact tuple
the cluster produced for that (query, data version) — the serving
layer never recomputes, transcodes, or truncates it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

__all__ = ["PlanCache", "ResultCache"]


class _LruCache:
    """Version-aware LRU shared by the plan and result caches."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive: {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Tuple[str, int], Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, name: str, version: Optional[int]) -> Optional[Any]:
        """The entry for ``name`` at ``version``; ``None`` (no data
        version known yet: the query was never planned) always misses."""
        key = (name, version)
        if version is not None and key in self._entries:
            self.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]
        self.misses += 1
        return None

    def put(self, name: str, version: int, value: Any) -> None:
        version = int(version)
        # A write at version v supersedes every *older* version of the
        # same query: drop them now rather than letting stale entries
        # squat in the LRU until capacity pressure finds them. Strictly
        # older only — a put carrying an old data version (a plan
        # compiled before an interleaved catalog write) must not evict
        # a newer-version entry.
        stale = [key for key in self._entries
                 if key[0] == name and key[1] < version]
        for key in stale:
            del self._entries[key]
            self.invalidations += 1
        self._entries[(name, version)] = value
        self._entries.move_to_end((name, version))
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "entries": len(self._entries),
        }

    def stats_since(self, before: Dict[str, int]) -> Dict[str, int]:
        """Counter changes since ``before`` (an earlier :meth:`stats`);
        ``entries`` stays the current occupancy."""
        now = self.stats()
        return {key: value if key == "entries" else value - before[key]
                for key, value in now.items()}


class PlanCache(_LruCache):
    """LRU of :class:`~repro.apps.sql.physical.CompiledQuery` objects.

    A hit skips the planner entirely (the front end charges
    ``plan_compile_cycles`` only on a miss). Entries are put at the
    plan's own ``data_version``, stamped at lowering time from the
    versions of the columns it read, so a hit is only ever a plan whose
    broadcasts and statistics match the current contents of those
    columns.
    """

    def __init__(self, capacity: int = 128) -> None:
        super().__init__(capacity)


class ResultCache(_LruCache):
    """LRU of finished result-row tuples, keyed like the plan cache.

    Only whole-query results are cached (the finish step — decode /
    sort / limit — already ran), so a hit is a pure lookup. A result
    stays valid across writes to columns its query does not read.
    """

    def __init__(self, capacity: int = 256) -> None:
        super().__init__(capacity)
