"""Programmed-crossbar state cache keyed by the honest content hash.

Programming a workload's weights onto the simulated arrays is the
expensive part of serving it (bit-slicing, per-tile programming,
device effects); the weights themselves derive deterministically from
``(workload, seed)``.  This cache therefore keeps whole deployed
:class:`~repro.api.Simulator` instances keyed by
``(weights_hash, device_config_hash)`` — the *content* identity of
the programmed state, computed from the actual parameter arrays and
the full engine pipeline config rather than trusted from the request
— so repeat tenants (and coalesced groups) skip reprogramming
entirely.

Entries are inference-only: a training job mutates the programmed
state, so the server always runs training on a fresh, uncached
simulator.  Lookups are single-flight per key: concurrent misses on
one key build the deployment once; the losers of the race count as
hits.  Per-model ``threading.Lock`` s ride along with each entry —
the arrays are one physical resource, so jobs sharing an entry
serialize on its lock while distinct entries run in parallel across
the worker pool.

The cache is **bounded**: at most ``max_entries`` deployments stay
resident, evicted least-recently-leased first (a long-lived
multi-tenant server would otherwise hold one programmed simulator per
tenant forever).  Eviction only drops the cache's reference — a job
still holding an evicted entry's lock keeps using its simulator
safely; the entry simply won't be handed out again.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.serve.jobs import JobSpec
from repro.telemetry import Collector, TelemetryLike, wall_clock
from repro.xbar.engine import CrossbarEngineConfig

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids the cycle)
    from repro.api import Simulator

CacheKey = Tuple[str, str]

#: Default residency bound: deployments are a few MB of programmed
#: arrays each, and a serving box rarely juggles more than a handful
#: of distinct (workload, seed, backend) tenants at once.
DEFAULT_MAX_ENTRIES = 16


@dataclass
class CacheEntry:
    """One cached deployment plus its serialization lock."""

    simulator: "Simulator"
    key: CacheKey
    lock: threading.Lock = dataclass_field(default_factory=threading.Lock)


class ProgrammedStateCache:
    """Deployed-simulator cache with single-flight misses.

    ``collector`` receives the cache counters (``cache/hits``,
    ``cache/misses``, ``cache/entries``, ``cache/evictions``) — scope
    it under ``serve/`` in the server so the CI smoke can assert
    ``serve/cache/hits > 0``.  The hit/miss tally is deterministic for
    a drained job set regardless of worker interleaving: each *job*
    counts exactly once, and a key's builder is elected under the
    cache lock, so hits = jobs - distinct keys.  ``max_entries``
    bounds residency LRU-style (``None`` disables the bound).
    """

    def __init__(
        self,
        engine_config: Optional[CrossbarEngineConfig] = None,
        collector: Optional[TelemetryLike] = None,
        max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1 or None, got {max_entries}"
            )
        self.engine_config = engine_config or CrossbarEngineConfig()
        self.max_entries = max_entries
        # A private collector by default so stats() always counts,
        # even when nobody wired telemetry.
        self._collector = (
            collector if collector is not None else Collector()
        )
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        self._building: Dict[CacheKey, threading.Event] = {}
        self._lock = threading.Lock()

    def resolved_config(
        self, backend: Optional[str]
    ) -> CrossbarEngineConfig:
        """The engine config a job with ``backend`` actually runs under."""
        from dataclasses import replace

        config = self.engine_config
        if backend is not None and backend != config.backend:
            config = replace(config, backend=backend)
        return config

    def key_for(self, job: JobSpec) -> CacheKey:
        """The honest ``(weights_hash, device_config_hash)`` of a job.

        Builds the (undeployed) network to hash its actual parameter
        arrays — the key certifies content, not request metadata.
        """
        from repro.api import Simulator

        probe = Simulator.from_workload(
            job.workload, seed=job.seed, deploy=False
        )
        return probe.cache_key(self.resolved_config(job.backend))

    def lease(self, job: JobSpec) -> CacheEntry:
        """The deployed entry for ``job``, building it on first use.

        Thread-safe and single-flight: exactly one caller per key
        deploys; everyone else blocks on the build and records a hit.
        Callers must hold ``entry.lock`` while forwarding through the
        entry's simulator.
        """
        from repro.api import Simulator

        lookup_started = wall_clock()
        key = self.key_for(job)
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    # Leasing refreshes recency for the LRU bound.
                    self._entries.move_to_end(key)
                    self._collector.count("cache/hits", 1)
                    # Observed under the cache lock: the collector may
                    # be shared with the server's event loop, and the
                    # lock already serializes the counter writes.
                    self._collector.observe(
                        "cache/lookup_seconds",
                        wall_clock() - lookup_started,
                    )
                    return entry
                pending = self._building.get(key)
                if pending is None:
                    pending = threading.Event()
                    self._building[key] = pending
                    builder = True
                else:
                    # Lost the election: this job still found the
                    # programmed state it needed without programming
                    # anything itself — count it as a hit once the
                    # builder finishes.
                    builder = False
            if builder:
                try:
                    # Each cached deployment carries a private
                    # collector: the engines write their event
                    # counters there, and the server snapshots the
                    # tree around each run to price per-job energy.
                    simulator = Simulator.from_workload(
                        job.workload,
                        engine_config=self.resolved_config(job.backend),
                        seed=job.seed,
                        collector=Collector(),
                    )
                    entry = CacheEntry(simulator=simulator, key=key)
                    with self._lock:
                        self._entries[key] = entry
                        self._entries.move_to_end(key)
                        self._collector.count("cache/misses", 1)
                        while (
                            self.max_entries is not None
                            and len(self._entries) > self.max_entries
                        ):
                            self._entries.popitem(last=False)
                            self._collector.count("cache/evictions", 1)
                        self._collector.set(
                            "cache/entries", len(self._entries)
                        )
                        self._collector.observe(
                            "cache/lookup_seconds",
                            wall_clock() - lookup_started,
                        )
                finally:
                    with self._lock:
                        self._building.pop(key, None)
                    pending.set()
                return entry
            pending.wait()
            # Loop: the entry is (almost always) present now; fall
            # through to the hit path so the tally stays exact even if
            # the builder failed and the entry must be rebuilt.

    def stats(self) -> Dict[str, int]:
        """Cache counters as a plain dict."""
        return {
            "hits": int(self._collector.get("cache/hits")),
            "misses": int(self._collector.get("cache/misses")),
            "entries": len(self._entries),
            "evictions": int(self._collector.get("cache/evictions")),
        }

    def clear(self) -> None:
        """Drop every cached deployment (counters keep their totals)."""
        with self._lock:
            self._entries.clear()
            self._collector.set("cache/entries", 0)


__all__ = [
    "CacheEntry",
    "CacheKey",
    "DEFAULT_MAX_ENTRIES",
    "ProgrammedStateCache",
]
