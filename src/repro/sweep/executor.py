"""Process-pool sweep executor: shard cells, keep determinism.

:func:`run_sweep` executes a list of :class:`~repro.sweep.cells.SweepCell`
across ``workers`` processes and returns the payloads **in input cell
order**, making the merged output a pure function of the cell list:
byte-identical for any worker count and any shard submission order
(``shard_order`` exists so tests can prove exactly that).  The three
ingredients:

* **pure cells** — every cell executes through
  :func:`repro.sweep.cells.run_cell`, a module-level function on plain
  data, in whatever process it lands;
* **per-cell determinism** — cell specs carry their own seeds and the
  cell functions derive every stream through ``derive_seed`` /
  ``spawn_rngs``, so placement does not move randomness;
* **canonical merge** — results are reordered to the input cell order
  before anything (report, telemetry) observes them.

With a :class:`~repro.sweep.cache.SweepCache`, cells found on disk are
replayed without recomputation — an interrupted sweep resumes from
its completed cells — and freshly computed payloads are written back
atomically.  Worker-count, cache state, and submission order are
*execution* facts: they live in :attr:`SweepRun.stats`, never in the
deterministic payloads.

Telemetry: each cell's deterministic counters come back in its
payload and are merged under ``<scope>/...`` on the caller's
collector (default scope ``cell[<label>]``; campaigns map it to their
legacy ``scenario[...]`` scopes, the CLI nests everything under
``sweep/``).  Merging happens in input order after all cells finish,
so merged counters are identical for any worker count.  Per-cell
collector spans are only recorded on the single-process path (a
pooled cell's host time is not observable from the parent).
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.sweep.cache import SweepCache
from repro.sweep.cells import SweepCell, run_cell
from repro.telemetry import NULL_COLLECTOR, TelemetryLike, TraceContext
from repro.utils.validation import check_positive

_log = logging.getLogger("repro.sweep")

ScopeFor = Callable[[int, SweepCell], str]


def default_scope(index: int, cell: SweepCell) -> str:
    """Default telemetry scope for one cell: ``cell[<label>]``."""
    return f"cell[{cell.label}]"


@dataclass
class SweepRun:
    """Outcome of one :func:`run_sweep` call.

    ``payloads`` aligns with ``cells`` (input order) and is the
    deterministic part; ``stats`` records how this particular
    execution went (worker count, cache hits, recomputed cells) and is
    deliberately kept out of every merged report.
    """

    cells: List[SweepCell]
    payloads: List[Dict[str, Any]]
    stats: Dict[str, int] = field(default_factory=dict)

    def results(self) -> List[Dict[str, Any]]:
        """Just the cell results, in input cell order."""
        return [payload["result"] for payload in self.payloads]


def run_sweep(
    cells: Sequence[SweepCell],
    workers: int = 1,
    cache: Optional[SweepCache] = None,
    collector: Optional[TelemetryLike] = None,
    scope_for: ScopeFor = default_scope,
    shard_order: Optional[Sequence[int]] = None,
    mp_context: Optional[str] = None,
    trace: Optional[TraceContext] = None,
) -> SweepRun:
    """Execute ``cells`` and return their payloads in input order.

    Parameters
    ----------
    workers:
        Process count.  ``1`` runs every cell inline — same cell
        functions, same payload format, so the single-process path is
        a configuration of the distributed one, not separate code.
    cache:
        Optional on-disk cell cache: hits replay stored payloads with
        zero recomputation, misses are computed and written back.
    collector:
        Optional telemetry sink; per-cell counters merge under
        ``scope_for(index, cell)`` and executor totals are recorded as
        ``cells.total`` / ``cells.cached`` / ``cells.recomputed``.
    scope_for:
        Telemetry scope naming hook (see :func:`default_scope`).
    shard_order:
        Submission-order permutation of ``range(len(cells))`` — an
        order-independence test hook; the merged result must not
        depend on it.
    mp_context:
        :mod:`multiprocessing` start-method name (``"fork"``,
        ``"spawn"``); ``None`` uses the platform default.
    trace:
        Optional :class:`~repro.telemetry.TraceContext` to stitch the
        sweep into.  A carrier forks per cell **upfront in input
        order** (so span ids never depend on scheduling); each
        computed cell's worker-process spans come back in its payload
        and are absorbed into ``trace.log`` in input order — the
        stitched trace is byte-identical for any worker count.
        Cached payloads replay spans from the run that computed them;
        those carry that run's trace id and are filtered out here.
    """
    check_positive("workers", workers)
    cells = list(cells)
    order = list(shard_order) if shard_order is not None else list(
        range(len(cells))
    )
    if sorted(order) != list(range(len(cells))):
        raise ValueError(
            "shard_order must be a permutation of range(len(cells))"
        )
    tel = collector if collector is not None else NULL_COLLECTOR

    payloads: List[Optional[Dict[str, Any]]] = [None] * len(cells)
    cached = 0
    if cache is not None:
        for index in order:
            payload = cache.load(cells[index])
            if payload is not None:
                payloads[index] = payload
                cached += 1
    pending = [index for index in order if payloads[index] is None]
    _log.info(
        "sweep: %d cell(s), %d cached, %d to compute on %d worker(s)",
        len(cells), cached, len(pending), workers,
    )

    # Carriers fork for *every* cell upfront, in input order: span-id
    # allocation ticks the parent context, so doing it before any
    # scheduling decision keeps ids (and the stitched trace bytes)
    # independent of worker count and cache state.
    carriers: List[Optional[Dict[str, Any]]] = [None] * len(cells)
    if trace is not None:
        for index, cell in enumerate(cells):
            scope_name = scope_for(index, cell)
            carriers[index] = trace.fork(scope_name, proc=scope_name)

    if workers == 1:
        for index in pending:
            with tel.span(scope_for(index, cells[index])):
                payloads[index] = run_cell(
                    cells[index], carriers[index]
                )
    elif pending:
        import multiprocessing

        context = (
            multiprocessing.get_context(mp_context)
            if mp_context is not None
            else None
        )
        pool_size = min(workers, len(pending))
        with ProcessPoolExecutor(
            max_workers=pool_size, mp_context=context
        ) as pool:
            futures = {
                index: pool.submit(
                    run_cell, cells[index], carriers[index]
                )
                for index in pending
            }
            for index, future in futures.items():
                payloads[index] = future.result()

    if cache is not None:
        for index in pending:
            cache.store(cells[index], payloads[index])  # type: ignore[arg-type]

    # Canonical merge: telemetry lands in input order, independent of
    # completion or submission order.
    for index, payload in enumerate(payloads):
        assert payload is not None
        scope = tel.scope(scope_for(index, cells[index])) if tel else None
        if scope is not None:
            scope.merge_counters(payload["counters"])
        if trace is not None:
            # Cached payloads may carry spans from the run that
            # computed them — a different trace; keep only this one's.
            trace.log.absorb(
                span for span in payload.get("trace", ())
                if span.get("trace_id") == trace.trace_id
            )
    tel.count("cells.total", len(cells))
    tel.count("cells.cached", cached)
    tel.count("cells.recomputed", len(pending))

    return SweepRun(
        cells=cells,
        payloads=[payload for payload in payloads if payload is not None],
        stats={
            "workers": int(workers),
            "cells": len(cells),
            "cache_hits": cached,
            "recomputed": len(pending),
        },
    )


__all__ = ["SweepRun", "default_scope", "run_sweep"]
