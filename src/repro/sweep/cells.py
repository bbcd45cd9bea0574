"""The cell model of a distributed sweep.

A *cell* is the unit of sharding: one ``(scenario × seed × backend)``
point of a sweep, described entirely by plain JSON data so it can be
pickled to a worker process, hashed for the on-disk result cache, and
replayed later.  Cells are executed by *cell functions* — module-level
callables registered per cell ``kind`` — that must be **pure**: given
the same spec they return the same JSON-able result in any process,
with every random stream derived from the spec's seed through
:mod:`repro.utils.rng`.  That purity is what lets the executor
(:mod:`repro.sweep.executor`) run cells across a process pool and
still merge a report byte-identical to the single-process run.

Cell functions take ``(spec, collector)`` and return a JSON-able
result dict; the collector is always a live private
:class:`~repro.telemetry.Collector`, and its counters travel back to
the submitting process inside the cell payload (counter telemetry is
deterministic, so merged sweep telemetry is identical for any worker
count).  Built-in kinds resolve lazily by dotted path so this module
imports none of the heavyweight subsystems.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from repro.telemetry import (
    SCHEMA_VERSION,
    Collector,
    TelemetryLike,
    TraceContext,
    TraceLog,
)

CellFunction = Callable[[Dict[str, Any], TelemetryLike], Dict[str, Any]]

#: Built-in cell kinds, resolved lazily as ``module:function`` so
#: importing the sweep layer does not drag in every subsystem.  The
#: target must be a module-level function (pickle-friendly by name).
BUILTIN_KINDS: Dict[str, str] = {
    "campaign_scenario": "repro.reliability.campaign:run_campaign_cell",
    "sensitivity_point": "repro.arch.sensitivity:run_sensitivity_cell",
    "bench": "repro.bench.runner:run_bench_cell",
}

_RUNNERS: Dict[str, CellFunction] = {}


def register_cell_kind(kind: str, function: CellFunction) -> None:
    """Register (or override) the cell function for ``kind``.

    Test and extension hook; the built-in kinds need no registration.
    Note that worker *processes* resolve kinds independently, so a
    kind registered only in the parent works with ``workers=1`` —
    distributed kinds must be importable via :data:`BUILTIN_KINDS`
    style dotted paths or registered at import time.
    """
    _RUNNERS[kind] = function


def resolve_cell_kind(kind: str) -> CellFunction:
    """The cell function executing cells of ``kind``."""
    runner = _RUNNERS.get(kind)
    if runner is not None:
        return runner
    target = BUILTIN_KINDS.get(kind)
    if target is None:
        raise ValueError(
            f"unknown sweep cell kind {kind!r}; known kinds: "
            f"{sorted(set(BUILTIN_KINDS) | set(_RUNNERS))}"
        )
    module_name, _, function_name = target.partition(":")
    module = importlib.import_module(module_name)
    runner = getattr(module, function_name)
    _RUNNERS[kind] = runner
    return runner


def canonical_json(value: Any) -> str:
    """Minimal sorted-key JSON — the canonical form everything hashes."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


@dataclass(frozen=True)
class SweepCell:
    """One shardable point of a sweep: a kind plus its full spec.

    ``spec`` must be plain JSON data (the determinism contract hashes
    it) and carries everything the cell function needs — including the
    cell's ``seed``, which also keys the result cache alongside
    :meth:`config_hash`.
    """

    kind: str
    spec: Dict[str, Any] = field(default_factory=dict)

    @property
    def seed(self) -> int:
        """The cell's master seed (0 when the spec does not carry one)."""
        return int(self.spec.get("seed", 0))

    def config_hash(self) -> str:
        """Honest content hash of the cell's configuration.

        Hashes the canonical JSON of ``(kind, spec-minus-seed)`` —
        the cache key is ``(config_hash, seed)``, mirroring the
        ``(weights_hash, device_config_hash)`` discipline of
        :meth:`repro.api.Simulator.cache_key`: identity comes from
        content, never from a request's say-so.
        """
        config = {k: v for k, v in self.spec.items() if k != "seed"}
        digest = hashlib.sha256()
        digest.update(canonical_json({"kind": self.kind, "spec": config}).encode())
        return digest.hexdigest()

    @property
    def label(self) -> str:
        """Short human/telemetry label (``spec["name"]`` or the hash)."""
        name = self.spec.get("name")
        if name:
            return str(name)
        return self.config_hash()[:12]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able identity view (spec + the derived cache key)."""
        return {
            "kind": self.kind,
            "spec": dict(self.spec),
            "config_hash": self.config_hash(),
            "seed": self.seed,
        }


def _cell_energy(collector: Collector) -> Optional[Dict[str, Any]]:
    """Price a finished cell's event counters into energy, in place.

    Attributes the collector's counters through the default technology
    cost table, adds the resulting ``energy/*`` counters back into the
    collector (so they merge across workers like any other
    deterministic counter), and returns a small totals summary for the
    payload — or ``None`` when the cell emitted no priceable events.
    Lazy imports keep the sweep layer's import graph light.
    """
    from repro.arch.components import event_costs
    from repro.arch.params import DEFAULT_TECH
    from repro.telemetry import attribute_energy, energy_counter_map

    report = attribute_energy(
        collector.counters(),
        event_costs(DEFAULT_TECH),
        source_name="sweep_cell",
    )
    if not report["groups"]:
        return None
    for path, value in energy_counter_map(report).items():
        collector.count(path, value)
    totals = report["totals"]
    return {
        "components_joules": dict(totals["components"]),
        "total_joules": totals["total_joules"],
        "simulated_seconds": totals["simulated_seconds"],
        "average_watts": totals["average_watts"],
    }


def run_cell(
    cell: SweepCell,
    trace_carrier: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Execute one cell in the *current* process; return its payload.

    This module-level function is what worker processes receive: it
    resolves the cell's kind, runs the cell function under a fresh
    private collector (spans off — only deterministic counters cross
    the process boundary), and wraps the result in the payload format
    the cache stores and the executor merges.

    ``trace_carrier`` (a :meth:`repro.telemetry.TraceContext.fork`
    dict) adopts the submitting process's trace into this process: the
    cell's ``evaluate`` span lands on a cell-local logical clock under
    the carrier's ``proc`` lane, and the finished span dicts travel
    back in the payload's ``trace`` key for the executor to absorb.
    Trace spans are logical-clock data, so the payload — including
    ``trace`` — stays byte-identical across worker counts.
    """
    function = resolve_cell_kind(cell.kind)
    collector = Collector()
    trace_spans = None
    if trace_carrier is not None:
        cell_log = TraceLog(proc=str(trace_carrier["proc"]))
        context = TraceContext.adopt(trace_carrier, cell_log)
        with context.span("evaluate"):
            result = function(dict(cell.spec), collector)
        context.finish({"kind": cell.kind})
        trace_spans = cell_log.to_dicts()
    else:
        result = function(dict(cell.spec), collector)
    # Price the cell's event counters into ``energy/*`` counters (and
    # a payload summary) *before* the counter capture, so the energy
    # attribution merges across workers exactly like any other
    # deterministic counter.  A cell that emitted no priceable events
    # gains neither counters nor summary.
    energy_summary = _cell_energy(collector)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": cell.kind,
        "config_hash": cell.config_hash(),
        "seed": cell.seed,
        "spec": dict(cell.spec),
        "result": result,
        "counters": collector.counters(),
    }
    if energy_summary is not None:
        payload["energy"] = energy_summary
    if trace_spans is not None:
        payload["trace"] = trace_spans
    # Canonical round-trip: a freshly computed payload gets the exact
    # structure a cache replay would have (sorted keys, tuples as
    # lists, non-finite floats rejected), so merged report *bytes*
    # never depend on whether a cell was computed, pickled from a
    # worker, or replayed from disk.
    return json.loads(canonical_json(payload))


def validate_cell_payload(
    payload: Mapping[str, Any], cell: Optional[SweepCell] = None
) -> Mapping[str, Any]:
    """Structural check of one cell payload; returns it on success.

    With ``cell`` given, additionally verifies the payload describes
    *that* cell (kind, spec, and hash all match) — the cache uses this
    so a stale or colliding file can never masquerade as a result.
    """
    for key in ("schema_version", "kind", "config_hash", "seed", "spec",
                "result", "counters"):
        if key not in payload:
            raise ValueError(f"cell payload missing key {key!r}")
    if not isinstance(payload["result"], dict):
        raise ValueError("cell payload result must be a dict")
    if not isinstance(payload["counters"], dict):
        raise ValueError("cell payload counters must be a dict")
    if cell is not None:
        if (
            payload["kind"] != cell.kind
            or payload["spec"] != cell.spec
            or payload["config_hash"] != cell.config_hash()
            or int(payload["seed"]) != cell.seed
        ):
            raise ValueError(
                f"cell payload does not describe cell {cell.label!r} "
                "(kind/spec/hash mismatch)"
            )
    return payload


__all__ = [
    "BUILTIN_KINDS",
    "CellFunction",
    "SweepCell",
    "canonical_json",
    "register_cell_kind",
    "resolve_cell_kind",
    "run_cell",
    "validate_cell_payload",
]
