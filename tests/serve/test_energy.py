"""Per-tenant energy attribution on the job server.

One mixed-tenant job mix served three times; the energy counters must
(a) conserve — the serve-level total is exactly the sum of the tenant
slices, thanks to the power-of-two ``ENERGY_QUANTUM`` grid — and
(b) repeat — once pass one's one-time array-programming energy is
behind, every warm pass adds a byte-identical delta.
"""

from __future__ import annotations

import pytest

from repro.serve import InferenceJob, ReliabilityJob, TrainingJob
from repro.serve.client import ServeClient
from repro.serve.server import (
    ENERGY_QUANTUM,
    ServerConfig,
    _quantize_energy,
    running_server,
)
from repro.telemetry import Collector, parse_prometheus, sample_value


def _mix():
    return [
        InferenceJob(workload="mlp", seed=3, count=8, batch=4,
                     tenant="alice"),
        InferenceJob(workload="mlp", seed=3, count=8, batch=4,
                     input_seed=9, tenant="bob"),
        TrainingJob(workload="mlp", seed=6, epochs=1, batch=8,
                    train_count=32, test_count=16, tenant="alice"),
        ReliabilityJob(workload="mlp", seed=3, axis="stuck",
                       rates=(0.02,), count=8, batch=8, train_epochs=0,
                       include_tiles=False, tenant="carol"),
    ]


@pytest.fixture(scope="module")
def served():
    collector = Collector()
    config = ServerConfig(workers=2)
    with running_server(config, collector=collector) as (server, address):
        client = ServeClient(*address)
        stats_per_pass, metrics_per_pass = [], []
        for _ in range(3):
            client.run_many(_mix())
            stats_per_pass.append(client.stats())
            metrics_per_pass.append(client.metrics_text())
        yield stats_per_pass, metrics_per_pass


def _energy(counters, path):
    return counters.get(path, 0.0)


class TestEnergyConservation:
    def test_serve_total_positive(self, served):
        stats_per_pass, _ = served
        counters = stats_per_pass[-1]["counters"]
        assert counters["serve/energy/total_joules"] > 0

    def test_serve_total_is_sum_of_tenant_slices(self, served):
        stats_per_pass, _ = served
        counters = stats_per_pass[-1]["counters"]
        tenants = ("alice", "bob", "carol")
        sliced = sum(
            _energy(
                counters, f"serve/tenant[{t}]/energy/total_joules"
            )
            for t in tenants
        )
        # Every slice is a multiple of the exact binary quantum, so
        # the sums are exact — equality, not approx.
        assert counters["serve/energy/total_joules"] == sliced

    def test_component_counters_sum_to_total(self, served):
        stats_per_pass, _ = served
        counters = stats_per_pass[-1]["counters"]
        components = sum(
            _energy(counters, f"serve/energy/{name}_joules")
            for name in (
                "array", "adc", "driver", "write", "buffer", "static",
            )
        )
        assert counters["serve/energy/total_joules"] == pytest.approx(
            components, rel=1e-12
        )

    def test_reliability_tenant_gets_watts_gauge(self, served):
        stats_per_pass, _ = served
        counters = stats_per_pass[-1]["counters"]
        # carol's reliability campaign forces the full datapath, so
        # her scope accumulates simulated time and an average-power
        # gauge; the fast-path inference tenants may not.
        assert (
            counters["serve/tenant[carol]/energy/simulated_seconds"] > 0
        )
        watts = counters["serve/tenant[carol]/energy/average_watts"]
        seconds = counters[
            "serve/tenant[carol]/energy/simulated_seconds"
        ]
        total = counters["serve/tenant[carol]/energy/total_joules"]
        assert watts == pytest.approx(total / seconds, rel=1e-12)


class TestEnergyDeterminism:
    def test_steady_state_deltas_identical(self, served):
        stats_per_pass, _ = served
        first, second, third = (
            s["counters"] for s in stats_per_pass
        )
        # The serve layer quantizes every contribution it records onto
        # the exact binary grid, so the counters *it* emits (serve and
        # direct tenant scopes) repeat to the byte.  Deeper job-local
        # counters (e.g. the campaign's per-scenario energy) are plain
        # float accumulations and are outside this contract.
        import re

        serve_emitted = re.compile(
            r"^serve/(tenant\[[^]]+\]/)?energy/"
        )
        paths = [
            path
            for path in third
            if serve_emitted.match(path)
            and (path.endswith("_joules")
                 or path.endswith("simulated_seconds"))
        ]
        assert paths
        for path in paths:
            steady = _energy(third, path) - _energy(second, path)
            previous = _energy(second, path) - _energy(first, path)
            assert steady == previous, path

    def test_quantum_grid_is_exact(self):
        value = 3.141592653589793e-07
        quantized = _quantize_energy(value)
        assert quantized == pytest.approx(value, rel=1e-6)
        # Grid multiples are exact binary floats: re-quantizing and
        # summing stays on the grid with no drift.
        assert _quantize_energy(quantized) == quantized
        assert (quantized + quantized) / 2 == quantized
        assert ENERGY_QUANTUM == 2.0 ** -50


class TestEnergyExposition:
    def test_prometheus_names_and_labels(self, served):
        _, metrics_per_pass = served
        samples = parse_prometheus(metrics_per_pass[-1])
        tenant_totals = {
            dict(labels).get("tenant"): value
            for (name, labels), value in samples.items()
            if name == "repro_serve_tenant_energy_total_joules"
        }
        assert set(tenant_totals) == {"alice", "bob", "carol"}
        assert all(value >= 0 for value in tenant_totals.values())
        assert sample_value(
            samples, "repro_serve_energy_total_joules"
        ) > 0

    def test_tenant_with_unpriced_job_is_exposed_at_zero(self):
        # bob's mlp inference lands on a warm cache entry and the fast
        # ideal path, so it prices no events; alone, it shares no
        # coalesced group that would hand it a slice of alice's cost.
        mix = _mix()
        with running_server(
            ServerConfig(workers=1), collector=Collector()
        ) as (_, address):
            client = ServeClient(*address)
            client.run(mix[0])
            client.run(mix[1])
            samples = parse_prometheus(client.metrics_text())
        tenant_totals = {
            dict(labels).get("tenant"): value
            for (name, labels), value in samples.items()
            if name == "repro_serve_tenant_energy_total_joules"
        }
        assert tenant_totals["bob"] == 0.0
        assert tenant_totals["alice"] > 0.0
