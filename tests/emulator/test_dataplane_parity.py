"""Serial-equivalence parity for the optimised cross-site data plane.

Coalescing and remote-read caching are *transport* optimisations: they
change when bytes ride the wire and how many round trips are paid, but
never which operations happen, in what order, or what the monitoring
layer learns about the application.  These tests replay the real traces
(dia, javanote) with the data plane fully on and fully off and assert
that everything a partitioning decision can observe — the execution
graph, the offload sequence, the final heap placement — is identical.

The naive path itself must also be bit-identical to the seed platform:
an explicit ``DataPlaneConfig.off()`` and the default config must agree
on every timing field.
"""

import dataclasses

import pytest

from repro.emulator.replay import TraceReplayer
from repro.experiments import cached_trace, memory_emulator_config
from repro.experiments.exp_overhead import MEMORY_WORKLOADS
from repro.rpc.batch import DataPlaneConfig

APPS = ["dia", "javanote"]


def replay_with(app_name, data_plane):
    trace = cached_trace(app_name, MEMORY_WORKLOADS[app_name])
    config = dataclasses.replace(
        memory_emulator_config(), data_plane=data_plane)
    replayer = TraceReplayer(trace, config)
    result = replayer.run()
    return replayer, result


def offload_signature(result):
    # ``migrated_bytes`` is deliberately absent: it counts *wire* bytes,
    # and pipelined migration ships fewer per-object headers.
    return [
        (
            offload.time,
            offload.migrated_objects,
            tuple(sorted(offload.decision.offload_nodes)),
            offload.decision.refusal_reason,
        )
        for offload in result.offloads
    ]


@pytest.fixture(scope="module")
def runs():
    """One replay per (app, plane) — the replays dominate test time."""
    return {
        (app, label): replay_with(app, plane)
        for app in APPS
        for label, plane in (
            ("off", DataPlaneConfig.off()),
            ("on", DataPlaneConfig.enabled()),
        )
    }


@pytest.mark.parametrize("app_name", APPS)
class TestSerialEquivalence:
    def test_execution_graph_is_identical(self, runs, app_name):
        naive, _ = runs[(app_name, "off")]
        optimised, _ = runs[(app_name, "on")]
        assert naive.graph.to_dict() == optimised.graph.to_dict()

    def test_offload_decisions_are_identical(self, runs, app_name):
        _, naive = runs[(app_name, "off")]
        _, optimised = runs[(app_name, "on")]
        assert offload_signature(naive) == offload_signature(optimised)
        assert naive.refusals == optimised.refusals
        assert naive.final_offload_nodes == optimised.final_offload_nodes

    def test_final_heap_state_is_identical(self, runs, app_name):
        naive_replayer, _ = runs[(app_name, "off")]
        optimised_replayer, _ = runs[(app_name, "on")]
        # Same survivors on the same sites: GC and migration saw the
        # same world under both transports.
        assert naive_replayer.residency() == optimised_replayer.residency()

    def test_logical_work_is_identical(self, runs, app_name):
        _, naive = runs[(app_name, "off")]
        _, optimised = runs[(app_name, "on")]
        assert naive.events_processed == optimised.events_processed
        assert naive.remote_invocations == optimised.remote_invocations
        assert naive.gc_cycles == optimised.gc_cycles
        assert naive.cpu_time_client == optimised.cpu_time_client
        assert naive.cpu_time_surrogate == optimised.cpu_time_surrogate

    def test_optimised_plane_never_costs_more(self, runs, app_name):
        _, naive = runs[(app_name, "off")]
        _, optimised = runs[(app_name, "on")]
        assert optimised.comm_time <= naive.comm_time
        assert optimised.migration_bytes <= naive.migration_bytes
        assert optimised.migration_time <= naive.migration_time
        assert optimised.total_time <= naive.total_time
        stats = optimised.data_plane
        assert stats is not None
        assert stats.rtts_saved > 0

    def test_naive_plane_reports_no_stats(self, runs, app_name):
        _, naive = runs[(app_name, "off")]
        assert naive.data_plane is None


@pytest.mark.parametrize("app_name", APPS)
def test_default_config_is_bit_identical_to_explicit_off(app_name):
    trace = cached_trace(app_name, MEMORY_WORKLOADS[app_name])
    base = memory_emulator_config()
    default = TraceReplayer(trace, base).run()
    explicit = TraceReplayer(
        trace,
        dataclasses.replace(base, data_plane=DataPlaneConfig.off()),
    ).run()
    assert default.total_time == explicit.total_time
    assert default.comm_time == explicit.comm_time
    assert default.remote_bytes == explicit.remote_bytes
    assert default.remote_accesses == explicit.remote_accesses
    assert offload_signature(default) == offload_signature(explicit)
