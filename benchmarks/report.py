"""Hot-path benchmark report: ``python -m benchmarks.report``.

Times the two library hot paths the perf suite guards — the
partitioning heuristic at increasing graph sizes and the emulator's
replay throughput — and writes the results to ``BENCH_hotpath.json`` in
the repository root.  The checked-in file is the start of the bench
trajectory: re-run after touching a hot path and commit the delta.

The timings here mirror ``benchmarks/test_perf_components.py`` (same
synthetic graphs, same trace) but run standalone so CI or a developer
can refresh the numbers without pytest-benchmark.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import time
from pathlib import Path

from benchmarks.test_perf_components import synthetic_graph

from repro.core.partitioner import IncrementalPartitioner, Partitioner
from repro.core.policy import EvaluationContext, MemoryPartitionPolicy
from repro.emulator import Emulator
from repro.experiments import cached_trace, memory_emulator_config
from repro.experiments.exp_overhead import MEMORY_WORKLOADS

REPORT_NAME = "BENCH_hotpath.json"
PARTITIONER_SIZES = (134, 500, 1000, 5000, 20000)
REEVAL_SIZES = (134, 1000, 5000)
QUICK_PARTITIONER_SIZES = (134,)
QUICK_REEVAL_SIZES = (134,)

#: Sections (and the keys inside them) every hot-path report must carry.
#: The CI smoke job runs ``--quick`` and fails when a regenerated or
#: checked-in report no longer matches this schema.
REQUIRED_SECTIONS = {
    "partitioner_latency": (),
    "reeval": (),
    "replay": ("mean_s", "events_per_second"),
    "replay_parallel": ("aggregate_events_per_second",
                        "columnar_events_per_second", "columnar_speedup",
                        "floor_ok", "floor_reason", "fingerprint_parity"),
    "cold_start": ("unseeded", "seeded", "seeded_matches_or_beats"),
    "rpc": ("chatty", "dia_early_trigger", "replay_events_per_second"),
    "faults": ("dia", "javanote"),
    "fleet": ("scales", "fairness_ratio", "fairness_ok",
              "fingerprint_stable"),
    "static_prediction": ("apps", "top1_matches", "top1_ok",
                          "rank_correlation_ok"),
    "mobility": ("handoff_beats_no_action", "handoff_beats_repatriate",
                 "completion_bound_ok", "fingerprint_parity",
                 "deterministic", "disconnect_recovered"),
}

#: Tail-fairness gate for the fleet emulator: at the reference scale
#: (100 clients on 4 surrogates) DRR must keep the p99 client
#: completion within this multiple of the p50.
FLEET_FAIRNESS_RATIO_MAX = 3.0
FLEET_GATE_SCALE = "n100_m4"
FLEET_SCALES = ((10, 1), (100, 4), (1000, 16))
QUICK_FLEET_SCALES = ((100, 4),)

#: Minimum speedup the coalescing+caching data plane must show on the
#: chatty remote-heavy scenario.
RPC_MIN_SPEEDUP = 2.0

#: Aggregate-throughput floor for the parallel replay core.  The
#: absolute target (and the 5x-serial variant) only express themselves
#: on a multi-core box, so the enforced gate degrades to a
#: machine-robust pair on small/loaded runners: replaying a trace held
#: in memory must beat a one-shot replay of a JSONL file (load
#: included) by ``PARALLEL_COLUMNAR_MIN_SPEEDUP`` and sharding must not
#: *lose* throughput against single-process columnar replay
#: (``PARALLEL_RETENTION`` of it, covering pool-spawn noise).
PARALLEL_FLOOR_EPS = 5_000_000.0
PARALLEL_SERIAL_MULTIPLE = 5.0
PARALLEL_COLUMNAR_MIN_SPEEDUP = 1.2
PARALLEL_RETENTION = 0.9

#: Slack on the graceful-degradation inequality (pure float comparison
#: of two long accumulations of link/cpu charges).
FAULT_GUARD_TOLERANCE = 1.01

#: Gates on the interprocedural traffic predictor: the statically
#: predicted hottest cross-partition edge must match the measured one
#: on at least this many of the six bundled apps (biomer's sqrt count
#: is runtime-data-dependent, so one structural miss is tolerated)...
STATIC_TOP1_MIN_MATCHES = 5
#: ...and predicted-vs-measured per-edge byte totals must rank-correlate
#: at or above this Spearman rho on the two data-heavy apps.
STATIC_RHO_MIN = 0.6
STATIC_RHO_GATED_APPS = ("dia", "javanote")

#: Completion bound for the roaming scenario: proactive handoff must
#: finish the trace within this multiple of the static-WaveLAN run.
#: Roaming costs *something* (the trend trigger reacts after the link
#: has already degraded), but a working handoff path keeps the client
#: adjacent to a surrogate and nowhere near the no-action WAN tail.
MOBILITY_MAX_SLOWDOWN = 3.0


def _time(func, rounds: int, warmup: int = 0) -> dict:
    for _ in range(warmup):
        func()
    durations = []
    for _ in range(rounds):
        started = time.perf_counter()
        func()
        durations.append(time.perf_counter() - started)
    return {
        "rounds": rounds,
        "mean_s": statistics.fmean(durations),
        "min_s": min(durations),
        "max_s": max(durations),
    }


def bench_partitioner(rounds: int, sizes=PARTITIONER_SIZES) -> dict:
    results = {}
    for node_count in sizes:
        graph = synthetic_graph(node_count)
        pinned = [f"c{i:04d}" for i in range(0, node_count, 10)]
        partitioner = Partitioner(MemoryPartitionPolicy(0.20))
        ctx = EvaluationContext(heap_capacity=graph.total_memory())
        # One untimed decision warms the flat snapshot cache (compile
        # cost is a per-graph one-off, not per-partition) and supplies
        # the candidate count without a second generator run.
        decision = partitioner.partition(graph, pinned, ctx)
        # Fewer rounds for the big graphs; enough for a stable mean.
        effective_rounds = max(3, rounds // (node_count // 134))
        stats = _time(
            lambda: partitioner.partition(graph, pinned, ctx),
            effective_rounds,
        )
        stats["nodes"] = node_count
        stats["links"] = graph.link_count
        stats["candidates"] = decision.candidates_evaluated
        results[str(node_count)] = stats
    return results


def bench_reeval_size(node_count: int, epochs: int = 20) -> dict:
    """Steady-state re-evaluation epoch latency at one graph size.

    Runs one cold epoch, then ``epochs`` epochs each preceded by a
    small mutation burst (~1% of the graph's nodes, touching existing
    edges only), then a few no-change epochs that exercise outright
    candidate reuse (the policy reruns on the reused chain).
    """
    graph = synthetic_graph(node_count)
    pinned = [f"c{i:04d}" for i in range(0, node_count, 10)]
    partitioner = Partitioner(MemoryPartitionPolicy(0.20))
    session = IncrementalPartitioner(partitioner)
    ctx = EvaluationContext(heap_capacity=graph.total_memory())
    rng = random.Random(node_count)
    edge_keys = [key for key, _ in graph.edges()]
    mutations_per_epoch = max(1, node_count // 100)

    started = time.perf_counter()
    session.partition(graph, pinned, ctx)
    cold_s = time.perf_counter() - started

    warm_durations = []
    fallback_durations = []
    for _ in range(epochs):
        for _ in range(mutations_per_epoch):
            a, b = rng.choice(edge_keys)
            graph.record_interaction(a, b, rng.randrange(1, 8))
        started = time.perf_counter()
        decision = session.partition(graph, pinned, ctx)
        elapsed = time.perf_counter() - started
        # A mutation can genuinely flip the greedy selection order, in
        # which case the session correctly falls back to a cold run —
        # report those epochs separately from warm-served ones.
        if decision.warm_start:
            warm_durations.append(elapsed)
        else:
            fallback_durations.append(elapsed)

    reuse_durations = []
    for _ in range(5):
        started = time.perf_counter()
        session.partition(graph, pinned, ctx)
        reuse_durations.append(time.perf_counter() - started)

    stats = session.stats
    steady = warm_durations + fallback_durations
    return {
        "nodes": node_count,
        "links": graph.link_count,
        "mutations_per_epoch": mutations_per_epoch,
        "cold_epoch_s": cold_s,
        # An all-fallback run leaves no warm epochs at all; report
        # zeros rather than crashing on an empty mean (the inversion
        # gate below will fail such a run anyway).
        "warm_epoch_mean_s": (statistics.fmean(warm_durations)
                              if warm_durations else 0.0),
        "warm_epoch_min_s": min(warm_durations, default=0.0),
        "warm_epoch_max_s": max(warm_durations, default=0.0),
        "steady_epoch_mean_s": (statistics.fmean(steady)
                                if steady else 0.0),
        "fallback_epochs": len(fallback_durations),
        "reuse_epoch_mean_s": statistics.fmean(reuse_durations),
        "epochs": stats.epochs,
        "warm_hits": stats.warm_hits,
        "reuse_hits": stats.reuse_hits,
        "cold_runs": stats.cold_runs,
        "cache_hits": stats.cache_hits,
        "repair_epochs": stats.repair_epochs,
        "repair_splices": stats.repair_splices,
        "repair_promotions": stats.repair_promotions,
        "fallback_taxonomy": {
            "not_ready": stats.fallback_not_ready,
            "node_churn": stats.fallback_node_churn,
            "seed_change": stats.fallback_seed_change,
            "shrunk_winner": stats.fallback_shrunk_winner,
            "budget": stats.fallback_budget,
            "forced": stats.fallback_forced,
        },
        "last_dirty_fraction": stats.last_dirty_fraction,
    }


def bench_reeval(sizes=REEVAL_SIZES) -> dict:
    return {str(size): bench_reeval_size(size) for size in sizes}


def bench_cold_start() -> dict:
    """Static-analysis cold-start seeding on Dia's early-trigger scenario.

    Replays the Dia trace under the Figure 7 sweep's best (early, 50%)
    trigger twice — once with an empty first graph, once seeded with the
    analyzer's predicted interaction profile — and reports both totals.
    The seeded first partition must match or beat the unseeded one; the
    guard here is the same one ``tests/analysis`` enforces.
    """
    from dataclasses import replace as dc_replace

    from repro.analysis import analyze_app
    from repro.core.policy import OffloadPolicy, TriggerConfig

    trace = cached_trace("dia", MEMORY_WORKLOADS["dia"])
    seed = analyze_app("dia").analysis.seed
    early = OffloadPolicy(TriggerConfig(free_threshold=0.50, tolerance=1),
                          0.20)
    config = memory_emulator_config(policy=early)
    results = {}
    for label, cfg in (
        ("unseeded", config),
        ("seeded", dc_replace(config, cold_start=seed)),
    ):
        result = Emulator(trace).replay(cfg)
        results[label] = {
            "total_time_s": result.total_time,
            "comm_time_s": result.comm_time,
            "offloads": result.offload_count,
            "refusals": result.refusals,
            "completed": result.completed,
        }
    results["seed_profile_nodes"] = seed.profile.node_count
    results["seed_profile_edges"] = seed.profile.link_count
    results["seeded_matches_or_beats"] = (
        results["seeded"]["total_time_s"]
        <= results["unseeded"]["total_time_s"] * 1.0001
    )
    return results


def _spearman(xs, ys) -> float:
    """Tie-averaged Spearman rank correlation of two paired samples."""
    n = len(xs)
    if n < 2:
        return 1.0

    def ranks(vals):
        order = sorted(range(n), key=lambda i: vals[i])
        ranked = [0.0] * n
        i = 0
        while i < n:
            j = i
            while j + 1 < n and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            avg = (i + j) / 2.0
            for k in range(i, j + 1):
                ranked[order[k]] = avg
            i = j + 1
        return ranked

    rx, ry = ranks(xs), ranks(ys)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / (vx * vy) ** 0.5


def _static_prediction_apps():
    """Small parameterisations of the six bundled apps.

    Sized so a full in-process replay of all six finishes in well under
    a second — the section runs even in ``--quick`` CI smoke mode.
    """
    from repro.apps import Biomer, Dia, JavaNote, MixedSession, Tracer, Voxel
    from repro.units import KB

    return [
        JavaNote(document_bytes=64 * KB, edits=30, scrolls=20,
                 widgets=10, token_kinds=5),
        Dia(width=256, height=192, passes=3, render_start_pass=1,
            renders_per_pass=1, filter_kinds=4, widgets=6,
            filter_work=0.01),
        Biomer(residues=8, iterations=10, element_kinds=4),
        Voxel(regions=64, tiles=8, frame_every=8, region_work=0.01,
              render_work=0.05, math_calls=2, cache_rows=8,
              first_frame_fraction=0.3),
        Tracer(batches=40, frame_every=20, batch_work=0.01,
               frame_work=0.5, math_calls=4, spheres=8),
        MixedSession(bursts=2, edits_per_burst=20, passes_per_burst=1,
                     document_bytes=32 * KB, image_width=64,
                     image_height=48),
    ]


def bench_static_prediction() -> dict:
    """Predicted-vs-measured interaction traffic for the six apps.

    Runs every bundled app once in-process under an
    :class:`ExecutionMonitor` (the measured interaction graph), runs the
    static analyzer on the same registry (the interprocedurally weighted
    predicted graph), and compares the two per app:

    * **rank correlation** — Spearman rho between measured and predicted
      bytes over every measured edge (gated at ``STATIC_RHO_MIN`` for
      the ``STATIC_RHO_GATED_APPS``);
    * **top-1 cross edge** — whether the predicted hottest edge crossing
      the pinned/offloadable boundary is the measured hottest one (gated
      at ``STATIC_TOP1_MIN_MATCHES`` of six apps).
    """
    from repro.analysis import analyze_registry
    from repro.config import DeviceProfile, GCConfig, VMConfig
    from repro.core.monitor import ExecutionMonitor
    from repro.units import MB
    from repro.vm.session import LocalSession

    def hottest_cross_edge(graph, pinned):
        best, best_bytes = None, -1.0
        for (a, b), edge in graph.edges():
            if (a in pinned) != (b in pinned) and edge.bytes > best_bytes:
                best, best_bytes = (a, b), edge.bytes
        return best, max(best_bytes, 0.0)

    apps = {}
    matches = 0
    for app in _static_prediction_apps():
        config = VMConfig(
            device=DeviceProfile("pc", cpu_speed=1.0,
                                 heap_capacity=64 * MB),
            gc=GCConfig(), monitoring_event_cost=0.0,
        )
        session = LocalSession(config)
        monitor = ExecutionMonitor()
        session.add_listener(monitor)
        app.install(session.registry)
        app.main(session.ctx)
        report = analyze_registry(session.registry, app)
        predicted = report.analysis.weighted_graph
        measured = monitor.graph
        pinned = report.closure.must

        measured_bytes = {key: edge.bytes for key, edge in measured.edges()
                          if edge.bytes > 0}
        xs, ys = [], []
        for key, mbytes in measured_bytes.items():
            xs.append(mbytes)
            ys.append(
                predicted.edge_bytes(*key)
                if predicted.has_node(key[0]) and predicted.has_node(key[1])
                else 0.0
            )
        rho = _spearman(xs, ys)

        measured_top, measured_top_bytes = hottest_cross_edge(
            measured, pinned
        )
        predicted_top, predicted_top_bytes = hottest_cross_edge(
            predicted, pinned
        )
        match = measured_top is not None and measured_top == predicted_top
        matches += bool(match)
        apps[app.name] = {
            "measured_edges": len(measured_bytes),
            "spearman_rho": rho,
            "top1_measured": list(measured_top) if measured_top else None,
            "top1_measured_bytes": measured_top_bytes,
            "top1_predicted": list(predicted_top) if predicted_top else None,
            "top1_predicted_bytes": predicted_top_bytes,
            "top1_match": match,
            "predicted_cross_traffic_bytes":
                report.analysis.seed.predicted_cross_traffic,
        }

    return {
        "apps": apps,
        "top1_matches": matches,
        "top1_required": STATIC_TOP1_MIN_MATCHES,
        "top1_ok": matches >= STATIC_TOP1_MIN_MATCHES,
        "rho_min": STATIC_RHO_MIN,
        "rho_gated_apps": list(STATIC_RHO_GATED_APPS),
        "rank_correlation_ok": all(
            apps[name]["spearman_rho"] >= STATIC_RHO_MIN
            for name in STATIC_RHO_GATED_APPS
        ),
    }


def chatty_trace(widgets: int = 40, sweeps: int = 60):
    """A chatty remote-heavy trace: dia's early-trigger pattern distilled.

    A UI driver repeatedly walks an offloaded widget tree — one dispatch
    and a handful of small geometry reads per widget per sweep, with an
    occasional dirty-widget update — and per-event CPU is negligible,
    so completion time is dominated by cross-site interaction cost (the
    regime the paper measures after a partition is chosen).
    """
    from repro.emulator.events import (
        AccessEvent, AllocEvent, InvokeEvent, WorkEvent,
    )
    from repro.emulator import ColumnarTrace

    main = "<main>"
    trace = ColumnarTrace(app_name="chatty-ui",
                          class_traits={"gui.Widget": {}, "gui.Style": {}})
    oid = 1
    widget_oids = []
    for _ in range(widgets):
        trace.append(AllocEvent(oid, "gui.Widget", 256, main, None))
        widget_oids.append(oid)
        oid += 1
    style_oid = oid
    trace.append(AllocEvent(style_oid, "gui.Style", 512, main, None))
    for sweep in range(sweeps):
        dirty = widget_oids[sweep % len(widget_oids)]
        trace.append(AccessEvent(main, None, "gui.Widget", dirty,
                                 16, True, False))
        for w in widget_oids:
            trace.append(InvokeEvent(main, None, "gui.Widget", w, "paint",
                                     "instance", False, 16, 8))
            trace.append(WorkEvent("gui.Widget", w, 2e-5))
            for _ in range(3):
                trace.append(AccessEvent(main, None, "gui.Widget", w,
                                         24, False, False))
            trace.append(AccessEvent(main, None, "gui.Style", style_oid,
                                     32, False, False))
    return trace


def _replay_summary(result) -> dict:
    summary = {
        "total_time_s": result.total_time,
        "comm_time_s": result.comm_time,
        "remote_accesses": result.remote_accesses,
        "remote_invocations": result.remote_invocations,
        "completed": result.completed,
    }
    if result.data_plane is not None:
        stats = result.data_plane.as_dict()
        summary["rtts_saved"] = stats["rtts_saved"]
        summary["bytes_saved"] = stats["bytes_saved"]
        summary["cache_hit_rate"] = stats["cache_hit_rate"]
        summary["coalesced_batches"] = stats["batches"]
    return summary


def bench_rpc(rounds: int) -> dict:
    """Cross-site data-plane benchmark: coalescing + remote-read caching.

    Two scenarios, both replayed naive and optimised:

    * ``chatty`` — the synthetic chatty remote-heavy trace above, with
      the widget classes force-offloaded early.  Completion time here
      *is* data-plane time, so the ``completion_ratio`` guard (>= 2x)
      measures the optimisations directly.
    * ``dia_early_trigger`` — the real Dia trace under the Figure 7
      early trigger, reporting end-to-end totals and savings (CPU
      dominates this trace, so the ratio is small by construction).
    """
    from dataclasses import replace as dc_replace

    from repro.core.policy import OffloadPolicy, TriggerConfig
    from repro.emulator.replay import EmulatorConfig
    from repro.rpc.batch import DataPlaneConfig

    optimised = DataPlaneConfig(coalescing=True, read_cache=True)

    trace = chatty_trace()
    chatty_config = EmulatorConfig(
        offload_at_event=len(trace.events) // 120,
        forced_offload_nodes=frozenset({"gui.Widget", "gui.Style"}),
    )
    emulator = Emulator(trace)
    naive = emulator.replay(chatty_config)
    opt = emulator.replay(dc_replace(chatty_config, data_plane=optimised))
    ratio = naive.total_time / opt.total_time if opt.total_time else 0.0
    chatty = {
        "events": len(trace),
        "naive": _replay_summary(naive),
        "optimized": _replay_summary(opt),
        "completion_ratio": ratio,
        "speedup_ok": ratio >= RPC_MIN_SPEEDUP,
    }

    dia = cached_trace("dia", MEMORY_WORKLOADS["dia"])
    early = OffloadPolicy(TriggerConfig(free_threshold=0.50, tolerance=1),
                          0.20)
    dia_config = memory_emulator_config(policy=early)
    dia_emulator = Emulator(dia)
    dia_naive = dia_emulator.replay(dia_config)
    dia_opt_config = dc_replace(dia_config, data_plane=optimised)
    dia_opt = dia_emulator.replay(dia_opt_config)
    dia_section = {
        "events": len(dia),
        "naive": _replay_summary(dia_naive),
        "optimized": _replay_summary(dia_opt),
        "comm_ratio": (dia_naive.comm_time / dia_opt.comm_time
                       if dia_opt.comm_time else 0.0),
    }

    throughput = _time(lambda: dia_emulator.replay(dia_opt_config), rounds)
    return {
        "chatty": chatty,
        "dia_early_trigger": dia_section,
        "replay_events_per_second": len(dia) / throughput["mean_s"],
    }


def _offloadable_nodes(trace, top_n: int = 3) -> frozenset:
    """The ``top_n`` unpinned classes by allocated bytes.

    Forcing these onto the surrogate guarantees the fault scenarios
    have real remote state to lose (the memory partitioning policy
    refuses to offload these traces on a 64 MB client, where there is
    no pressure to relieve).
    """
    from repro.emulator.events import AllocEvent

    pinned = set(trace.pinned_classes(stateless_natives_ok=False))
    pinned.add("<main>")
    sizes: dict = {}
    for event in trace.events:
        if isinstance(event, AllocEvent) and event.class_name not in pinned:
            sizes[event.class_name] = sizes.get(event.class_name, 0) + event.size
    return frozenset(sorted(sizes, key=sizes.get, reverse=True)[:top_n])


def _fault_run_summary(result) -> dict:
    summary = {
        "total_time_s": result.total_time,
        "comm_time_s": result.comm_time,
        "completed": result.completed,
        "offloads": result.offload_count,
    }
    if result.faults is not None:
        fr = result.faults
        summary.update({
            "spec": fr.spec,
            "fault_time_s": fr.fault_time_s,
            "retries": fr.retries,
            "timeouts": fr.timeouts,
            "duplicates_suppressed": fr.duplicates_suppressed,
            "surrogate_lost": fr.surrogate_lost,
            "lost_reason": fr.lost_reason,
            "recoveries": fr.recoveries,
            "objects_repatriated": fr.objects_repatriated,
            "repatriated_bytes": fr.repatriated_bytes,
            "downtime_s": fr.downtime_s,
        })
    return summary


def bench_faults() -> dict:
    """Fault injection: dia/javanote under crash-at-peak and 5% loss.

    Four runs per application — all-local baseline, clean offloaded,
    surrogate crash at peak remote residency, and a 5% lossy link —
    plus a fifth that repeats the lossy run to check bit-identical
    determinism.  The guards every report must satisfy:

    * every run **completes** (faults degrade, they never wedge);
    * **graceful**: a faulty run's useful-work time (total minus the
      charged retry/backoff/downtime) lands no worse than the slower of
      the two pure strategies (all-local and clean offloaded) — the
      degraded run sits between the endpoints, not beyond them;
    * **deterministic**: identical seed and spec give a byte-identical
      :meth:`EmulationResult.fingerprint`.
    """
    from dataclasses import replace as dc_replace

    from repro.emulator import FaultSpec
    from repro.experiments.common import cpu_emulator_config

    results = {}
    for app in ("dia", "javanote"):
        trace = cached_trace(app, MEMORY_WORKLOADS[app])
        events = len(trace.events)
        offload_at = max(1, events // 10)
        nodes = _offloadable_nodes(trace)
        config = dc_replace(
            cpu_emulator_config(offload_at_event=offload_at),
            forced_offload_nodes=nodes,
        )
        emulator = Emulator(trace)
        baseline = emulator.replay(
            dc_replace(config, offload_enabled=False)
        )
        clean = emulator.replay(config)
        crash_spec = FaultSpec(seed=7, crash_at_event=2 * offload_at)
        crash = emulator.replay(config.with_faults(crash_spec))
        loss_spec = FaultSpec(seed=1, loss_rate=0.05)
        loss = emulator.replay(config.with_faults(loss_spec))
        rerun = emulator.replay(config.with_faults(loss_spec))

        envelope = max(baseline.total_time, clean.total_time)
        graceful = all(
            faulty.total_time - faulty.fault_time
            <= envelope * FAULT_GUARD_TOLERANCE
            for faulty in (crash, loss)
        )
        results[app] = {
            "events": events,
            "offload_nodes": sorted(nodes),
            "baseline_local": _fault_run_summary(baseline),
            "clean": _fault_run_summary(clean),
            "crash_at_peak": _fault_run_summary(crash),
            "loss_5pct": _fault_run_summary(loss),
            "all_completed": all(r.completed for r in
                                 (baseline, clean, crash, loss)),
            "graceful_ok": graceful,
            "deterministic": loss.fingerprint() == rerun.fingerprint(),
        }
    return results


def roaming_trace(widgets: int = 12, sweeps: int = 80,
                  paint_s: float = 0.03):
    """A compute-heavy UI trace for the mobility scenarios.

    Unlike :func:`chatty_trace` (communication-bound), every paint here
    carries real CPU work, so the 3.5x surrogate makes remote execution
    the winning strategy *as long as the link is good*: remote-on-WaveLAN
    beats local, local beats remote-on-WAN.  That ordering is what makes
    the mobility policies distinguishable — proactive repatriation gives
    up the fast surrogate, doing nothing strands the client behind a
    high-latency WAN, and a surrogate-to-surrogate handoff keeps both
    the 3.5x CPU and the short link.
    """
    from repro.emulator.events import (
        AccessEvent, AllocEvent, InvokeEvent, WorkEvent,
    )
    from repro.emulator import ColumnarTrace

    main = "<main>"
    trace = ColumnarTrace(app_name="roaming-ui",
                          class_traits={"gui.Widget": {}, "gui.Style": {}})
    oid = 1
    widget_oids = []
    for _ in range(widgets):
        trace.append(AllocEvent(oid, "gui.Widget", 256, main, None))
        widget_oids.append(oid)
        oid += 1
    style_oid = oid
    trace.append(AllocEvent(style_oid, "gui.Style", 512, main, None))
    for _ in range(sweeps):
        for w in widget_oids:
            trace.append(InvokeEvent(main, None, "gui.Widget", w, "paint",
                                     "instance", False, 16, 8))
            trace.append(WorkEvent("gui.Widget", w, paint_s))
            trace.append(AccessEvent(main, None, "gui.Style", style_oid,
                                     32, False, False))
    return trace


def _mobility_run_summary(result) -> dict:
    summary = {
        "total_time_s": result.total_time,
        "comm_time_s": result.comm_time,
        "migration_time_s": result.migration_time,
        "completed": result.completed,
    }
    if result.mobility is not None:
        summary["mobility"] = result.mobility.as_dict()
    return summary


def bench_mobility(quick: bool = False) -> dict:
    """Mobility scenarios: a roaming client against time-varying links.

    Five runs of the compute-heavy roaming trace:

    * ``static`` — constant WaveLAN, the stay-put baseline;
    * ``roam_no_action`` — the link ramps WaveLAN -> WAN mid-run and
      nothing reacts (the client drags its traffic over the WAN);
    * ``roam_handoff`` — the bandwidth-trend trigger fires and the
      offloaded partition streams surrogate-to-surrogate over the
      backhaul, putting the client back on a short link;
    * ``roam_repatriate`` — the same trigger proactively pulls state
      home instead, then re-offloads when the link recovers;
    * ``disconnect`` — the named ``wavelan-wan-roam`` profile, whose
      disconnection window exercises graceful loss recovery under
      roaming.

    Gates: handoff strictly beats both alternatives, stays within
    ``MOBILITY_MAX_SLOWDOWN`` of static, serial and sharded replay
    fingerprints agree on the handoff run, a rerun is
    bit-identical, and the disconnection run completes.
    """
    from repro.emulator import MobilityConfig, ShardedReplayer, replicate
    from repro.emulator.replay import EmulatorConfig, TraceReplayer
    from repro.net import WAVELAN_WAN_ROAM, LinkProfile

    trace = roaming_trace(sweeps=40 if quick else 80)
    roam = LinkProfile.parse(
        "step=0:wavelan,ramp=4:8:wavelan:wan,step=16:wavelan"
    )
    base = EmulatorConfig(
        offload_at_event=len(trace.events) // 120,
        forced_offload_nodes=frozenset({"gui.Widget", "gui.Style"}),
    )
    handoff_config = base.with_profile(roam, MobilityConfig(mode="handoff"))

    static = TraceReplayer(trace, base).run()
    no_action = TraceReplayer(trace, base.with_profile(roam)).run()
    handoff = TraceReplayer(trace, handoff_config).run()
    repatriate = TraceReplayer(
        trace, base.with_profile(roam, MobilityConfig(mode="repatriate"))
    ).run()
    disconnect = TraceReplayer(
        trace,
        base.with_profile(WAVELAN_WAN_ROAM, MobilityConfig(mode="handoff")),
    ).run()

    # Parity: the handoff run must fingerprint identically through a
    # sharded replay.
    shards = replicate(trace, handoff_config, clients=2)
    sharded = ShardedReplayer(shards, workers=1).run()
    sharded_fps = {c.result.fingerprint() for c in sharded.clients}
    parity = sharded_fps == {handoff.fingerprint()}
    rerun = TraceReplayer(trace, handoff_config).run()

    ratio = (handoff.total_time / static.total_time
             if static.total_time else 0.0)
    fr = disconnect.faults
    return {
        "trace": "roaming-ui",
        "events": len(trace.events),
        "profile": roam.canonical(),
        "static": _mobility_run_summary(static),
        "roam_no_action": _mobility_run_summary(no_action),
        "roam_handoff": _mobility_run_summary(handoff),
        "roam_repatriate": _mobility_run_summary(repatriate),
        "disconnect": _mobility_run_summary(disconnect),
        "handoff_vs_static_ratio": ratio,
        "handoff_beats_no_action": bool(
            handoff.total_time < no_action.total_time
        ),
        "handoff_beats_repatriate": bool(
            handoff.total_time < repatriate.total_time
        ),
        "completion_bound_ok": bool(
            handoff.completed and ratio <= MOBILITY_MAX_SLOWDOWN
        ),
        "fingerprint_parity": parity,
        "deterministic": handoff.fingerprint() == rerun.fingerprint(),
        "disconnect_recovered": bool(
            disconnect.completed
            and (fr is None or not fr.surrogate_lost or fr.recoveries > 0)
        ),
    }


def validate_report(report: dict) -> list:
    """Schema check: every required section and key, plus the guards."""
    problems = []
    for section, keys in REQUIRED_SECTIONS.items():
        body = report.get(section)
        if not isinstance(body, dict):
            problems.append(f"missing section {section!r}")
            continue
        for key in keys:
            if key not in body:
                problems.append(f"section {section!r} lacks key {key!r}")
    chatty = report.get("rpc", {}).get("chatty")
    if isinstance(chatty, dict) and not chatty.get("speedup_ok"):
        problems.append(
            f"rpc.chatty completion ratio "
            f"{chatty.get('completion_ratio', 0.0):.2f} is below "
            f"{RPC_MIN_SPEEDUP}x"
        )
    cold = report.get("cold_start")
    if isinstance(cold, dict) and not cold.get("seeded_matches_or_beats"):
        problems.append("cold-start seeding regressed the dia scenario")
    reeval = report.get("reeval")
    if isinstance(reeval, dict):
        # Warm/cold inversion gate: an incremental session whose
        # steady-state epoch is slower than a cold run is strictly
        # worse than not having a warm path; fail the report.
        for size, body in sorted(reeval.items()):
            if not isinstance(body, dict):
                continue
            steady = body.get("steady_epoch_mean_s")
            cold_s = body.get("cold_epoch_s")
            if (isinstance(steady, (int, float))
                    and isinstance(cold_s, (int, float))
                    and steady > cold_s):
                problems.append(
                    f"reeval[{size}]: steady-state epoch mean "
                    f"{steady * 1e3:.1f} ms exceeds the cold epoch "
                    f"{cold_s * 1e3:.1f} ms (warm/cold inversion)"
                )
    parallel = report.get("replay_parallel")
    if isinstance(parallel, dict):
        if not parallel.get("floor_ok"):
            problems.append(
                f"replay_parallel aggregate throughput "
                f"{parallel.get('aggregate_events_per_second', 0.0):,.0f} "
                f"ev/s is below the floor (columnar speedup "
                f"{parallel.get('columnar_speedup', 0.0):.2f}x, retention "
                f"{parallel.get('retention_vs_columnar', 0.0):.2f})"
            )
        if not parallel.get("fingerprint_parity"):
            problems.append(
                "replay_parallel: serial/columnar/sharded replay "
                "fingerprints diverged"
            )
    fleet = report.get("fleet")
    if isinstance(fleet, dict):
        if not fleet.get("fairness_ok"):
            problems.append(
                f"fleet: p99/p50 completion ratio "
                f"{fleet.get('fairness_ratio', 0.0):.2f} at "
                f"{fleet.get('gate_scale', '?')} exceeds "
                f"{FLEET_FAIRNESS_RATIO_MAX}"
            )
        if not fleet.get("fingerprint_stable"):
            problems.append(
                "fleet: fingerprint changed with the drive-side "
                "worker count"
            )
    static = report.get("static_prediction")
    if isinstance(static, dict):
        if not static.get("top1_ok"):
            problems.append(
                f"static_prediction: hottest cross-partition edge "
                f"matched on only {static.get('top1_matches', 0)} of "
                f"{len(static.get('apps', {}))} apps "
                f"(need {STATIC_TOP1_MIN_MATCHES})"
            )
        if not static.get("rank_correlation_ok"):
            gated = static.get("rho_gated_apps",
                               list(STATIC_RHO_GATED_APPS))
            rhos = ", ".join(
                f"{name} "
                f"{static.get('apps', {}).get(name, {}).get('spearman_rho', 0.0):.2f}"
                for name in gated
            )
            problems.append(
                f"static_prediction: rank correlation below "
                f"{STATIC_RHO_MIN} ({rhos})"
            )
    faults = report.get("faults")
    if isinstance(faults, dict):
        for app, body in faults.items():
            if not isinstance(body, dict):
                continue
            if not body.get("all_completed"):
                problems.append(f"faults.{app}: a faulty run did not complete")
            if not body.get("graceful_ok"):
                problems.append(
                    f"faults.{app}: degraded run exceeded the "
                    f"baseline-plus-fault-time envelope"
                )
            if not body.get("deterministic"):
                problems.append(
                    f"faults.{app}: seeded fault replay was not "
                    f"bit-identical across two runs"
                )
    mobility = report.get("mobility")
    if isinstance(mobility, dict):
        if not mobility.get("handoff_beats_no_action"):
            problems.append(
                "mobility: proactive handoff did not beat riding out "
                "the degraded link"
            )
        if not mobility.get("handoff_beats_repatriate"):
            problems.append(
                "mobility: proactive handoff did not beat "
                "repatriate-then-reoffload"
            )
        if not mobility.get("completion_bound_ok"):
            problems.append(
                f"mobility: roaming handoff completion is "
                f"{mobility.get('handoff_vs_static_ratio', 0.0):.2f}x "
                f"static (bound {MOBILITY_MAX_SLOWDOWN}x)"
            )
        if not mobility.get("fingerprint_parity"):
            problems.append(
                "mobility: serial/columnar/sharded handoff replay "
                "fingerprints diverged"
            )
        if not mobility.get("deterministic"):
            problems.append(
                "mobility: handoff replay was not bit-identical "
                "across two runs"
            )
        if not mobility.get("disconnect_recovered"):
            problems.append(
                "mobility: the disconnection-window run did not "
                "recover gracefully"
            )
    return problems


def validate_checked_in(path: Path) -> list:
    """Schema problems with the checked-in report file.

    The CI smoke job fails on these: a *missing* or unparseable file is
    itself a regression (the bench trajectory must always carry a
    valid, current-schema report), and so is a file that predates a
    newly required section — the fix is to regenerate and commit it.
    """
    if not path.exists():
        return [
            f"checked-in {path.name} is missing "
            f"(regenerate with: python -m benchmarks.report)"
        ]
    try:
        checked_in = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"checked-in {path.name} is not valid JSON: {exc}"]
    if not isinstance(checked_in, dict):
        return [f"checked-in {path.name} is not a JSON object"]
    return [
        f"checked-in {path.name}: {problem} "
        f"(regenerate with: python -m benchmarks.report)"
        for problem in validate_report(checked_in)
    ]


def bench_replay(rounds: int) -> dict:
    trace = cached_trace("dia", MEMORY_WORKLOADS["dia"])
    emulator = Emulator(trace)
    config = memory_emulator_config()
    stats = _time(lambda: emulator.replay(config), rounds)
    stats["trace"] = "dia"
    stats["events"] = len(trace)
    stats["events_per_second"] = len(trace) / stats["mean_s"]
    return stats


def parallel_floor_verdict(
    aggregate_eps: float,
    serial_eps: float,
    columnar_eps: float,
    cpus: int,
) -> dict:
    """Evaluate the replay_parallel floor; records *which* clause passed.

    ``floor_reason`` names the first satisfied clause — ``"absolute"``,
    ``"serial-multiple"``, ``"columnar-retention"`` — or ``"none"`` when
    the floor fails.  The absolute 5M ev/s clause only applies on boxes
    with at least 4 CPUs: on a 1–2 core runner it is unreachable by
    construction, and reporting ``meets_absolute_floor: false`` there
    reads as a failure, so the clause is skipped and the field is None.
    """
    speedup = columnar_eps / serial_eps if serial_eps else 0.0
    retention = aggregate_eps / columnar_eps if columnar_eps else 0.0
    meets_absolute = (
        aggregate_eps >= PARALLEL_FLOOR_EPS if cpus >= 4 else None
    )
    if meets_absolute:
        floor_reason = "absolute"
    elif (serial_eps
          and aggregate_eps >= PARALLEL_SERIAL_MULTIPLE * serial_eps):
        floor_reason = "serial-multiple"
    elif (speedup >= PARALLEL_COLUMNAR_MIN_SPEEDUP
          and retention >= PARALLEL_RETENTION):
        floor_reason = "columnar-retention"
    else:
        floor_reason = "none"
    return {
        "columnar_speedup": speedup,
        "retention_vs_columnar": retention,
        "meets_absolute_floor": meets_absolute,
        "floor_ok": floor_reason != "none",
        "floor_reason": floor_reason,
    }


def bench_replay_parallel(rounds: int, serial_eps: float) -> dict:
    """Columnar + sharded replay throughput, with the floor gate.

    Replays dia three ways: "serial" is a one-shot
    ``TraceReplayer(ColumnarTrace.load("dia.jsonl"), config).run()``,
    the JSONL load included (what ``repro replay file.jsonl`` pays);
    "columnar" replays a trace already held in memory (what every
    replay after the first pays); "sharded" runs one shard per emulated client
    on a process pool.  Checks the three fingerprints agree
    bit-for-bit, and evaluates the aggregate-throughput floor:

    * absolute: >= ``PARALLEL_FLOOR_EPS`` aggregate events/s
      (only evaluated on boxes with >= 4 CPUs), or
    * relative: >= ``PARALLEL_SERIAL_MULTIPLE`` x the serial rate, or
    * machine-robust (small/loaded runners, where neither can fire):
      columnar beats serial by
      ``PARALLEL_COLUMNAR_MIN_SPEEDUP`` x *and* sharding retains
      ``PARALLEL_RETENTION`` of single-process columnar throughput.
    """
    import os
    import tempfile

    from repro.emulator import (
        ColumnarTrace, ShardedReplayer, TraceReplayer, replicate,
    )

    columnar = cached_trace("dia", MEMORY_WORKLOADS["dia"])
    config = memory_emulator_config()
    events = len(columnar)
    columnar_emulator = Emulator(columnar)
    columnar_fp = columnar_emulator.replay(config).fingerprint()
    with tempfile.TemporaryDirectory() as workdir:
        jsonl = Path(workdir) / "dia.jsonl"
        columnar.save(jsonl)

        def one_shot():
            return TraceReplayer(ColumnarTrace.load(jsonl), config).run()

        serial_fp = one_shot().fingerprint()
        # The serial rate is re-measured here, back-to-back with the
        # columnar rate, so the speedup compares like with like — the
        # ``replay`` section's number was taken under a different heap
        # and load (heavy graph benches run in between).
        serial_stats = _time(one_shot, rounds)
    serial_local_eps = events / serial_stats["mean_s"]
    col_stats = _time(lambda: columnar_emulator.replay(config), rounds)
    columnar_eps = events / col_stats["mean_s"]

    cpus = os.cpu_count() or 1
    clients = max(2, min(8, 2 * cpus))
    workers = min(cpus, clients)
    shards = replicate(columnar, config, clients=clients)
    best = None
    for _ in range(max(2, rounds // 2)):
        aggregate = ShardedReplayer(shards, workers=workers).run()
        if best is None or aggregate.events_per_second > best.events_per_second:
            best = aggregate
    sharded_fps = {c.result.fingerprint() for c in best.clients}
    parity = sharded_fps == {serial_fp} and columnar_fp == serial_fp

    aggregate_eps = best.events_per_second
    verdict = parallel_floor_verdict(
        aggregate_eps, serial_local_eps, columnar_eps, cpus
    )
    return {
        "trace": "dia",
        "events": events,
        "clients": clients,
        "workers": best.workers,
        "cpus": cpus,
        "replay_section_events_per_second": serial_eps,
        "serial_events_per_second": serial_local_eps,
        "columnar_events_per_second": columnar_eps,
        "aggregate_events_per_second": aggregate_eps,
        "aggregate_wall_s": best.wall_time_s,
        "fingerprint_parity": parity,
        **verdict,
    }


def bench_fleet(quick: bool = False) -> dict:
    """Fleet emulation: N dia clients sharing M surrogates.

    Sweeps fleet sizes (clients, surrogates), reporting per-scale p50
    and p99 client completion, the p99/p50 fairness ratio, and the
    host-side aggregate emulation throughput.  Two gates:

    * **fairness** — at the reference scale (``FLEET_GATE_SCALE``) the
      deficit-round-robin scheduler must hold p99/p50 within
      ``FLEET_FAIRNESS_RATIO_MAX``;
    * **determinism** — the fleet fingerprint at the reference scale is
      bit-identical when the drive-side replay runs on one worker and
      on several (virtual time never depends on host parallelism).
    """
    from repro.emulator import FleetConfig, FleetEmulator, replicate

    trace = cached_trace("dia", MEMORY_WORKLOADS["dia"])
    config = memory_emulator_config()
    scales = QUICK_FLEET_SCALES if quick else FLEET_SCALES

    def run(clients: int, surrogates: int, workers: int):
        shards = replicate(trace, config, clients=clients)
        fleet_config = FleetConfig(surrogates=surrogates)
        return FleetEmulator(shards, fleet_config, workers=workers).run()

    section = {"trace": "dia", "events_per_client": len(trace),
               "scales": {}}
    gate = None
    for clients, surrogates in scales:
        result = run(clients, surrogates, workers=1)
        key = f"n{clients}_m{surrogates}"
        section["scales"][key] = {
            "clients": clients,
            "surrogates": surrogates,
            "completed": result.completed_clients,
            "rejected": result.rejected_clients,
            "p50_completion_s": result.p50_completion_s,
            "p99_completion_s": result.p99_completion_s,
            "fairness_ratio": result.fairness_ratio,
            "mean_admission_wait_s": result.mean_admission_wait_s,
            "makespan_s": result.makespan_s,
            "evictions": result.total_evictions,
            "rebalances": result.rebalances,
            "distinct_profiles": result.distinct_profiles,
            "wall_s": result.wall_time_s,
            "aggregate_events_per_second": result.events_per_second,
        }
        if key == FLEET_GATE_SCALE:
            gate = result
    if gate is None:  # pragma: no cover - scales always include the gate
        raise RuntimeError(f"fleet sweep missed {FLEET_GATE_SCALE}")
    twin = run(100, 4, workers=2)
    section["gate_scale"] = FLEET_GATE_SCALE
    section["fairness_ratio"] = gate.fairness_ratio
    section["fairness_ok"] = bool(
        gate.fairness_ratio <= FLEET_FAIRNESS_RATIO_MAX
    )
    section["fingerprint"] = gate.fingerprint()
    section["fingerprint_stable"] = (
        twin.fingerprint() == gate.fingerprint()
    )
    return section


def build_report(rounds: int, quick: bool = False) -> dict:
    replay = bench_replay(rounds)
    return {
        "report": "hotpath",
        "units": "seconds",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "partitioner_latency": bench_partitioner(
            rounds, sizes=QUICK_PARTITIONER_SIZES if quick else PARTITIONER_SIZES
        ),
        "reeval": bench_reeval(
            sizes=QUICK_REEVAL_SIZES if quick else REEVAL_SIZES
        ),
        "replay": replay,
        "replay_parallel": bench_replay_parallel(
            rounds, replay["events_per_second"]
        ),
        "cold_start": bench_cold_start(),
        "static_prediction": bench_static_prediction(),
        "rpc": bench_rpc(rounds),
        "faults": bench_faults(),
        "fleet": bench_fleet(quick=quick),
        "mobility": bench_mobility(quick=quick),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.report",
        description="Measure hot paths and write BENCH_hotpath.json",
    )
    parser.add_argument(
        "--rounds", type=int, default=10,
        help="timing rounds per measurement (default: 10)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: fewest rounds and sizes, validate the "
             "report schema (including the checked-in file) instead of "
             "rewriting it; exit non-zero on schema regressions",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help=f"output path (default: <repo>/{REPORT_NAME}; "
             "not written in --quick mode unless given explicitly)",
    )
    args = parser.parse_args(argv)
    default_output = Path(__file__).resolve().parent.parent / REPORT_NAME
    rounds = 2 if args.quick else max(1, args.rounds)
    report = build_report(rounds, quick=args.quick)

    problems = validate_report(report)
    if args.quick:
        # The checked-in report is part of the gate: a file that
        # predates a newly required section (or went missing entirely)
        # must fail CI, not slide through unvalidated.
        problems.extend(validate_checked_in(default_output))
    if problems:
        for problem in problems:
            print(f"SCHEMA REGRESSION: {problem}")
        return 1

    output = args.output
    if output is None and not args.quick:
        output = default_output
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
    for size, stats in report["partitioner_latency"].items():
        print(f"partitioner {size:>5} nodes: {stats['mean_s'] * 1e3:8.2f} ms "
              f"mean over {stats['rounds']} rounds "
              f"({stats['candidates']} candidates)")
    for size, stats in report["reeval"].items():
        print(f"reeval      {size:>5} nodes: "
              f"cold {stats['cold_epoch_s'] * 1e3:8.2f} ms, "
              f"warm {stats['warm_epoch_mean_s'] * 1e3:8.2f} ms mean "
              f"({stats['warm_hits']}/{stats['epochs']} warm hits)")
    replay = report["replay"]
    print(f"replay {replay['trace']}: {replay['events_per_second']:,.0f} "
          f"events/s over {replay['events']} events")
    parallel = report["replay_parallel"]
    print(f"replay parallel: columnar "
          f"{parallel['columnar_events_per_second']:,.0f} ev/s "
          f"({parallel['columnar_speedup']:.2f}x serial), aggregate "
          f"{parallel['aggregate_events_per_second']:,.0f} ev/s over "
          f"{parallel['clients']} clients / {parallel['workers']} workers "
          f"[{'ok' if parallel['floor_ok'] else 'BELOW FLOOR'}"
          f"{', parity' if parallel['fingerprint_parity'] else ', FINGERPRINT MISMATCH'}]")
    cold = report["cold_start"]
    print(f"cold-start dia (early trigger): "
          f"unseeded {cold['unseeded']['total_time_s']:.1f}s vs "
          f"seeded {cold['seeded']['total_time_s']:.1f}s "
          f"({'ok' if cold['seeded_matches_or_beats'] else 'REGRESSION'})")
    static = report["static_prediction"]
    for name, body in static["apps"].items():
        top = body["top1_predicted"]
        print(f"static {name:>14}: rho {body['spearman_rho']:5.2f}, "
              f"top-1 cross edge "
              f"{'-'.join(top) if top else '(none)':40s} "
              f"[{'match' if body['top1_match'] else 'MISS'}]")
    print(f"static prediction: top-1 matched on "
          f"{static['top1_matches']}/{len(static['apps'])} apps "
          f"[{'ok' if static['top1_ok'] else 'BELOW TARGET'}"
          f"{', ranks ok' if static['rank_correlation_ok'] else ', RANK REGRESSION'}]")
    rpc = report["rpc"]
    chatty = rpc["chatty"]
    print(f"rpc chatty remote-heavy: "
          f"naive {chatty['naive']['total_time_s']:.2f}s vs "
          f"optimized {chatty['optimized']['total_time_s']:.2f}s "
          f"= {chatty['completion_ratio']:.2f}x "
          f"({'ok' if chatty['speedup_ok'] else 'BELOW TARGET'})")
    dia_rpc = rpc["dia_early_trigger"]
    print(f"rpc dia early-trigger: comm "
          f"{dia_rpc['naive']['comm_time_s']:.2f}s -> "
          f"{dia_rpc['optimized']['comm_time_s']:.2f}s, "
          f"{dia_rpc['optimized'].get('rtts_saved', 0)} round trips saved, "
          f"cache hit rate "
          f"{dia_rpc['optimized'].get('cache_hit_rate', 0.0):.2f}")
    for app, body in report["faults"].items():
        crash = body["crash_at_peak"]
        loss = body["loss_5pct"]
        print(f"faults {app}: baseline "
              f"{body['baseline_local']['total_time_s']:.1f}s, "
              f"crash-at-peak {crash['total_time_s']:.1f}s "
              f"({crash['objects_repatriated']} objects repatriated), "
              f"5% loss {loss['total_time_s']:.1f}s "
              f"({loss['retries']} retries) "
              f"[{'ok' if body['graceful_ok'] and body['all_completed'] else 'REGRESSION'}"
              f"{', deterministic' if body['deterministic'] else ', NON-DETERMINISTIC'}]")
    fleet = report["fleet"]
    for key, scale in fleet["scales"].items():
        print(f"fleet {key:>10}: p50 {scale['p50_completion_s']:9.1f}s, "
              f"p99 {scale['p99_completion_s']:9.1f}s "
              f"(ratio {scale['fairness_ratio']:.2f}), "
              f"{scale['aggregate_events_per_second'] / 1e6:7.1f}M ev/s")
    print(f"fleet gate {fleet['gate_scale']}: fairness "
          f"{fleet['fairness_ratio']:.2f} <= {FLEET_FAIRNESS_RATIO_MAX} "
          f"[{'ok' if fleet['fairness_ok'] else 'UNFAIR'}"
          f"{', stable' if fleet['fingerprint_stable'] else ', FINGERPRINT DRIFT'}]")
    mobility = report["mobility"]
    print(f"mobility roaming: static "
          f"{mobility['static']['total_time_s']:.1f}s, "
          f"no-action {mobility['roam_no_action']['total_time_s']:.1f}s, "
          f"handoff {mobility['roam_handoff']['total_time_s']:.1f}s, "
          f"repatriate {mobility['roam_repatriate']['total_time_s']:.1f}s, "
          f"disconnect {mobility['disconnect']['total_time_s']:.1f}s")
    mobility_ok = all(mobility[k] for k in REQUIRED_SECTIONS["mobility"])
    print(f"mobility gate: handoff at "
          f"{mobility['handoff_vs_static_ratio']:.2f}x static "
          f"(bound {MOBILITY_MAX_SLOWDOWN}x) "
          f"[{'ok' if mobility_ok else 'REGRESSION'}"
          f"{', parity' if mobility['fingerprint_parity'] else ', FINGERPRINT MISMATCH'}]")
    if output is not None:
        print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
