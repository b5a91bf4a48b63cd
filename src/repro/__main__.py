"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro list
    python -m repro table1 fig5
    python -m repro all
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict


def _table1() -> str:
    from .experiments import format_catalog, run_catalog

    return format_catalog(run_catalog())


def _fig5() -> str:
    from .experiments import format_memory_rescue, run_memory_rescue

    return format_memory_rescue(run_memory_rescue())


def _fig6() -> str:
    from .experiments import format_overheads, run_all_overheads

    return format_overheads(run_all_overheads())


def _fig7() -> str:
    from .experiments import format_policy_sweeps, run_all_policy_sweeps

    return format_policy_sweeps(run_all_policy_sweeps())


def _fig8() -> str:
    from .experiments import format_native_shares, run_all_native_shares

    return format_native_shares(run_all_native_shares())


def _table2() -> str:
    from .experiments import format_monitoring, run_monitoring_overhead

    return format_monitoring(run_monitoring_overhead())


def _fig10() -> str:
    from .experiments import format_cpu_offloads, run_all_cpu_offloads

    return format_cpu_offloads(run_all_cpu_offloads())


EXPERIMENTS: Dict[str, Callable[[], str]] = {
    "table1": _table1,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "table2": _table2,
    "fig10": _fig10,
}

DESCRIPTIONS = {
    "table1": "application catalog",
    "fig5": "JavaNote memory rescue (prototype)",
    "fig6": "remote execution overhead, initial policy",
    "fig7": "policy sweep (slowest: ~30s)",
    "fig8": "native share of remote invocations",
    "table2": "execution metrics + monitoring overhead",
    "fig10": "offloading under processing constraints",
}


def _record(app_name: str, path: str) -> int:
    from .apps import ALL_APPLICATIONS
    from .emulator import record_application

    by_name = {cls().name: cls for cls in ALL_APPLICATIONS}
    if app_name not in by_name:
        print(f"unknown application {app_name!r}; one of "
              f"{', '.join(sorted(by_name))}", file=sys.stderr)
        return 2
    trace = record_application(by_name[app_name]())
    trace.save(path)
    print(f"recorded {len(trace)} events from {app_name!r} to {path}")
    return 0


def _load_trace(source: str):
    """Load a saved trace file (JSONL or .ctrace), or record a bundled
    app by name."""
    import os

    from .emulator import ColumnarTrace

    if os.path.exists(source):
        return ColumnarTrace.load(source)
    from .apps import ALL_APPLICATIONS
    from .emulator import record_application

    by_name = {cls().name: cls for cls in ALL_APPLICATIONS}
    if source in by_name:
        return record_application(by_name[source]())
    raise FileNotFoundError(
        f"{source!r} is neither a trace file nor a bundled app "
        f"(apps: {', '.join(sorted(by_name))})")


def _load_checked(source: str):
    """Load or record ``source`` and decode (and so check) its columns."""
    trace = _load_trace(source)
    trace.column_lists()
    return trace


def _trace_command(command: Callable[..., int], *args, **kwargs) -> int:
    """Run a command that records, loads or replays a trace.  A missing
    source or a malformed trace is one stderr line and exit 2, whether
    loading, decoding or replaying found it."""
    from .errors import TraceFormatError

    try:
        return command(*args, **kwargs)
    except (FileNotFoundError, TraceFormatError) as exc:
        print(exc, file=sys.stderr)
        return 2


def _convert(src: str, dst: str) -> int:
    """``trace convert``: JSONL <-> columnar, by destination suffix."""
    trace = _load_checked(src)
    trace.save(dst)
    kind = "columnar" if dst.endswith(".ctrace") else "jsonl"
    print(f"converted {len(trace)} events of {trace.app_name!r} "
          f"to {kind} at {dst}")
    return 0


def _replay(source: str, heap_mb: float, offload: bool,
            faults: str = None, workers: int = 1, clients: int = 1,
            link_profile: str = None, mobility: str = "handoff") -> int:
    from .config import DeviceProfile
    from .emulator import (
        Emulator, EmulatorConfig, MobilityConfig, ShardedReplayer,
        replicate,
    )
    from .net.faults import FaultSpec
    from .net.mobility import LinkProfile
    from .units import MB

    trace = _load_checked(source)
    config = EmulatorConfig(
        client=DeviceProfile("client-dev", cpu_speed=1.0,
                             heap_capacity=int(heap_mb * MB)),
        offload_enabled=offload,
    )
    if faults:
        from .errors import ConfigurationError

        try:
            config = config.with_faults(FaultSpec.parse(faults))
        except (ConfigurationError, ValueError) as exc:
            print(f"bad --faults spec: {exc}", file=sys.stderr)
            return 2
    if link_profile:
        from .errors import ConfigurationError

        try:
            profile = LinkProfile.parse(link_profile)
            mob = None if mobility == "none" else MobilityConfig(mode=mobility)
            config = config.with_profile(profile, mob)
        except (ConfigurationError, ValueError) as exc:
            print(f"bad --link-profile spec: {exc}", file=sys.stderr)
            return 2
    if clients > 1 or workers > 1:
        shards = replicate(trace, config, clients=max(clients, 1))
        aggregate = ShardedReplayer(shards, workers=workers).run()
        print(f"replayed {aggregate.events_processed} events of "
              f"{trace.app_name!r} across {len(shards)} client(s) "
              f"on {aggregate.workers} worker(s)")
        print(f"  completed: {aggregate.completed_clients}/"
              f"{len(shards)} clients "
              f"({aggregate.oom_clients} out of memory)")
        print(f"  wall time: {aggregate.wall_time_s:.2f}s "
              f"({aggregate.events_per_second / 1e6:.2f}M ev/s aggregate)")
        print(f"  fingerprint: {aggregate.fingerprint()}")
        return 0 if aggregate.completed_clients == len(shards) else 1
    result = Emulator(trace).replay(config)
    print(f"replayed {result.events_processed} events of "
          f"{trace.app_name!r} (heap {heap_mb:g}MB, "
          f"offload={'on' if offload else 'off'})")
    print(f"  completed: {result.completed}"
          + ("" if result.completed else
             f" (out of memory at t={result.oom_time:.1f}s)"))
    print(f"  total time: {result.total_time:.1f}s "
          f"(comm {result.comm_time:.1f}s, "
          f"migration {result.migration_time:.1f}s)")
    print(f"  offloads: {result.offload_count}, remote interactions: "
          f"{result.remote_interactions}")
    if result.mobility is not None:
        mr = result.mobility
        print(f"  mobility [{mr.profile}]: {mr.link_changes} link "
              f"change(s), {mr.trend_fires} trend fire(s)")
        if mr.handoffs or mr.proactive_repatriations or mr.reoffloads:
            print(f"    handoffs: {mr.handoffs} "
                  f"({mr.handoff_bytes} bytes, {mr.handoff_time_s:.2f}s), "
                  f"proactive repatriations: {mr.proactive_repatriations} "
                  f"({mr.proactively_repatriated_bytes} bytes), "
                  f"reoffloads: {mr.reoffloads}")
    if result.faults is not None:
        fr = result.faults
        print(f"  faults [{fr.spec}]: fault time {fr.fault_time_s:.1f}s, "
              f"{fr.retries} retries, {fr.timeouts} timeouts, "
              f"{fr.duplicates_suppressed} duplicates suppressed")
        if fr.surrogate_lost or fr.recoveries:
            print(f"    surrogate lost ({fr.lost_reason}): "
                  f"{fr.objects_repatriated} objects "
                  f"({fr.repatriated_bytes} bytes) repatriated, "
                  f"downtime {fr.downtime_s:.1f}s, "
                  f"{fr.rediscoveries} rediscoveries")
    return 0 if result.completed else 1


def _fleet_run(source: str, clients: int, surrogates: int,
               heap_mb: float, workers: int, cap: int, policy: str,
               surrogate_heap_mb: float) -> int:
    """``fleet run``: N trace-driven clients against M shared
    surrogates, with admission control, DRR fairness, and eviction."""
    from .config import DeviceProfile
    from .emulator import (
        EmulatorConfig, FleetConfig, FleetEmulator, replicate,
    )
    from .errors import ConfigurationError
    from .units import MB

    trace = _load_checked(source)
    config = EmulatorConfig(
        client=DeviceProfile("client-dev", cpu_speed=1.0,
                             heap_capacity=int(heap_mb * MB)),
        offload_enabled=True,
    )
    try:
        fleet_config = FleetConfig(
            surrogates=surrogates, admission_cap=cap,
            admission_policy=policy,
            heap_capacity=int(surrogate_heap_mb * MB),
        )
        emulator = FleetEmulator(
            replicate(trace, config, clients=max(clients, 1)),
            fleet_config, workers=workers)
    except ConfigurationError as exc:
        print(f"bad fleet configuration: {exc}", file=sys.stderr)
        return 2
    result = emulator.run()
    print(f"fleet: {len(result.outcomes)} client(s) of "
          f"{trace.app_name!r} on {surrogates} surrogate(s) "
          f"(cap {cap}, policy {policy})")
    print(f"  completed: {result.completed_clients}, "
          f"rejected: {result.rejected_clients}")
    print(f"  completion p50 {result.p50_completion_s:.1f}s, "
          f"p99 {result.p99_completion_s:.1f}s "
          f"(fairness p99/p50 {result.fairness_ratio:.2f})")
    print(f"  admission wait: {result.mean_admission_wait_s:.1f}s mean; "
          f"evictions: {result.total_evictions}, "
          f"rebalances: {result.rebalances}")
    print(f"  drive side: {result.replayed_events} events replayed "
          f"({result.distinct_profiles} distinct profile(s)) on "
          f"{result.workers} worker(s); "
          f"{result.events_per_second / 1e6:.2f}M ev/s aggregate")
    for warning in result.warnings:
        print(f"  note: {warning}")
    print(f"  fingerprint: {result.fingerprint()}")
    return 0 if result.rejected_clients == 0 else 1


def _analyze(app_name: str, json_path, sarif: bool = False) -> int:
    from .analysis import analyze_app

    try:
        report = analyze_app(app_name)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if sarif:
        rendered = report.to_sarif_json()
        if json_path is None or json_path == "-":
            print(rendered)
        else:
            with open(json_path, "w") as stream:
                stream.write(rendered + "\n")
            print(f"wrote SARIF analysis of {app_name!r} to {json_path}")
    elif json_path is None:
        print(report.to_text())
    elif json_path == "-":
        print(report.to_json())
    else:
        with open(json_path, "w") as stream:
            stream.write(report.to_json() + "\n")
        print(f"wrote analysis of {app_name!r} to {json_path}")
    return 1 if report.has_errors else 0


def _result_payload(name: str, output: str, elapsed: float) -> dict:
    return {"experiment": name, "elapsed_host_seconds": round(elapsed, 3),
            "report": output}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures from the ICDCS 2002 "
                    "AIDE paper, or record/replay workload traces.",
    )
    parser.add_argument(
        "targets", nargs="*",
        help="experiment names (see 'list'), 'all', "
             "'record <app> <path>', 'replay <path>', "
             "'trace convert <in> <out>', 'fleet run [<path|app>]', "
             "or 'analyze <app>'",
    )
    parser.add_argument("--heap-mb", type=float, default=6.0,
                        help="client heap for 'replay' (default 6)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="replay worker processes (default 1; >1 "
                             "shards clients across cores)")
    parser.add_argument("--clients", type=int, default=1, metavar="N",
                        help="emulated clients for 'replay' (default 1; "
                             "each replays the trace independently)")
    parser.add_argument("--format", dest="report_format", default="auto",
                        choices=("auto", "sarif"),
                        help="report format for 'analyze': 'sarif' "
                             "renders the diagnostics as a SARIF 2.1.0 "
                             "log (to --json PATH, or stdout)")
    parser.add_argument("--surrogates", type=int, default=4, metavar="M",
                        help="surrogate pool size for 'fleet run' "
                             "(default 4)")
    parser.add_argument("--admission-cap", type=int, default=8,
                        metavar="N",
                        help="concurrent clients per surrogate for "
                             "'fleet run' (default 8; 0 = serial under "
                             "the queue policy)")
    parser.add_argument("--admission-policy", default="queue",
                        choices=("queue", "reject"),
                        help="what a full surrogate does with a new "
                             "client (default: queue)")
    parser.add_argument("--surrogate-heap-mb", type=float, default=64.0,
                        metavar="MB",
                        help="shared heap per surrogate for 'fleet run' "
                             "(default 64)")
    parser.add_argument("--json", metavar="PATH", nargs="?", const="-",
                        help="write reports as JSON: to PATH, or to stdout "
                             "when PATH is omitted")
    parser.add_argument("--no-offload", action="store_true",
                        help="disable offloading for 'replay'")
    parser.add_argument("--faults", metavar="SPEC",
                        help="inject faults during 'replay': "
                             "seed=N,loss=R,spike=R:S,partition=S:E,"
                             "crash_at_event=N,crash_at_time=S")
    parser.add_argument("--link-profile", metavar="SPEC",
                        help="time-varying link for 'replay': a named "
                             "profile (e.g. wavelan-wan-roam) or "
                             "step=T:LINK,ramp=T0:T1:FROM:TO[:STEPS],"
                             "link=T:NAME:BPS:LAT,down=T0:T1")
    parser.add_argument("--mobility", default="handoff",
                        choices=("none", "handoff", "repatriate"),
                        help="reaction to a degrading link under "
                             "--link-profile (default: handoff)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    targets = args.targets or ["list"]
    if targets[0] == "record":
        if len(targets) != 3:
            print("usage: python -m repro record <app> <path>",
                  file=sys.stderr)
            return 2
        return _trace_command(_record, targets[1], targets[2])
    if targets[0] == "replay":
        if len(targets) != 2:
            print("usage: python -m repro replay <path|app> [--heap-mb N] "
                  "[--no-offload] [--faults SPEC] [--workers N] "
                  "[--clients N] "
                  "[--link-profile SPEC] [--mobility MODE]",
                  file=sys.stderr)
            return 2
        return _trace_command(_replay, targets[1], args.heap_mb,
                              not args.no_offload, args.faults,
                              workers=args.workers, clients=args.clients,
                              link_profile=args.link_profile,
                              mobility=args.mobility)
    if targets[0] == "fleet":
        if len(targets) < 2 or targets[1] != "run" or len(targets) > 3:
            print("usage: python -m repro fleet run [<path|app>] "
                  "[--clients N] [--surrogates M] [--admission-cap N] "
                  "[--admission-policy queue|reject] [--workers N] "
                  "[--heap-mb N] [--surrogate-heap-mb MB]",
                  file=sys.stderr)
            return 2
        source = targets[2] if len(targets) == 3 else "dia"
        return _trace_command(_fleet_run, source, args.clients,
                              args.surrogates, args.heap_mb, args.workers,
                              args.admission_cap, args.admission_policy,
                              args.surrogate_heap_mb)
    if targets[0] == "trace":
        if len(targets) != 4 or targets[1] != "convert":
            print("usage: python -m repro trace convert <in> <out> "
                  "(suffix picks the format: .ctrace = columnar, "
                  "anything else = JSONL, .gz = gzipped)",
                  file=sys.stderr)
            return 2
        return _trace_command(_convert, targets[2], targets[3])
    if targets[0] == "analyze":
        if len(targets) != 2:
            print("usage: python -m repro analyze <app> [--json [PATH]] "
                  "[--format sarif]",
                  file=sys.stderr)
            return 2
        return _analyze(targets[1], args.json,
                        sarif=args.report_format == "sarif")
    if targets == ["list"]:
        print("available experiments:")
        for name, description in DESCRIPTIONS.items():
            print(f"  {name:8s} {description}")
        print("  all      run everything")
        print("other commands:")
        print("  record <app> <path>   record a workload trace")
        print("  replay <path|app>     replay a recorded trace "
              "(--faults injects failures; --workers/--clients "
              "shard across cores)")
        print("  trace convert <in> <out>  convert a trace between "
              "JSONL and columnar (.ctrace)")
        print("  fleet run [<path|app>]    emulate N clients sharing "
              "M surrogates (--clients/--surrogates; admission "
              "control, fairness, eviction)")
        print("  analyze <app>         static placement analysis "
              "(AIDE-Lint)")
        return 0
    if "all" in targets:
        targets = list(EXPERIMENTS)
    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print("run 'python -m repro list' for options", file=sys.stderr)
        return 2
    payloads = []
    for name in targets:
        started = time.perf_counter()
        output = EXPERIMENTS[name]()
        elapsed = time.perf_counter() - started
        print(output)
        print(f"[{name} regenerated in {elapsed:.1f}s]\n")
        payloads.append(_result_payload(name, output, elapsed))
    if args.json:
        import json

        with open(args.json, "w") as stream:
            json.dump(payloads, stream, indent=2)
        print(f"wrote {len(payloads)} report(s) to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
