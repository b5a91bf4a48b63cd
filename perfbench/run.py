"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload reeval --seed 0 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/``
of the same checkout.  With ``--trace 0`` the run times whole passes
and reports the end-to-end metrics, its times scaled to a nominal host
by a speed probe run beside them; with ``--trace 1`` it times a few
untraced passes, then wraps every layer's entry points (see
``tracing.py``) and reports per-layer calls and self time, the tracing
overhead, and writes the spans as Chrome trace-event JSON under
``perfbench/results/``.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--update-goldens`` re-records the per-item fingerprint digests at the
default seed into ``perfbench/goldens.json``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import LAYER_NAMES, OTHER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src"
RESULTS = HERE / "results"
GOLDENS = HERE / "goldens.json"

#: Set-ups per run; ``setup_s`` is their median plus the import time, scaled.
SETUP_REPS = 3
#: Untraced passes per run, at least, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Untimed passes before an untraced run's timed ones.
WARMUP_PASSES = 1
#: Share of a traced run's time spent on untraced reference passes.
TRACE_REFERENCE_SHARE = 1 / 3
#: Iterations of the speed probe that runs after every set-up and item.
PROBE_LOOPS = 300_000
#: Speed probes run after each set-up.
SETUP_PROBES = 3
#: Speed probes per timed pass, at least, spread evenly over its items.
PASS_PROBES = 12
#: Probe seconds on the nominal host that reported times are scaled to.
NOMINAL_PROBE_S = 0.010

#: (name, unit) of the metrics a ``--trace 0`` run prints.
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("events_per_s", "1/s"),
    ("virtual_s", "s"),
    ("peak_rss_mb", "MB"),
)


def spin(loops: int) -> float:
    """Host seconds of a fixed pure-Python loop: the speed probe."""
    start = time.perf_counter()
    total = 0
    for i in range(loops):
        total += i & 7
    return time.perf_counter() - start


def calibrate(reps: int = 5, loops: int = 1_000_000) -> float:
    """Median seconds of a longer probe, for the host record."""
    return statistics.median(spin(loops) for _ in range(reps))


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def host_record(seed: int) -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "seed": seed,
        "calibration_s": calibrate(),
    }


def tail_percentile(samples):
    """Highest nearest-rank percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return None
    rank = len(ordered) - 10
    return {"p": round(100 * rank / len(ordered), 1),
            "value": ordered[rank - 1]}


class Checker:
    """Per-item correctness: completion, goldens, determinism."""

    def __init__(self, goldens: dict) -> None:
        self.goldens = goldens
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0

    def check(self, items, outcomes, failures) -> None:
        self.attempted += len(items)
        for name, _ in items:
            outcome = outcomes.get(name)
            ok = outcome is not None and name not in failures
            ok = ok and outcome.completed
            if ok and self.goldens:
                ok = self.goldens.get(name) == outcome.fingerprint
            if ok:
                ok = self.first.setdefault(name, outcome.fingerprint) \
                    == outcome.fingerprint
            if not ok:
                self.failed += 1
                print(f"FAILED item {name}", file=sys.stderr)


def run_pass(workload, tracer=None, probes=None):
    """One pass; returns its items, outcomes, failures and host seconds.

    The seconds are the sum of the items' times.  Given a ``probes``
    list, the speed probe runs after every item, outside its time, at
    least ``PASS_PROBES`` times a pass, and its seconds are appended to
    the list.
    """
    items = workload.items()
    outcomes, failures = {}, set()
    seconds = 0.0
    probes_per_item = -(-PASS_PROBES // len(items))
    for name, fn in items:
        start = time.perf_counter()
        try:
            outcomes[name] = fn() if tracer is None else tracer.run_item(name, fn)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failures.add(name)
        seconds += time.perf_counter() - start
        if probes is not None:
            probes.extend(spin(PROBE_LOOPS) for _ in range(probes_per_item))
    failures.update(workload.check_pass(outcomes))
    return items, outcomes, failures, seconds


def timed_passes(workload, checker, budget_s, min_passes, tracer=None,
                 probes=None, warmup=0):
    """Run passes until ``budget_s`` would be exceeded; returns samples.

    Given a ``probes`` list, each timed pass appends the list of its own
    probe samples.  The first ``warmup`` passes are checked and use up
    budget, but are neither timed nor probed.
    """
    durations, passes = [], []
    began = time.perf_counter()
    for n in itertools.count():
        gc.collect()
        timed = n >= warmup
        pass_probes = [] if probes is not None and timed else None
        items, outcomes, failures, seconds = run_pass(
            workload, tracer, pass_probes)
        checker.check(items, outcomes, failures)
        if not timed:
            continue
        if pass_probes is not None:
            probes.append(pass_probes)
        durations.append(seconds)
        passes.append(outcomes)
        elapsed = time.perf_counter() - began
        if (len(durations) >= min_passes
                and elapsed + statistics.median(durations) > budget_s):
            return durations, passes


def setup(workload_cls, seed: int):
    """Set up ``SETUP_REPS`` times, probing the speed after each; keeps
    the last workload."""
    times, probes = [], []
    workload = None
    for _ in range(SETUP_REPS):
        workload = None
        gc.collect()
        start = time.perf_counter()
        workload = workload_cls()
        workload.setup(seed)
        times.append(time.perf_counter() - start)
        probes.extend(spin(PROBE_LOOPS) for _ in range(SETUP_PROBES))
    return workload, times, probes


def end_to_end_metrics(record, durations, passes, probes):
    """Times are scaled to the nominal host: see ``NOMINAL_PROBE_S``.

    Each pass is scaled by the probes taken during it, so that the
    host's speed changing within a run is followed.
    """
    median = statistics.median(durations)
    first = passes[0]
    events = sum(o.events for o in first.values())
    virtual = sum(o.virtual_s for o in first.values())
    q1, _, q3 = statistics.quantiles(durations, n=4)
    record["pass_s"] = {
        "samples": durations, "median": median, "q1": q1, "q3": q3,
        "iqr": q3 - q1, "tail": tail_percentile(durations),
        "n": len(durations),
    }
    setup = record["setup"]
    setup_scale = NOMINAL_PROBE_S / statistics.median(setup["probes"])
    scales = [NOMINAL_PROBE_S / statistics.median(p) for p in probes]
    record["probe"] = {"loops": PROBE_LOOPS, "nominal_s": NOMINAL_PROBE_S,
                       "samples": probes, "setup_scale": setup_scale,
                       "pass_scales": scales}
    pass_s = statistics.median(d * k for d, k in zip(durations, scales))
    return {
        "setup_s": setup["host_s"] * setup_scale,
        "pass_s": pass_s,
        "events_per_s": events / pass_s,
        "virtual_s": virtual,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, traced, reference, passes, error_rate):
    n = len(traced)
    totals: dict = {}
    for outcomes in passes:
        for outcome in outcomes.values():
            for key, value in outcome.counters.items():
                totals[key] = totals.get(key, 0) + value
    metrics = {}
    calls = tracer.layer_calls()
    self_s = tracer.layer_self_s()
    for layer in LAYER_NAMES:
        metrics[f"{layer}.calls"] = (calls[layer] / n, "count")
        metrics[f"{layer}.self_s"] = (self_s[layer] / n, "s")
    epochs = totals.get("epochs", 0)
    metrics["core.partitioner.epochs"] = (epochs / n, "count")
    metrics["core.partitioner.warm_ratio"] = (
        ratio(epochs - totals.get("cold_epochs", 0), epochs), "ratio")
    metrics["rpc.batch.ops_per_batch"] = (
        ratio(totals.get("dp_ops", 0), totals.get("dp_batches", 0)), "count")
    metrics["rpc.cache.hit_rate"] = (
        ratio(totals.get("cache_hits", 0), totals.get("cache_lookups", 0)),
        "ratio")
    metrics["rpc.retry.retries_per_exchange"] = (
        ratio(totals.get("retries", 0),
              tracer.calls_by("ReliableDelivery.exchange")), "ratio")
    traced_s = sum(traced)
    layers_s = sum(v for k, v in self_s.items() if k != OTHER)
    metrics["trace.coverage_pct"] = (100 * ratio(layers_s, traced_s), "%")
    metrics["trace.residual_pct"] = (
        100 * ratio(traced_s - sum(self_s.values()), traced_s), "%")
    metrics["trace.overhead_pct"] = (
        100 * (statistics.median(traced) / statistics.median(reference) - 1),
        "%")
    metrics["error_rate"] = (error_rate, "ratio")
    return metrics


def print_layer_table(tracer, traced) -> None:
    n = len(traced)
    pass_s = sum(traced) / n
    calls = tracer.layer_calls()
    self_s = tracer.layer_self_s()
    print(f"per-layer self time, mean of {n} traced pass(es) "
          f"of {pass_s:.3f} s")
    print(f"  {'layer':<20} {'calls/pass':>12} {'self s/pass':>12} "
          f"{'share':>7}")
    for layer in LAYER_NAMES:
        share = 100 * self_s[layer] / n / pass_s
        print(f"  {layer:<20} {calls[layer] / n:>12.0f} "
              f"{self_s[layer] / n:>12.4f} {share:>6.1f}%")
    print("  aggregated (no per-call spans): "
          + ", ".join(tracer.aggregated_entries()))


def update_goldens(name: str, workload, goldens: dict) -> int:
    """Store one pass's digests as the workload's goldens.

    Call it after the same set-up a measured run does: recording draws
    object ids from a process-wide counter, so what ran before in the
    process shows in object-granularity node names.
    """
    _, outcomes, failures, _ = run_pass(workload)
    if failures or not all(o.completed for o in outcomes.values()):
        print(f"{name}: items failed, goldens not written", file=sys.stderr)
        return 1
    goldens[name] = {k: o.fingerprint for k, o in sorted(outcomes.items())}
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"{name}: {len(outcomes)} goldens written to {GOLDENS.name}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-goldens", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # String hashing is randomised per process, which moves dict and set
    # layouts and with them pass times; pin it so runs compare.
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()),
                   *(sys.argv[1:] if argv is None else argv)], env)

    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SOURCES}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    sys.path.insert(0, str(SOURCES))
    import workloads
    import_s = time.perf_counter() - start

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "trace": args.trace,
              "host": host_record(args.seed)}
    workload, setup_times, setup_probes = setup(
        workloads.WORKLOADS[args.workload], args.seed)
    record["setup"] = {
        "import_s": import_s, "samples": setup_times, "probes": setup_probes,
        "host_s": import_s + statistics.median(setup_times),
    }
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    default_seed = args.seed == workloads.DEFAULT_SEED
    if args.update_goldens:
        if not default_seed:
            print("goldens are recorded at the default seed", file=sys.stderr)
            return 2
        return update_goldens(args.workload, workload, goldens)
    checker = Checker(goldens.get(args.workload, {}) if default_seed else {})
    # The inputs live for the whole run: keep the collector off them.
    gc.collect()
    gc.freeze()

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        reference, _ = timed_passes(
            workload, checker, args.seconds * TRACE_REFERENCE_SHARE, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced, passes = timed_passes(
                workload, checker,
                args.seconds * (1 - TRACE_REFERENCE_SHARE), 1, tracer)
        finally:
            tracer.uninstall()
        print_layer_table(tracer, traced)
        error_rate = checker.failed / checker.attempted
        named = per_layer_metrics(tracer, traced, reference, passes,
                                  error_rate)
        tracer.write_chrome_trace(RESULTS / f"trace-{stem}.json")
        record["traced_pass_s"] = traced
        record["reference_pass_s"] = reference
    else:
        probes = []
        durations, passes = timed_passes(workload, checker, args.seconds,
                                         MIN_PASSES, probes=probes,
                                         warmup=WARMUP_PASSES)
        values = end_to_end_metrics(record, durations, passes, probes)
        named = {name: (values[name], unit) for name, unit in END_TO_END}
        error_rate = checker.failed / checker.attempted
        stats = record["pass_s"]
        tail = stats["tail"]
        print(f"host pass seconds: median {stats['median']:.4f} s, IQR "
              f"{stats['q1']:.4f}-{stats['q3']:.4f} s, "
              + (f"p{tail['p']} {tail['value']:.4f} s, " if tail else
                 "tail n/a (needs 11 passes), ")
              + f"n={stats['n']}")
        print(f"host set-up seconds: {record['setup']['host_s']:.4f} s; "
              f"scaled to the nominal host by "
              f"{record['probe']['setup_scale']:.3f} (set-up) and a median "
              f"{statistics.median(record['probe']['pass_scales']):.3f} "
              f"(passes)")
        print(f"error_rate {error_rate:.4f} ratio "
              f"({checker.failed}/{checker.attempted} items)")

    for name, (value, unit) in named.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in named.items()}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
