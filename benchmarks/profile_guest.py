"""Guest-VM hot-path profiler: ``python -m benchmarks.profile_guest``.

Runs one :class:`~repro.platform.DistributedPlatform` of each of the
paper's memory-study apps (javanote, dia, biomer) under
:mod:`cProfile`, on the 6 MB client with the static analysis's
cold-start seed and the data plane (coalescing and the read cache) on,
and prints the top-20 functions by cumulative and by self time.  Every
guest invocation, field access and allocation runs through the
execution context's hooks, so the profile shows what the client pays
per guest operation before any offload helps.  The analysis runs
before the profiler starts, so only the platform runs are profiled.
Meant for quick triage after touching ``vm/`` or ``core/monitor.py``;
the CI bench-smoke job uploads the output as an artifact.

Examples::

    python -m benchmarks.profile_guest
    python -m benchmarks.profile_guest --top 30 --output profile_guest.txt
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys

from repro import analysis
from repro.apps import Biomer, Dia, JavaNote
from repro.config import VMConfig
from repro.core.policy import OffloadPolicy
from repro.experiments.common import (
    CHAI_GC, CLIENT_6MB, SURROGATE_SAME_SPEED,
)
from repro.platform import DistributedPlatform
from repro.rpc.batch import DataPlaneConfig

TOP_FUNCTIONS = 20
APPS = (JavaNote, Dia, Biomer)


def profile_guest(top: int = TOP_FUNCTIONS) -> str:
    """Profile one platform run of each app; return the report."""
    client = VMConfig(device=CLIENT_6MB, gc=CHAI_GC,
                      monitoring_event_cost=0.0)
    surrogate = VMConfig(device=SURROGATE_SAME_SPEED, gc=CHAI_GC,
                         monitoring_event_cost=0.0)
    names = [cls().name for cls in APPS]
    seeds = {name: analysis.analyze_app(name).analysis.seed
             for name in names}
    elapsed = {}

    def run() -> None:
        for cls in APPS:
            app = cls()
            platform = DistributedPlatform(
                client_config=client,
                surrogate_config=surrogate,
                offload_policy=OffloadPolicy.initial(),
                cold_start=seeds[app.name],
                data_plane=DataPlaneConfig(coalescing=True,
                                           read_cache=True),
            )
            elapsed[app.name] = platform.run(app).elapsed

    profiler = cProfile.Profile()
    profiler.runcall(run)

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    for order in ("cumulative", "tottime"):
        stats.sort_stats(order).print_stats(top)
    runs = ", ".join(f"{name} {seconds:.3f} virtual s"
                     for name, seconds in elapsed.items())
    header = (f"profile_guest: one cold-start platform run each on the "
              f"6 MB client, data plane on ({runs}); top {top} by "
              f"cumulative, then by self time\n")
    return header + buffer.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.profile_guest",
        description="cProfile prototype platform runs of javanote, dia "
                    "and biomer and print the guest-VM hotspots.")
    parser.add_argument("--top", type=int, default=TOP_FUNCTIONS,
                        help="number of hotspot rows (default: 20)")
    parser.add_argument("--output", type=str, default=None,
                        help="also write the report to this file "
                             "(stdout is always printed)")
    args = parser.parse_args(argv)

    if args.top < 1:
        parser.error("--top must be positive")

    report = profile_guest(top=args.top)
    sys.stdout.write(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
