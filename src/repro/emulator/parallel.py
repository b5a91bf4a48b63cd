"""Multi-core sharded replay.

Fleet-scale studies replay one trace per emulated client, and the
clients are fully independent: no shared heap, no shared clock, no
shared graph.  :class:`ShardedReplayer` exploits that by fanning the
per-client replays out over a ``multiprocessing`` pool and merging the
per-shard :class:`~repro.emulator.replay.EmulationResult`s into one
deterministic :class:`AggregateReplayResult`.

Determinism rules:

* shards are identified by caller-chosen client ids; the merged report
  orders clients by id, never by completion order;
* the aggregate fingerprint is a SHA-256 over the sorted per-client
  ``(client_id, fingerprint)`` pairs, so it is invariant under worker
  count, scheduling, and start method — ``workers=1`` (which runs
  inline, no pool) and ``workers=N`` produce the same fingerprint;
* wall-clock fields (``wall_time_s``, ``events_per_second``) are
  excluded from the fingerprint, exactly like
  ``EmulationResult.fingerprint()`` excludes decision timings.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import List, Optional, Sequence, Union

from .columnar import ColumnarTrace
from .replay import EmulationResult, EmulatorConfig, TraceReplayer

TraceSource = Union[ColumnarTrace, str, Path]


@dataclass(frozen=True)
class ReplayShard:
    """One independent client replay: a trace source plus its config.

    ``trace`` may be an in-memory trace or a path; paths are loaded
    inside the worker process (a ``.ctrace`` path is the cheap option —
    each worker mmaps the columns instead of unpickling events).
    """

    client_id: str
    trace: TraceSource
    config: EmulatorConfig


@dataclass
class ClientReplay:
    """One shard's outcome, tagged with its client id."""

    client_id: str
    events: int
    result: EmulationResult


@dataclass
class AggregateReplayResult:
    """Deterministic merge of per-client replays."""

    clients: List[ClientReplay] = field(default_factory=list)
    workers: int = 1
    wall_time_s: float = 0.0
    #: What the caller asked for, before clamping to the host's cores
    #: and the shard count.
    requested_workers: int = 1
    #: Human-readable notes about adjustments the replayer made (e.g.
    #: worker clamping).  Metadata only — never part of the fingerprint.
    warnings: List[str] = field(default_factory=list)

    @property
    def total_events(self) -> int:
        return sum(c.events for c in self.clients)

    @property
    def events_processed(self) -> int:
        return sum(c.result.events_processed for c in self.clients)

    @property
    def completed_clients(self) -> int:
        return sum(1 for c in self.clients if c.result.completed)

    @property
    def oom_clients(self) -> int:
        return sum(1 for c in self.clients if c.result.oom)

    @property
    def events_per_second(self) -> float:
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.events_processed / self.wall_time_s

    def fingerprint(self) -> str:
        """Stable digest over the ordered per-client fingerprints."""
        digest = hashlib.sha256()
        for client in self.clients:
            digest.update(client.client_id.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(client.result.fingerprint().encode("ascii"))
            digest.update(b"\x00")
        return digest.hexdigest()


def replicate(trace: TraceSource, config: EmulatorConfig,
              clients: int) -> List[ReplayShard]:
    """N identical shards (the fleet-benchmark shape): one shared trace
    source replayed once per emulated client."""
    width = max(4, len(str(max(clients - 1, 0))))
    return [
        ReplayShard(client_id=f"client-{i:0{width}d}", trace=trace,
                    config=config)
        for i in range(clients)
    ]


#: The shards of the running pool, as each worker holds them: inherited
#: from the parent under ``fork`` (decoded columns included), unpickled
#: once per worker under ``spawn``.  Tasks then travel as indices.
_inherited: List[ReplayShard] = []


def _adopt(shards: List[ReplayShard]) -> None:
    """Pool initializer: hold the shard table in this worker."""
    _inherited[:] = shards


def _replay_shard(shard: ReplayShard) -> ClientReplay:
    """Replay one shard: load (if needed), replay, tag."""
    trace = shard.trace
    if isinstance(trace, (str, Path)):
        trace = ColumnarTrace.load(trace)
    result = TraceReplayer(trace, shard.config).run()
    return ClientReplay(client_id=shard.client_id, events=len(trace),
                        result=result)


def _replay_inherited(index: int) -> ClientReplay:
    """Pool task: replay the worker's ``index``-th shard.  Module-level
    so it pickles under the ``spawn`` start method."""
    return _replay_shard(_inherited[index])


def _pool_context():
    try:
        return get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        return get_context()


class ShardedReplayer:
    """Replays independent client shards across a process pool.

    ``workers=None`` uses the host's CPU count; ``workers<=1`` (or a
    single shard) runs inline in this process with no pool at all, so
    the degenerate case costs nothing extra and stays debuggable.
    """

    def __init__(self, shards: Sequence[ReplayShard],
                 workers: Optional[int] = None) -> None:
        ids = [shard.client_id for shard in shards]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate client_id in shards")
        self.shards = list(shards)
        cpus = os.cpu_count() or 1
        if workers is None:
            workers = cpus
        requested = max(1, int(workers))
        self.requested_workers = requested
        self.warnings: List[str] = []
        # Clamp to the host's cores and to the client count: extra fork
        # workers would only oversubscribe the pool (or sit idle), so
        # the clamp is recorded as report metadata instead of silently
        # spawning them.
        cap = max(1, min(cpus, len(self.shards)))
        if requested > cap:
            reason = (f"{cpus} cpu(s)" if requested > cpus
                      else f"{len(self.shards)} shard(s)")
            self.warnings.append(
                f"workers clamped from {requested} to {cap} ({reason})"
            )
        self.workers = min(requested, cap)

    def run(self) -> AggregateReplayResult:
        # Host wall time is the measurand here (aggregate events/s);
        # it never feeds a client fingerprint.
        started = time.perf_counter()  # detlint: allow
        if self.workers <= 1 or len(self.shards) <= 1:
            replays = [_replay_shard(shard) for shard in self.shards]
        else:
            replays = self._run_pool()
        wall = time.perf_counter() - started  # detlint: allow
        replays.sort(key=lambda c: c.client_id)
        return AggregateReplayResult(
            clients=replays, workers=self.workers, wall_time_s=wall,
            requested_workers=self.requested_workers,
            warnings=list(self.warnings),
        )

    def _run_pool(self) -> List[ClientReplay]:
        ctx = _pool_context()
        if ctx.get_start_method() == "fork":
            # Decode each in-memory trace here once; the forked workers
            # inherit the decoded columns along with the shard table.
            for shard in self.shards:
                if isinstance(shard.trace, ColumnarTrace):
                    shard.trace.column_lists()
        with ctx.Pool(processes=self.workers, initializer=_adopt,
                      initargs=(self.shards,)) as pool:
            return pool.map(_replay_inherited, range(len(self.shards)),
                            chunksize=1)
