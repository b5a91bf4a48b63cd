"""Shared test fixtures: small platforms and guest classes."""

from repro.config import (
    DeviceProfile,
    EnhancementFlags,
    GCConfig,
    VMConfig,
)
from repro.core.policy import OffloadPolicy, TriggerConfig
from repro.net.wavelan import WAVELAN_11MBPS
from repro.platform.platform import DistributedPlatform
from repro.units import KB


def quiet_gc():
    """GC config that only collects under explicit pressure."""
    return GCConfig(allocations_per_cycle=10**6, bytes_per_cycle=10**9)


def make_platform(
    client_heap=256 * KB,
    surrogate_heap=4 * 1024 * KB,
    client_speed=1.0,
    surrogate_speed=3.5,
    link=WAVELAN_11MBPS,
    threshold=0.05,
    tolerance=1,
    min_free=0.20,
    flags=EnhancementFlags(),
    single_shot=True,
    gc=None,
    faults=None,
    retry=None,
    data_plane=None,
    **extra,
):
    gc = gc or quiet_gc()
    client_config = VMConfig(
        device=DeviceProfile("jornada", cpu_speed=client_speed,
                             heap_capacity=client_heap),
        gc=gc,
        monitoring_event_cost=0.0,
    )
    surrogate_config = VMConfig(
        device=DeviceProfile("pc", cpu_speed=surrogate_speed,
                             heap_capacity=surrogate_heap),
        gc=gc,
        monitoring_event_cost=0.0,
    )
    policy = OffloadPolicy(
        TriggerConfig(free_threshold=threshold, tolerance=tolerance),
        min_free,
    )
    return DistributedPlatform(
        client_config=client_config,
        surrogate_config=surrogate_config,
        link=link,
        offload_policy=policy,
        flags=flags,
        single_shot=single_shot,
        faults=faults,
        retry=retry,
        data_plane=data_plane,
        **extra,
    )


def define_worker_classes(registry):
    """A pinned UI class plus an offloadable data/worker pair.

    ``ui.Panel`` has a stateful native (pinned).  ``data.Store`` holds a
    buffer reference; ``data.Worker.process`` touches the store.
    """
    if registry.has_class("ui.Panel"):
        return

    def render(ctx, self_obj, pixels):
        ctx.work(1e-6)

    registry.define("ui.Panel") \
        .field("width", "int", default=320) \
        .native_method("render", func=render, cpu_cost=1e-6) \
        .register()

    def store_put(ctx, self_obj, nbytes):
        buf = ctx.get_field(self_obj, "buffer")
        if buf is not None:
            ctx.array_write(buf, nbytes)
        total = ctx.get_field(self_obj, "total")
        ctx.set_field(self_obj, "total", total + nbytes)
        return total + nbytes

    registry.define("data.Store") \
        .field("buffer") \
        .field("total", "int", default=0) \
        .method("put", func=store_put, cpu_cost=2e-6) \
        .register()

    def process(ctx, self_obj, amount):
        store = ctx.get_field(self_obj, "store")
        ctx.work(5e-6)
        return ctx.invoke(store, "put", amount)

    registry.define("data.Worker") \
        .field("store") \
        .method("process", func=process, cpu_cost=1e-6) \
        .register()


def trace_of(events, app_name="synthetic", **meta):
    """A :class:`ColumnarTrace` holding ``events`` in order."""
    from repro.emulator.columnar import ColumnarTrace

    trace = ColumnarTrace(app_name=app_name, **meta)
    for event in events:
        trace.append(event)
    return trace


def write_jsonl_rows(path, rows, app_name="tiny"):
    """A JSONL trace file holding the given event rows verbatim, under a
    header that declares their count."""
    import json

    from repro.emulator.columnar import JSONL_VERSION

    header = {"version": JSONL_VERSION, "app": app_name,
              "class_traits": {}, "notes": "", "events": len(rows)}
    path.write_text("\n".join(json.dumps(line)
                              for line in [header, *rows]) + "\n")
    return str(path)


def event_fields(events):
    """Each event as ``(class name, field values)``, for comparisons."""
    return [(type(e).__name__, tuple(e)) for e in events]


def delta_names(graph, delta):
    """A graph delta read through the graph's name table: the node ids
    and the canonical edge keys it names."""
    names = graph.names
    return (frozenset(names[i] for i in delta.nodes),
            frozenset((names[graph.edge_a[e]], names[graph.edge_b[e]])
                      for e in delta.edges))
