#!/usr/bin/env python3
"""Using several surrogates at once (paper section 2's vision).

"If the necessary resources for a client are not available at the
closest surrogate, multiple surrogates could be used by the client."

Here, neither nearby machine alone can host the photo album the PDA is
accumulating, so the platform splits the offloaded partition across
both — keeping tightly coupled classes co-located (surrogate-to-
surrogate chatter relays through the client at twice the cost) — and
spills later allocations to whichever surrogate still has room.
"""

from repro import DeviceProfile, GCConfig, OffloadPolicy, TriggerConfig, VMConfig
from repro.net import WAVELAN_11MBPS
from repro.platform import DistributedPlatform, SurrogateSpec
from repro.units import KB, bytes_to_human

import quickstart


def small_surrogate(name, heap):
    return SurrogateSpec(
        name,
        VMConfig(
            device=DeviceProfile(name, cpu_speed=2.0, heap_capacity=heap),
            gc=GCConfig(space_pressure_fraction=0.10,
                        allocations_per_cycle=64,
                        bytes_per_cycle=64 * KB),
        ),
        WAVELAN_11MBPS,
    )


def main() -> None:
    cluster = DistributedPlatform(
        surrogates=[small_surrogate("set-top-box", 256 * KB),
                    small_surrogate("smart-frame", 256 * KB)],
        client_config=quickstart.tiny_device(128 * KB),
        offload_policy=OffloadPolicy(TriggerConfig(0.05, 1), 0.20),
    )
    app = quickstart.PhotoAlbum(photos=110)
    cluster.run(app)

    print(f"offloads: {cluster.engine.offload_count}")
    print("surrogate usage after the run:")
    for name, used in cluster.surrogate_usage().items():
        print(f"  {name:14s} {bytes_to_human(used)}")
    print(f"client heap: {bytes_to_human(cluster.client.vm.heap.used)} of "
          f"{bytes_to_human(cluster.client.vm.heap.capacity)}")

    album = cluster.ctx.get_global("album")
    print(f"\nalbum object lives on {album.home!r}; adding five more "
          "photos spills wherever there is room:")
    for _ in range(5):
        cluster.ctx.invoke(album, "addPhoto", 4 * KB)
    for name, used in cluster.surrogate_usage().items():
        print(f"  {name:14s} {bytes_to_human(used)}")


if __name__ == "__main__":
    main()
