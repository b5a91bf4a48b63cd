"""Migration time model shared with the live platform.

The emulator "stretches simulated execution time to account for remote
invocations and data accesses" (paper section 4).  A remote operation
is one headered request/response exchange, priced by
:class:`repro.rpc.batch.ExchangeCosts` like a coalesced batch; these
helpers price the state a migration streams, with the live migrator's
payload rule (:func:`repro.platform.migration.migration_payload`), so an
emulated run and a prototype run of the same schedule agree on time.
"""

from __future__ import annotations

from typing import List, Tuple

from ..net.link import LinkModel
from ..platform.migration import migration_payload
from ..rpc.marshal import MESSAGE_HEADER_BYTES

#: Per-object framing inside a *pipelined* migration stream.  The
#: stream ships one interned class-name table up front, so each object
#: needs only a 2-byte class id plus a 2-byte length instead of the
#: 16-byte self-describing handle the per-batch format charges.
PIPELINE_OBJECT_FRAME_BYTES = 4


def migration_cost(link: LinkModel, total_object_bytes: int,
                   object_count: int) -> float:
    """Time to stream a migration batch over the link."""
    return link.bulk_transfer(migration_payload(total_object_bytes,
                                                object_count))


def pipelined_migration_payload(
    batches: List[Tuple[int, int]],
) -> int:
    """On-wire size of one pipelined migration session.

    ``batches`` is a list of ``(object_bytes, object_count)`` direction
    batches (outgoing and returning state share the session).  The
    session pays one message header and compact per-object framing
    instead of one header plus 16-byte handles per batch.
    """
    total = MESSAGE_HEADER_BYTES
    for object_bytes, object_count in batches:
        if object_count < 0 or object_bytes < 0:
            raise ValueError("migration payload cannot be negative")
        total += object_bytes + object_count * PIPELINE_OBJECT_FRAME_BYTES
    return total


def pipelined_migration_cost(
    link: LinkModel, batches: List[Tuple[int, int]],
) -> float:
    """Time for one pipelined migration session.

    Both direction batches stream back to back over one connection, so
    the whole session exposes a single link latency (the naive model
    charges one per direction batch).
    """
    chunks = max(1, sum(count for _, count in batches))
    return link.pipelined_transfer(pipelined_migration_payload(batches),
                                   chunks)
