"""Distributed garbage collection support.

The paper supports "a simple distributed garbage collection scheme to
account for objects that are referenced from the other VM".  Two pieces
reproduce that here:

* :class:`CrossHeapRootScanner` — a GC root source installed on each VM
  that treats a local object as live when any object on the *peer* heap
  (or any export-table entry) still references it.  This is the safety
  net that stops a VM from collecting an object the other VM can reach.
* :func:`reconcile_exports` — the reclamation path: export-table entries
  whose objects are no longer referenced from the peer side are dropped,
  so purely-remote garbage eventually becomes locally collectable.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Set

from ..vm.objectmodel import JObject
from ..vm.vm import VirtualMachine
from .refmap import ReferenceMap


def _references_into(
    source_vm: VirtualMachine, target_site: str
) -> List[JObject]:
    """Objects homed on ``target_site`` referenced from ``source_vm``'s heap.

    Runs on every collection of either VM, so it reads each object's
    ``reference_slots()`` in place.
    """
    found: List[JObject] = []
    push = found.append
    for obj in source_vm.heap.resident.values():
        for ref in obj.reference_slots():
            if isinstance(ref, JObject) and ref.home == target_site:
                push(ref)
    return found


class CrossHeapRootScanner:
    """Root source: local objects kept alive by the peer VM.

    Install the scanner's :meth:`roots` on the local VM via
    ``vm.add_root_source``.  Exported objects are conservatively treated
    as live until :func:`reconcile_exports` drops them, mirroring the
    way a real distributed scheme pins exports between epochs.  Sites
    with no RPC channel between them have no ``exports``.
    """

    def __init__(
        self,
        local_vm: VirtualMachine,
        peer_vm: VirtualMachine,
        exports: Optional[ReferenceMap] = None,
        extra_peer_roots: Callable[[], Iterable[JObject]] = tuple,
    ) -> None:
        self.local_vm = local_vm
        self.peer_vm = peer_vm
        self.exports = exports
        self._extra_peer_roots = extra_peer_roots

    def roots(self) -> List[JObject]:
        roots = _references_into(self.peer_vm, self.local_vm.name)
        if self.exports is not None:
            roots.extend(
                obj for obj in self.exports.exported_objects() if obj.alive
            )
        for obj in self._extra_peer_roots():
            if obj.home == self.local_vm.name:
                roots.append(obj)
        return roots


def peer_reachable_oids(
    peer_vm: VirtualMachine,
    target_site: str,
    extra_peer_roots: Callable[[], Iterable[JObject]] = tuple,
) -> Set[int]:
    """Oids of ``target_site`` objects currently reachable from the peer."""
    reachable = {
        obj.oid for obj in _references_into(peer_vm, target_site)
    }
    for obj in extra_peer_roots():
        if obj.home == target_site:
            reachable.add(obj.oid)
    return reachable


def reconcile_exports(
    exports: ReferenceMap,
    peer_vm: VirtualMachine,
    target_site: str,
    extra_peer_roots: Callable[[], Iterable[JObject]] = tuple,
) -> int:
    """Drop exports no longer referenced from the peer; return the count.

    After reconciliation a previously-exported object that only the peer
    kept alive becomes ordinary local garbage — the "offloaded garbage"
    situation the paper flags for future study.
    """
    exports.prune_dead()
    reachable = peer_reachable_oids(peer_vm, target_site, extra_peer_roots)
    stale = [
        exports.handle_for(obj)
        for obj in exports.exported_objects()
        if obj.oid not in reachable
    ]
    for handle in stale:
        exports.forget(handle)
    return len(stale)
