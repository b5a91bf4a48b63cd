"""Stateful property tests: heap/GC invariants under random workloads.

A hypothesis state machine drives a VM through random allocations
(objects, reference arrays and primitive arrays), root mutations,
reference rewiring (fields and array elements, some pointing at
objects on a second VM's heap), and collections, checking after every
step that the byte accounting, liveness, and reachability invariants
hold.  The reachability oracle walks ``JObject.references()``, so it
holds the collector's in-place mark walk to that rule: field values and
a reference array's ``data`` are traced, a primitive array's ``data``
and objects homed on another heap are not.
"""

import pytest

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.config import DeviceProfile, GCConfig, VMConfig
from repro.errors import OutOfMemoryError
from repro.units import KB
from repro.vm.classloader import ClassRegistry
from repro.vm.objectmodel import JArray
from repro.vm.vm import VirtualMachine


def make_vms():
    """A client VM and a peer VM sharing one registry; neither
    collects unless asked."""
    registry = ClassRegistry()
    registry.define("s.Node").field("next").field("payload", "int") \
        .register()
    config = VMConfig(
        device=DeviceProfile("s", cpu_speed=1.0,
                             heap_capacity=32 * KB),
        gc=GCConfig(allocations_per_cycle=10**6, bytes_per_cycle=10**9),
        monitoring_event_cost=0.0,
    )
    return (VirtualMachine("client", config, registry),
            VirtualMachine("peer", config, registry),
            registry.lookup("s.Node"))


class HeapMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.vm, self.peer, self.node_cls = make_vms()
        self.objects = []      # every object we ever allocated
        self.rooted = {}       # name -> object
        #: Objects on the peer's heap, rooted there so they stay live.
        self.foreign = []

    def live(self, kind=None):
        return [o for o in self.objects
                if o.alive and (kind is None or kind(o))]

    def _keep(self, obj, root):
        self.objects.append(obj)
        if root:
            name = f"r{len(self.rooted)}"
            self.vm.set_root(name, obj)
            self.rooted[name] = obj

    # -- actions ------------------------------------------------------------

    @rule(root=st.booleans())
    def allocate(self, root):
        try:
            obj = self.vm.new_instance(self.node_cls)
        except OutOfMemoryError:
            # Legal under pressure when everything live is rooted.
            return
        self._keep(obj, root)

    @rule(data=st.data(), length=st.integers(0, 4), filled=st.booleans(),
          root=st.booleans())
    def allocate_ref_array(self, data, length, filled, root):
        """A reference array; its elements are live objects or None,
        or it has no materialised ``data`` at all."""
        elements = None
        if filled:
            pool = st.sampled_from(self.live()) if self.live() else st.none()
            elements = [data.draw(st.one_of(st.none(), pool))
                        for _ in range(length)]
        try:
            arr = self.vm.new_array("ref", length, data=elements)
        except OutOfMemoryError:
            return
        self._keep(arr, root)

    @rule(length=st.integers(0, 4), filled=st.booleans(),
          root=st.booleans())
    def allocate_primitive_array(self, length, filled, root):
        elements = list(range(length)) if filled else None
        try:
            arr = self.vm.new_array("int", length, data=elements)
        except OutOfMemoryError:
            return
        self._keep(arr, root)

    @rule(data=st.data())
    def link(self, data):
        nodes = self.live(is_node)
        live = self.live()
        if not nodes or len(live) < 2:
            return
        source = data.draw(st.sampled_from(nodes))
        target = data.draw(st.sampled_from(live))
        source.values["next"] = target

    @rule(data=st.data())
    def unlink(self, data):
        nodes = self.live(is_node)
        if not nodes:
            return
        data.draw(st.sampled_from(nodes)).values["next"] = None

    @rule(data=st.data(), clear=st.booleans())
    def link_array_element(self, data, clear):
        arrays = self.live(lambda o: is_ref_array(o) and o.data)
        live = self.live()
        if not arrays:
            return
        arr = data.draw(st.sampled_from(arrays))
        index = data.draw(st.integers(0, len(arr.data) - 1))
        arr.data[index] = None if clear else data.draw(st.sampled_from(live))

    @rule(data=st.data())
    def store_in_primitive_array(self, data):
        """A primitive array's ``data`` is never traced, even when it
        holds an object."""
        arrays = self.live(lambda o: is_primitive_array(o) and o.data)
        if not arrays:
            return
        arr = data.draw(st.sampled_from(arrays))
        index = data.draw(st.integers(0, len(arr.data) - 1))
        arr.data[index] = data.draw(st.sampled_from(self.live()))

    @precondition(lambda self: len(self.foreign) < 4)
    @rule()
    def allocate_foreign(self):
        obj = self.peer.new_instance(self.node_cls)
        self.peer.set_root(f"f{len(self.foreign)}", obj)
        self.foreign.append(obj)

    @rule(data=st.data())
    def link_through_foreign(self, data):
        """A client node points at a peer object, which points back at
        a client object: the client's mark must not trace the peer
        object, so the one behind it survives only if reachable
        otherwise."""
        nodes = self.live(is_node)
        if not self.foreign or not nodes:
            return
        foreign = data.draw(st.sampled_from(self.foreign))
        data.draw(st.sampled_from(nodes)).values["next"] = foreign
        foreign.values["next"] = data.draw(st.sampled_from(self.live()))

    @rule(data=st.data())
    def drop_root(self, data):
        if not self.rooted:
            return
        name = data.draw(st.sampled_from(sorted(self.rooted)))
        self.vm.set_root(name, None)
        del self.rooted[name]


    # -- invariants ------------------------------------------------------------

    @invariant()
    def heap_usage_matches_live_objects(self):
        expected = sum(
            o.size_bytes for o in self.objects
            if o.alive and self.vm.heap.contains(o)
        )
        assert self.vm.heap.used == expected

    @invariant()
    def usage_never_exceeds_capacity(self):
        assert 0 <= self.vm.heap.used <= self.vm.heap.capacity

    @invariant()
    def dead_objects_are_off_heap(self):
        for obj in self.objects:
            if not obj.alive:
                assert not self.vm.heap.contains(obj)

    @invariant()
    def rooted_objects_stay_alive(self):
        for obj in self.rooted.values():
            assert obj.alive

    @invariant()
    def foreign_objects_stay_on_their_heap(self):
        for obj in self.foreign:
            assert obj.alive and obj.home == "peer"
            assert self.peer.heap.contains(obj)
            assert not self.vm.heap.contains(obj)

    @invariant()
    def mark_reaches_what_references_reach(self):
        """In every state, not only after a collection, the collector's
        in-place mark reaches exactly the oracle's set."""
        roots = list(self.vm.collector._roots())
        assert self.vm.collector._mark() == reach(self.vm.heap, roots)

    def roots_reach(self):
        return reach(self.vm.heap, self.rooted.values())

    @rule()
    def collect(self):
        """After a collection, exactly the root-reachable set survives."""
        self.vm.collect_garbage()
        reachable = self.roots_reach()
        survivors = {
            o.oid for o in self.objects
            if o.alive and self.vm.heap.contains(o)
        }
        assert survivors == reachable


def reach(heap, roots):
    """Oids of ``heap``'s objects reachable from ``roots`` by
    ``references()``, never through an object on another heap."""
    reached = set()
    stack = [obj for obj in roots if obj is not None]
    while stack:
        obj = stack.pop()
        if obj.oid in reached or not heap.contains(obj):
            continue
        reached.add(obj.oid)
        stack.extend(obj.references())
    return reached


def is_node(obj):
    return not isinstance(obj, JArray)


def is_ref_array(obj):
    return isinstance(obj, JArray) and not obj.is_primitive


def is_primitive_array(obj):
    return isinstance(obj, JArray) and obj.is_primitive


HeapMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=50, deadline=None
)
TestHeapMachine = HeapMachine.TestCase


@pytest.mark.parametrize("via", ["field", "ref-array"])
def test_the_mark_does_not_trace_through_an_object_on_another_heap(via):
    client, peer, node_cls = make_vms()
    root = client.new_instance(node_cls)
    client.set_root("root", root)
    foreign = peer.new_instance(node_cls)
    peer.set_root("foreign", foreign)
    behind = client.new_instance(node_cls)
    if via == "field":
        root.values["next"] = foreign
    else:
        holder = client.new_array("ref", 2, data=[None, foreign])
        root.values["next"] = holder
    foreign.values["next"] = behind
    report = client.collect_garbage()
    assert root.alive and foreign.alive
    assert not behind.alive
    assert peer.heap.contains(foreign)
    assert report.freed_objects == 1


def test_a_primitive_array_s_data_is_not_traced():
    client, _, node_cls = make_vms()
    arr = client.new_array("int", 2, data=[1, None])
    client.set_root("arr", arr)
    hidden = client.new_instance(node_cls)
    arr.data[1] = hidden
    client.collect_garbage()
    assert arr.alive and not hidden.alive


def test_a_reference_array_s_elements_are_traced():
    client, _, node_cls = make_vms()
    kept = client.new_instance(node_cls)
    arr = client.new_array("ref", 3, data=[None, 7, kept])
    client.set_root("arr", arr)
    empty = client.new_array("ref", 3)
    arr.data[0] = empty
    client.collect_garbage()
    assert kept.alive and empty.alive
