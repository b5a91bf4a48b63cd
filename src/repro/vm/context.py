"""Execution context: where guest code runs and how calls are routed.

The context is the reproduction of the paper's interception hooks: every
method invocation, field access, and allocation made by guest code flows
through it.  The context decides *where* each operation executes:

* instance methods run on the VM hosting the receiver object;
* static Java methods run wherever the caller is currently executing
  (both VMs share the bytecodes);
* native methods are pinned to the client, unless they are annotated
  stateless and the section 5.2 enhancement is enabled;
* static data accesses are always directed to the client VM;
* new objects are created on the VM performing the creation.

Crossing sites turns the operation into a transparent RPC, whose cost is
charged through the :class:`Runtime`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..config import EnhancementFlags
from ..errors import (
    GuestError,
    NullReferenceError,
    StaleObjectError,
)
from ..rpc.cache import RemoteReadCache
from ..rpc.marshal import args_size, deep_size, message_size
from .classloader import ClassRegistry
from .clock import VirtualClock
from .hooks import AccessRecord, HookFanout, InvokeRecord, new_record
from .objectmodel import (
    JArray,
    JObject,
    MethodDef,
    MethodKind,
    SLOT_SIZES,
)
from .vm import VirtualMachine

#: Class name used to attribute top-level (entry point) activity.
MAIN_CLASS = "<main>"

_INSTANCE = MethodKind.INSTANCE
#: Bytes charged for a null field value.
_REF_BYTES = SLOT_SIZES["ref"]


class Runtime:
    """Placement and transport services used by the context.

    The single-VM runtime below is trivial; the distributed runtime in
    :mod:`repro.platform` maps sites onto a client VM and one or more
    surrogate VMs joined by simulated wireless links.

    ``sites`` maps every site name to its VM; the context reads it once
    per guest operation, and falls back to :meth:`vm` (which raises) for
    a name it does not hold.
    """

    sites: Dict[str, VirtualMachine]

    def client(self) -> VirtualMachine:
        raise NotImplementedError

    def vm(self, name: str) -> VirtualMachine:
        raise NotImplementedError

    def vms(self) -> Iterable[VirtualMachine]:
        raise NotImplementedError

    def transfer(self, from_site: str, to_site: str, nbytes: int) -> bool:
        """Move one message of ``nbytes`` between sites, charging time.

        Returns ``True`` when the message was delivered.  ``False``
        means the peer was declared dead under this exchange — the
        runtime has already run its recovery (state repatriated, future
        operations local), and the caller must re-resolve placement
        instead of charging the transfer.
        """
        raise NotImplementedError

    def new_instance(self, site: str, cls) -> "JObject":
        """Allocate an instance on ``site``.

        Runtimes may override placement under pressure (e.g. the
        distributed runtime spills a full surrogate's allocations to an
        active sibling with free heap).
        """
        return self.vm(site).new_instance(cls)

    def new_array(self, site: str, element_type: str, length: int,
                  data=None) -> "JArray":
        return self.vm(site).new_array(element_type, length, data=data)


class SingleVMRuntime(Runtime):
    """Runtime for a standalone client VM (no surrogate attached)."""

    def __init__(self, vm: VirtualMachine) -> None:
        self._vm = vm
        self.sites = {vm.name: vm}

    def client(self) -> VirtualMachine:
        return self._vm

    def vm(self, name: str) -> VirtualMachine:
        if name != self._vm.name:
            raise StaleObjectError(f"unknown site {name!r}")
        return self._vm

    def vms(self) -> Iterable[VirtualMachine]:
        return (self._vm,)

    def transfer(self, from_site: str, to_site: str, nbytes: int) -> bool:
        raise StaleObjectError(
            "single-VM runtime cannot transfer between sites "
            f"({from_site!r} -> {to_site!r})"
        )


#: One guest invocation frame: a plain ``(site, class_name, oid, refs)``
#: tuple whose ``refs`` list holds the frame's GC roots.  A plain tuple,
#: so the context builds one with no call and reads the top frame's
#: site, class and oid with one unpacking.
Frame = Tuple[str, str, Optional[int], List[JObject]]
#: Positions in a :data:`Frame`.
_SITE, _CLASS, _REFS = 0, 1, 3



class ExecutionContext:
    """The single entry point through which guest code touches the VM.

    Each guest operation is one Python frame down to the recorder
    (:meth:`_access`), the clock (``VirtualMachine.charge_cpu``) or the
    collector: the public entry points check their target and member
    inline and read the site table, the class's member tables and the
    read cache's valid set directly.
    """

    def __init__(
        self,
        runtime: Runtime,
        registry: ClassRegistry,
        hooks: Optional[HookFanout] = None,
        flags: EnhancementFlags = EnhancementFlags(),
        data_plane=None,
    ) -> None:
        self.runtime = runtime
        self.registry = registry
        self.hooks = hooks if hooks is not None else HookFanout()
        self.flags = flags
        #: Optional :class:`repro.rpc.batch.DataPlane`: remote operations
        #: route through its coalescer and read cache where those exist.
        #: Without them (no data plane, or one with both off) every
        #: operation is charged one transfer pair — byte-for-byte the
        #: unoptimised platform.
        self.data_plane = data_plane
        self._cache = data_plane.cache if data_plane is not None else None
        self._cache_valid = (
            self._cache.valid if self._cache is not None else None
        )
        self._coalescer = (
            data_plane.coalescer if data_plane is not None else None
        )
        self._frames: List[Frame] = []
        #: The most recent object handed to *top-level* code is a GC
        #: root: it models the register holding a freshly produced
        #: reference, closing the window between ``new`` (or a returned
        #: value) and the store that links it.  Inside method frames the
        #: frame's ref list provides this protection instead.
        self._last_alloc: Optional[JObject] = None
        #: The runtime's site table (shared, so a site registered later
        #: is found) and the client's site, where top-level code runs.
        self._sites = runtime.sites
        client = runtime.client()
        self._client_site = client.name
        self.monitoring_enabled = client.config.monitoring_enabled
        self._event_cost = client.config.monitoring_event_cost
        for vm in runtime.vms():
            vm.add_root_source(self.frame_roots)

    # -- frame and site state ------------------------------------------------

    @property
    def clock(self) -> VirtualClock:
        return self.runtime.client().clock

    @property
    def current_site(self) -> str:
        if self._frames:
            return self._frames[-1][_SITE]
        return self._client_site

    @property
    def depth(self) -> int:
        return len(self._frames)

    def frame_roots(self) -> List[JObject]:
        """All objects referenced from any live frame (GC roots)."""
        roots: List[JObject] = []
        for frame in self._frames:
            roots.extend(frame[_REFS])
        if self._last_alloc is not None and self._last_alloc.alive:
            roots.append(self._last_alloc)
        return roots

    def set_global(self, name: str, obj: Optional[JObject]) -> None:
        """Install a named root on the client VM (a "static" anchor).

        Top-level application code must anchor its root object here (or
        link it into an already-anchored object) before allocating
        further, otherwise the collector is entitled to reclaim it.
        """
        self.runtime.client().set_root(name, obj)

    def get_global(self, name: str) -> Optional[JObject]:
        return self.runtime.client().get_root(name)

    def retain(self, obj: JObject) -> JObject:
        """Pin ``obj`` into the current frame (a guest local variable)."""
        if self._frames:
            self._frames[-1][_REFS].append(obj)
        return obj

    # -- CPU ------------------------------------------------------------------

    def work(self, reference_seconds: float) -> None:
        """Charge data-dependent CPU time to the current class and site."""
        if reference_seconds == 0:
            return
        frames = self._frames
        if frames:
            site, class_name, _, _ = frames[-1]
        else:
            class_name, site = MAIN_CLASS, self._client_site
        (self._sites.get(site) or self.runtime.vm(site)).charge_cpu(
            reference_seconds)
        if self.monitoring_enabled:
            self.hooks.on_cpu(class_name, site, reference_seconds)

    def _charge_monitoring_event(self, site: str) -> None:
        """Charge one monitored event's virtual cost to ``site``.

        Callers test ``_event_cost`` first: with a zero cost, the usual
        emulation setting, an event makes no call.
        """
        (self._sites.get(site) or self.runtime.vm(site)).charge_cpu(
            self._event_cost)

    # -- allocation -------------------------------------------------------------

    def new(self, class_name: str, **field_values: Any) -> JObject:
        """Create an instance of ``class_name`` on the current site.

        ``field_values`` initialise instance fields; a static field has
        no slot in the instance, so naming one is an error.
        """
        cls = self.registry.lookup(class_name)
        for name in field_values:
            if cls.field(name).static:
                raise GuestError(
                    f"{class_name}.{name} is a static field: new() sets "
                    "instance fields only (use set_static)"
                )
        frames = self._frames
        obj = self.runtime.new_instance(
            frames[-1][_SITE] if frames else self._client_site, cls)
        site = obj.home
        vm = self._sites.get(site) or self.runtime.vm(site)
        if frames:
            frames[-1][_REFS].append(obj)
        else:
            self._last_alloc = obj
        if field_values:
            obj.values.update(field_values)
        if self.monitoring_enabled:
            self.hooks.on_alloc(
                obj, site, frames[-1][_CLASS] if frames else MAIN_CLASS)
            if self._event_cost:
                self._charge_monitoring_event(site)
        self._run_gc_if_due(vm)
        return obj

    def new_array(
        self, element_type: str, length: int, data: Optional[list] = None
    ) -> JArray:
        """Create an array on the current site."""
        frames = self._frames
        arr = self.runtime.new_array(
            frames[-1][_SITE] if frames else self._client_site, element_type,
            length, data=data)
        site = arr.home
        vm = self._sites.get(site) or self.runtime.vm(site)
        if frames:
            frames[-1][_REFS].append(arr)
        else:
            self._last_alloc = arr
        if self.monitoring_enabled:
            self.hooks.on_alloc(
                arr, site, frames[-1][_CLASS] if frames else MAIN_CLASS)
            if self._event_cost:
                self._charge_monitoring_event(site)
        self._run_gc_if_due(vm)
        return arr

    def _run_gc_if_due(self, vm: VirtualMachine) -> None:
        collector = vm.collector
        reason = collector.should_collect()
        if reason is None:
            return
        coalescer = self._coalescer
        if coalescer is not None and coalescer.pending_ops:
            # GC barrier: buffered cross-site writes must be charged
            # before the cycle, so the pause and any offload decision it
            # triggers never observe un-charged traffic.  The flush can
            # lose the surrogate and repatriate its heap, so the trigger
            # is asked again.
            coalescer.gc_barrier()
            reason = collector.should_collect()
            if reason is None:
                return
        self.hooks.on_gc_report(collector.collect(reason), vm.name)

    # -- invocation -----------------------------------------------------------

    def invoke(self, target: JObject, method_name: str, *args: Any) -> Any:
        """Invoke an instance method on ``target``."""
        if target is None:
            raise NullReferenceError(f"invoke of {method_name!r} on null")
        if not target.alive:
            raise StaleObjectError(f"invoke on collected object {target!r}")
        cls = target.cls
        try:
            mdef = cls.method_table[method_name]
        except KeyError:
            mdef = cls.method(method_name)  # raises, with its hint
        return self._dispatch(mdef, cls.name, target, args)

    def invoke_static(self, class_name: str, method_name: str, *args: Any) -> Any:
        """Invoke a static or class-level native method."""
        cls = self.registry.lookup(class_name)
        try:
            mdef = cls.method_table[method_name]
        except KeyError:
            mdef = cls.method(method_name)  # raises, with its hint
        if mdef.kind is _INSTANCE:
            raise GuestError(
                f"{class_name}.{method_name} is an instance method; "
                "use invoke() with a receiver"
            )
        return self._dispatch(mdef, class_name, None, args)

    def _dispatch(
        self,
        mdef: MethodDef,
        callee_class: str,
        target: Optional[JObject],
        args: Tuple[Any, ...],
    ) -> Any:
        frames = self._frames
        if frames:
            caller_site, caller_class, caller_oid, _ = frames[-1]
        else:
            caller_class, caller_oid = MAIN_CLASS, None
            caller_site = self._client_site
        # An instance method runs where its receiver lives (``invoke``
        # has checked the receiver).
        if mdef.kind is _INSTANCE:
            exec_site = target.home
        else:
            exec_site = self._exec_site(mdef, target)
        remote = exec_site != caller_site
        arg_bytes = args_size(args)
        coalescer = self._coalescer
        if remote and coalescer is None:
            if not self.runtime.transfer(caller_site, exec_site,
                                         message_size(arg_bytes)):
                # The surrogate died under the request: recovery has
                # repatriated its state, so the call resolves locally.
                exec_site = self._exec_site(mdef, target)
                remote = exec_site != caller_site

        if target is None:
            callee_oid = None
            refs = []
        else:
            callee_oid = target.oid
            refs = [target]
        for arg in args:
            if isinstance(arg, JObject):
                refs.append(arg)
        frames.append((exec_site, callee_class, callee_oid, refs))
        monitoring = self.monitoring_enabled
        cpu_cost = mdef.cpu_cost
        try:
            if cpu_cost:
                # The frame just pushed is the class and site ``work``
                # would charge.
                (self._sites.get(exec_site)
                 or self.runtime.vm(exec_site)).charge_cpu(cpu_cost)
                if monitoring:
                    self.hooks.on_cpu(callee_class, exec_site, cpu_cost)
            result = mdef.func(self, target, *args) if mdef.func else None
        finally:
            frames.pop()

        ret_bytes = deep_size(result) if result is not None else 0
        if remote:
            if coalescer is not None:
                # Both legs are charged here, once the return size is
                # known: the invocation closes its batch (control
                # transfers), so buffered writes, the request, and the
                # response all ride one exchange.
                coalescer.invoke(caller_site, exec_site, arg_bytes, ret_bytes)
            else:
                self.runtime.transfer(
                    exec_site, caller_site, message_size(ret_bytes)
                )
        if monitoring:
            # ``_value_`` is the member's value as stored; ``.value``
            # reads it through a Python-level descriptor.
            self.hooks.on_invoke(new_record(InvokeRecord, (
                caller_class, caller_oid, callee_class, callee_oid,
                mdef.name, mdef.kind._value_, mdef.stateless, arg_bytes,
                ret_bytes, cpu_cost, caller_site, exec_site, remote,
            )))
            if self._event_cost:
                self._charge_monitoring_event(exec_site)
        if isinstance(result, JObject):
            if frames:
                frames[-1][_REFS].append(result)
            else:
                self._last_alloc = result
        return result

    def _exec_site(self, mdef: MethodDef, target: Optional[JObject]) -> str:
        if mdef.kind is MethodKind.NATIVE:
            if mdef.stateless and self.flags.stateless_natives_local:
                return self.current_site
            return self._client_site
        if mdef.kind is MethodKind.STATIC:
            return self.current_site
        if target is None:
            raise NullReferenceError(f"instance method {mdef.name!r} needs a receiver")
        return target.home

    # -- field access ------------------------------------------------------------

    def get_field(self, target: JObject, field_name: str) -> Any:
        """Read an instance field, remotely if the owner lives elsewhere."""
        if target is None:
            raise NullReferenceError(f"field access {field_name!r} on null")
        if not target.alive:
            raise StaleObjectError(f"field access on collected object {target!r}")
        cls = target.cls
        try:
            static = cls.field_is_static[field_name]
        except KeyError:
            static = cls.field(field_name).static  # raises, with its hint
        if static:
            return self.get_static(cls.name, field_name)
        value = target.values[field_name]
        oid = target.oid
        self._access(target.home, cls.name, oid, field_name, value, False,
                     oid)
        if isinstance(value, JObject):
            frames = self._frames
            if frames:
                frames[-1][_REFS].append(value)
        return value

    def set_field(self, target: JObject, field_name: str, value: Any) -> None:
        """Write an instance field, remotely if the owner lives elsewhere."""
        if target is None:
            raise NullReferenceError(f"field access {field_name!r} on null")
        if not target.alive:
            raise StaleObjectError(f"field access on collected object {target!r}")
        cls = target.cls
        try:
            static = cls.field_is_static[field_name]
        except KeyError:
            static = cls.field(field_name).static  # raises, with its hint
        if static:
            self.set_static(cls.name, field_name, value)
            return
        target.values[field_name] = value
        oid = target.oid
        self._access(target.home, cls.name, oid, field_name, value, True,
                     oid)

    def _access(
        self,
        owner_site: str,
        class_name: str,
        oid: Optional[int],
        field_name: str,
        value: Any,
        is_write: bool,
        cache_key,
        nbytes: Optional[int] = None,
    ) -> None:
        """Route and record one data access from the current frame.

        ``oid`` is ``None`` for a static field (owned by its class, on
        the client).  ``nbytes`` is the payload, by default ``value``'s
        size (a null costs a reference slot).  ``cache_key`` is the
        read cache's key for the owner (an object's is its oid), ``None``
        for data the cache never holds (arrays).
        """
        frames = self._frames
        if frames:
            accessor_site, accessor_class, accessor_oid, _ = frames[-1]
        else:
            accessor_class, accessor_oid = MAIN_CLASS, None
            accessor_site = self._client_site
        remote = owner_site != accessor_site
        if nbytes is None:
            nbytes = deep_size(value) if value is not None else _REF_BYTES
        cached = False
        cache = self._cache
        if cache is not None and cache_key is not None:
            if is_write:
                # Write-invalidate, local writes included: the owner
                # mutating its own state makes the peer's copy stale.
                # Most writes find no entry, and a miss counts nothing.
                if cache_key in self._cache_valid:
                    cache.invalidate(cache_key)
            elif remote:
                cached = cache.note_read(cache_key)
        if remote and not cached:
            coalescer = self._coalescer
            if coalescer is not None:
                if is_write:
                    coalescer.write(accessor_site, owner_site, nbytes)
                else:
                    coalescer.read(accessor_site, owner_site, nbytes)
            else:
                # One exchange: a write carries the value out and an
                # empty ack back, a read an empty request out and the
                # value back.  The answer only travels if the request
                # was delivered; a dead peer means recovery already made
                # the access local.
                out, back = (nbytes, 0) if is_write else (0, nbytes)
                runtime = self.runtime
                if runtime.transfer(accessor_site, owner_site,
                                    message_size(out)):
                    runtime.transfer(owner_site, accessor_site,
                                     message_size(back))
        if self.monitoring_enabled:
            self.hooks.on_access(new_record(AccessRecord, (
                accessor_class, accessor_oid, class_name, oid, field_name,
                nbytes, is_write, oid is None, accessor_site, owner_site,
                remote, cached,
            )))
            if self._event_cost:
                self._charge_monitoring_event(owner_site)

    # -- static data (always on the client) ----------------------------------------

    def get_static(self, class_name: str, field_name: str) -> Any:
        client = self.runtime.client()
        value = client.get_static(class_name, field_name)
        self._access(client.name, class_name, None, field_name, value, False,
                     RemoteReadCache.static_key(class_name))
        if isinstance(value, JObject):
            self.retain(value)
        return value

    def set_static(self, class_name: str, field_name: str, value: Any) -> None:
        client = self.runtime.client()
        client.set_static(class_name, field_name, value)
        self._access(client.name, class_name, None, field_name, value, True,
                     RemoteReadCache.static_key(class_name))

    # -- array element access -----------------------------------------------------
    #
    # No cache key: arrays are never cached (bulk element traffic is what
    # migration places), but their transfers still coalesce.

    def array_read(self, arr: JArray, count: int = 1) -> None:
        """Read ``count`` elements from an array (bulk-accounted)."""
        if arr is None:
            raise NullReferenceError("array access on null")
        if not arr.alive:
            raise StaleObjectError(f"array access on collected array {arr!r}")
        if count < 0:
            raise GuestError(f"negative element count {count}")
        if count:
            self._access(arr.home, arr.cls.name, arr.oid, "[]", None, False,
                         None, count * SLOT_SIZES[arr.element_type])

    def array_write(self, arr: JArray, count: int = 1) -> None:
        """Write ``count`` elements into an array (bulk-accounted)."""
        if arr is None:
            raise NullReferenceError("array access on null")
        if not arr.alive:
            raise StaleObjectError(f"array access on collected array {arr!r}")
        if count < 0:
            raise GuestError(f"negative element count {count}")
        if count:
            self._access(arr.home, arr.cls.name, arr.oid, "[]", None, True,
                         None, count * SLOT_SIZES[arr.element_type])
