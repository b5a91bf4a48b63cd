"""Single-VM session: a standalone client device running a guest app.

This is the "unmodified VM" configuration used by the paper as the
baseline (and for provoking the JavaNote out-of-memory failure), and
also the configuration from which execution traces are recorded for the
emulator.  The two-VM distributed session lives in
:mod:`repro.platform.platform`.
"""

from __future__ import annotations

from typing import Optional

from ..config import EnhancementFlags, VMConfig
from .classloader import ClassRegistry
from .clock import VirtualClock
from .context import ExecutionContext, SingleVMRuntime
from .hooks import ExecutionListener, HookFanout
from .natives import install_standard_library
from .vm import VirtualMachine

#: Site name of the client device in every session.
CLIENT_SITE = "client"


class LocalSession:
    """One client VM, its registry, clock, and execution context."""

    def __init__(
        self,
        config: Optional[VMConfig] = None,
        registry: Optional[ClassRegistry] = None,
        flags: EnhancementFlags = EnhancementFlags(),
        install_stdlib: bool = True,
    ) -> None:
        self.config = config if config is not None else VMConfig()
        self.clock = VirtualClock()
        if registry is None:
            registry = ClassRegistry()
            if install_stdlib:
                install_standard_library(registry)
        self.registry = registry
        self.vm = VirtualMachine(
            CLIENT_SITE, self.config, self.registry, clock=self.clock
        )
        self.hooks = HookFanout()
        self.ctx = ExecutionContext(
            SingleVMRuntime(self.vm), self.registry, hooks=self.hooks, flags=flags
        )
        self.vm.collector.subscribe(
            lambda report: self.hooks.on_gc_report(report, CLIENT_SITE)
        )
        # Looked up per free: the fanout rebinds its hooks on ``add``.
        self.vm.collector.subscribe_free(lambda obj: self.hooks.on_free(obj))

    def add_listener(self, listener: ExecutionListener) -> None:
        self.hooks.add(listener)

    @property
    def elapsed(self) -> float:
        return self.clock.now
