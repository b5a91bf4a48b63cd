"""Exception hierarchy for the AIDE reproduction.

Every error raised by the library derives from :class:`AideError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish guest-program failures (``GuestError``)
from platform failures.
"""

from __future__ import annotations


class AideError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(AideError):
    """A configuration value is missing, malformed, or inconsistent."""


class GuestError(AideError):
    """Base class for errors raised *inside* a guest program.

    These correspond to Java exceptions thrown by the application running
    on the guest VM, as opposed to failures of the platform itself.
    """


class OutOfMemoryError(GuestError):
    """The guest heap could not satisfy an allocation even after GC.

    Mirrors ``java.lang.OutOfMemoryError``: raised when the collector
    cannot reclaim enough space for a requested allocation.  The paper's
    headline memory experiment (JavaNote with a 6 MB heap) relies on this
    being raised by the unmodified VM and *avoided* by the offloading
    platform.
    """

    def __init__(self, requested: int, free: int, capacity: int) -> None:
        super().__init__(
            f"guest heap exhausted: requested {requested} bytes, "
            f"{free} free of {capacity}"
        )
        self.requested = requested
        self.free = free
        self.capacity = capacity


class NullReferenceError(GuestError):
    """A guest method dereferenced a null object reference."""


class NoSuchClassError(GuestError):
    """The class loader has no definition for the requested class."""


class NoSuchMethodError(GuestError):
    """The invoked method does not exist on the target class."""


class NoSuchFieldError(GuestError):
    """The accessed field does not exist on the target class."""


class StaleObjectError(AideError):
    """An operation referenced an object that has been garbage collected."""


class RemoteInvocationError(AideError):
    """An RPC between the client and surrogate VM failed."""


class ReferenceMappingError(RemoteInvocationError):
    """A cross-VM object reference could not be resolved."""


class MigrationError(AideError):
    """Object migration between VMs failed or was attempted illegally.

    Raised, for example, when trying to offload a class that is pinned to
    the client (native methods, static state) or an object that is
    currently executing a method frame.
    """


class PartitioningError(AideError):
    """The partitioning heuristic was given an invalid input graph."""


class NoBeneficialPartitionError(PartitioningError):
    """No candidate partitioning satisfied the active policy.

    This is an expected outcome (the paper's Biomer CPU experiment refuses
    to offload); it is an exception so that engine call sites cannot
    silently ignore it, but the engine converts it into a "do not offload"
    decision.
    """


class PlatformError(AideError):
    """Ad-hoc platform lifecycle failure (discovery, attach, teardown)."""


class SurrogateUnavailableError(PlatformError):
    """No surrogate matching the requested constraints could be found."""


class TraceError(AideError):
    """An execution trace is malformed or incompatible with the replayer."""


class TraceFormatError(TraceError):
    """A serialised trace could not be parsed."""
