"""Analytic network link model.

The paper's emulator reduces the wireless network to two constants — an
11 Mbps WaveLAN link with a 2.4 ms round-trip time for a null message —
and stretches simulated execution time to account for remote invocations
and data accesses.  :class:`LinkModel` is that reduction, made explicit
and reusable for other link technologies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError

#: Floor for interpolated bandwidths (1 kbit/s).  ``LinkModel`` itself
#: rejects non-positive bandwidth outright — a zero-bandwidth "link" is
#: a disconnection and belongs in the fault layer, not the cost model —
#: but a mobility ramp interpolating toward an outage can numerically
#: approach zero; ramp construction clamps to this documented epsilon so
#: it can never build an invalid (or division-exploding) link.
MIN_BANDWIDTH_BPS = 1_000.0


@dataclass(frozen=True)
class LinkModel:
    """A symmetric point-to-point link.

    ``latency_s`` is the one-way propagation plus protocol-stack latency;
    a null RPC therefore costs ``2 * latency_s`` (the round-trip time).
    """

    name: str
    bandwidth_bps: float
    latency_s: float

    def __post_init__(self) -> None:
        # Written so NaN fails each check: every comparison with NaN is
        # False.
        if not self.bandwidth_bps > 0:
            raise ConfigurationError(
                f"bandwidth must be positive, got {self.bandwidth_bps}"
            )
        if not 0 <= self.latency_s < math.inf:
            raise ConfigurationError(
                f"latency must be finite and non-negative, got "
                f"{self.latency_s}"
            )

    @property
    def rtt(self) -> float:
        """Round-trip time of a null message."""
        return 2 * self.latency_s

    def one_way(self, nbytes: int) -> float:
        """Seconds to deliver one ``nbytes`` message one way."""
        if nbytes < 0:
            raise ConfigurationError("message size cannot be negative")
        return self.latency_s + (nbytes * 8) / self.bandwidth_bps

    def round_trip(self, request_bytes: int, response_bytes: int = 0) -> float:
        """Seconds for a request/response exchange."""
        return self.one_way(request_bytes) + self.one_way(response_bytes)

    def bulk_transfer(self, nbytes: int) -> float:
        """Seconds to stream a large payload (single latency charge).

        Used for object migration, where the platform ships the selected
        partition in one streamed transfer rather than per-object RPCs.
        """
        if nbytes < 0:
            raise ConfigurationError("transfer size cannot be negative")
        return self.latency_s + (nbytes * 8) / self.bandwidth_bps

    def pipelined_transfer(self, nbytes: int, chunks: int) -> float:
        """Seconds to stream ``nbytes`` as ``chunks`` pipelined stages.

        Models a migration session where serialisation of chunk *i+1*
        overlaps transmission of chunk *i* and the chunks ride one
        connection back to back: only the pipeline fill (one link
        latency) is exposed, however many chunks the stream carries.
        Sending the same chunks as separate transfers would cost
        ``chunks`` latencies; the saving is ``(chunks - 1) *
        latency_s``.
        """
        if nbytes < 0:
            raise ConfigurationError("transfer size cannot be negative")
        if chunks < 1:
            raise ConfigurationError("a pipelined transfer needs >= 1 chunk")
        return self.latency_s + (nbytes * 8) / self.bandwidth_bps
