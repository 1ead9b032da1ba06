"""CUDA streams and events (handles only; scheduling lives in device.py).

A stream is an in-order queue of device operations; operations in
different streams may overlap subject to the device's concurrent-kernel
limit and copy-engine availability. Stream 0 is the legacy default
stream: it synchronizes with every other stream, which the device engine
enforces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

_ids = itertools.count(1)


@dataclass
class Stream:
    """A CUDA stream handle.

    Attributes:
        sid: stream id; 0 is the legacy default stream.
        ready_ns: virtual time at which all work so far enqueued on this
            stream will have completed.
    """

    sid: int = field(default_factory=lambda: next(_ids))
    ready_ns: int = 0
    destroyed: bool = False
    #: number of kernels ever launched on this stream (diagnostics)
    kernel_count: int = 0
    #: index of the GPU this stream was created on (cudaSetDevice state
    #: at cudaStreamCreate time); streams are bound to one device.
    device_index: int = 0
    #: fault poisoning this stream (``"kernel-hang"``/``"copy-stall"``)
    #: or ``None``; set by the device when an injected runtime fault
    #: lands on this stream, cleared by a fault-domain stream reset.
    fault: str | None = None

    def __hash__(self) -> int:
        return self.sid


#: The legacy default stream singleton marker (per-runtime instances are
#: created by the CUDA runtime; this type alias documents intent).
DEFAULT_STREAM_ID = 0


@dataclass
class Event:
    """A CUDA event: a timestamp marker recorded into a stream."""

    eid: int = field(default_factory=lambda: next(_ids))
    #: virtual time the event will complete (meaningful once recorded)
    timestamp_ns: int = 0
    recorded: bool = False
    destroyed: bool = False

    def elapsed_ms_since(self, earlier: "Event") -> float:
        """cudaEventElapsedTime equivalent (milliseconds)."""
        if not (self.recorded and earlier.recorded):
            # Deferred import: repro.gpu must not pull in repro.cuda at
            # module load time (cuda/api.py imports this module).
            from repro.gpu.timing import _program_error

            raise _program_error(
                "INVALID_VALUE", "cudaEventElapsedTime on unrecorded event"
            )
        return (self.timestamp_ns - earlier.timestamp_ns) / 1e6

    def __hash__(self) -> int:
        return self.eid
