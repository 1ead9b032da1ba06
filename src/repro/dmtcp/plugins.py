"""DMTCP plugin event API (modelled on dmtcp_event_hook).

Plugins participate in the checkpoint lifecycle:

1. ``on_precheckpoint(image)`` — before memory is written. CRAC uses this
   to drain the GPU, stage active device buffers into blobs, and log
   stream/event metadata, charging each stage through ``image.cut``
   (which places it on the app clock or the background timeline).
2. ``skip_ranges()`` — address ranges DMTCP must *not* save. CRAC returns
   every lower-half range: the CUDA library and its arenas are not
   checkpointed (§3.1: "we do not save the memory of the proxy program").
3. ``on_resume(image)`` — after a checkpoint, when the original process
   continues running.

Restart has no plugin hook: :meth:`repro.core.CracSession.restart` maps
the upper half back and replays the allocation log into a fresh lower
half itself.
"""

from __future__ import annotations

from repro.dmtcp.image import CheckpointImage


class DmtcpPlugin:
    """Base class; default hooks do nothing."""

    name = "plugin"

    def on_precheckpoint(self, image: CheckpointImage) -> None:
        """Stage plugin state into the image before memory is saved."""

    def skip_ranges(self) -> list[tuple[int, int]]:
        """(start, size) ranges to exclude from the memory dump."""
        return []

    def on_resume(self, image: CheckpointImage) -> None:
        """The original process continues after a checkpoint."""
