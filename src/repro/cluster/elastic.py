"""Elastic restore: an N-rank MPI job resumed on M ranks.

CRAC's restore is replay-based, which frees the restored world from the
original rank count for *data-parallel* state: each old rank's image is
restored into a scratch session (its malloc log replayed, its device
buffers refilled — the per-rank stream-log replay of a normal restart),
the job's scattered regions are read back out of the restored address
spaces using the partition manifest captured with the checkpoint, the
global byte strings are reassembled, and a fresh M-rank world receives
them repartitioned into M near-equal contiguous chunks. Every region is
checked against the source world: the new world's bytes at each old
chunk's offset must match the CRC the manifest recorded for that chunk,
so a chunk read from the wrong rank or joined in the wrong order fails
the check. :func:`repartition` is pure concatenate-and-split, so N → M
preserves content exactly for any N, M ≥ 1 (the property the
hypothesis suite drives).
"""

from __future__ import annotations

import zlib

from repro.core.session import CracSession
from repro.dmtcp.image import CheckpointImage
from repro.errors import ClusterError
from repro.mpi.world import MpiWorld, split_bytes


def repartition(parts: list[bytes], m: int) -> list[bytes]:
    """Repartition N contiguous chunks into M near-equal ones.

    Pure and lossless: ``b"".join(repartition(parts, m)) ==
    b"".join(parts)`` for any m ≥ 1 — the invariant elastic restore's
    byte-for-byte guarantee reduces to.
    """
    return split_bytes(b"".join(parts), m)


def elastic_restore(
    images: list[CheckpointImage],
    manifest: dict[str, list[dict]],
    m: int,
    *,
    gpu: str = "V100",
    seed: int = 0,
) -> tuple[MpiWorld, dict]:
    """Restore an N-rank job's scattered regions onto a fresh M-rank world.

    ``images`` is one checkpoint image per old rank (a consistent cut,
    e.g. from ``MpiWorld.checkpoint_all``); ``manifest`` is the
    partition manifest captured alongside it
    (``MpiWorld.partition_manifest``). Returns the new world plus a
    report with per-region digests; ``report["ok"]`` is True only if
    every region's chunks, gathered from the new world, match the CRCs
    the source world recorded.
    """
    if m < 1:
        raise ClusterError("elastic restore needs at least one new rank")
    if not images:
        raise ClusterError("elastic restore needs at least one rank image")
    # 1. Replay every old rank's image into a scratch session and read
    #    its region chunks back out of the restored device buffers.
    chunks: dict[str, dict[int, bytes]] = {name: {} for name in manifest}
    replayed_calls = 0
    for rank, image in enumerate(images):
        scratch = CracSession(gpu=gpu, seed=seed)
        try:
            report = scratch.restart(image, allow_heterogeneous=True)
            replayed_calls += report.replayed_calls
            for name in sorted(manifest):
                entry = manifest[name][rank]
                if entry["rank"] != rank:
                    raise ClusterError(
                        f"manifest for region {name!r} is not rank-ordered"
                    )
                if entry["nbytes"] == 0:
                    chunks[name][rank] = b""
                    continue
                buf = scratch.runtime.buffer(entry["addr"])
                if buf is None:
                    raise ClusterError(
                        f"rank {rank} replay did not recreate region "
                        f"{name!r} at {entry['addr']:#x}"
                    )
                chunks[name][rank] = buf.contents.read_bytes(
                    0, entry["nbytes"]
                )
        finally:
            scratch.kill()
    # 2. Reassemble each global region (rank order == offset order) and
    #    scatter it across the new world's ranks.
    world = MpiWorld(m, gpu=gpu, seed=seed)
    regions: dict[str, dict] = {}
    for name in sorted(manifest):
        global_bytes = b"".join(
            chunks[name][r] for r in range(len(images))
        )
        world.scatter_region(name, global_bytes)
        gathered = world.gather_region(name)
        regions[name] = {
            "nbytes": len(global_bytes),
            "crc": zlib.crc32(global_bytes),
            "digest_equal": len(gathered) == len(global_bytes) and all(
                zlib.crc32(gathered[e["offset"]:e["offset"] + e["nbytes"]])
                == e["crc32"]
                for e in manifest[name]
            ),
        }
    return world, {
        "old_ranks": len(images),
        "new_ranks": m,
        "replayed_calls": replayed_calls,
        "regions": regions,
        "ok": all(r["digest_equal"] for r in regions.values()),
    }
