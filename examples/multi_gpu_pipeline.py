#!/usr/bin/env python
"""Multi-GPU pipeline under CRAC (the paper's 4×V100 nodes, §4.1).

A data-parallel stencil pipeline over all four GPUs of one node: each
GPU owns a tile, iterates a smoothing kernel on its own stream, and
exchanges tile borders through peer copies. Mid-run the whole process is
checkpointed, killed, and restarted — every tile comes back on its
original GPU, at its original address, with the cudaSetDevice state and
all four streams intact.

Run:  python examples/multi_gpu_pipeline.py
"""

import numpy as np

from repro.core import CracSession
from repro.cuda.api import FatBinary

N_GPUS = 4
TILE = 64  # floats per tile
ITERS = 30

FATBIN = FatBinary("pipeline.fatbin", ("smooth",))


def main() -> None:
    session = CracSession(seed=5, n_gpus=N_GPUS)
    b = session.backend
    b.register_app_binary(FATBIN)
    print(f"node with {b.get_device_count()} GPUs "
          f"({session.runtime.devices[0].spec.name})")

    # One tile + one stream per GPU.
    tiles, streams = [], []
    rng = np.random.default_rng(7)
    for dev in range(N_GPUS):
        b.set_device(dev)
        ptr = b.malloc(4 * TILE)
        data = rng.random(TILE).astype(np.float32)
        b.memcpy(ptr, data, data.nbytes, "h2d")
        tiles.append(ptr)
        streams.append(b.stream_create())
    b.set_device(0)

    def smooth(dev):
        def fn():
            t = b.device_view(tiles[dev], 4 * TILE, np.float32)
            t[1:-1] = 0.25 * t[:-2] + 0.5 * t[1:-1] + 0.25 * t[2:]
        return fn

    checkpointed = False
    for it in range(ITERS):
        for dev in range(N_GPUS):
            b.launch("smooth", smooth(dev), stream=streams[dev],
                     flop=3.0 * TILE)
        for dev in range(N_GPUS):
            b.stream_synchronize(streams[dev])
        # Ring exchange of tile borders via peer copies.
        for dev in range(N_GPUS):
            b.memcpy_peer(tiles[(dev + 1) % N_GPUS], tiles[dev], 4)

        if it == ITERS // 2 and not checkpointed:
            image = session.checkpoint()
            session.kill()
            report = session.restart(image)
            checkpointed = True
            print(f"mid-run checkpoint at iteration {it}: "
                  f"{image.size_bytes >> 20} MB, restart "
                  f"{report.restart_time_ns / 1e6:.0f} ms, "
                  f"{report.adopted_streams} streams re-adopted on "
                  f"{N_GPUS} GPUs")

    sums = []
    for dev in range(N_GPUS):
        t = b.device_view(tiles[dev], 4 * TILE, np.float32)
        sums.append(float(t.sum()))
        assert b.runtime.buffer(tiles[dev]).device_index == dev
    print("per-GPU tile checksums after restart:",
          " ".join(f"{s:.4f}" for s in sums))
    print(f"virtual time: {session.process.clock_ns / 1e9:.3f} s ✓")


if __name__ == "__main__":
    main()
