"""Shared fixtures: a simulated machine (process + GPU + CUDA runtime)."""

import shutil
from pathlib import Path

import pytest

from repro.cuda.api import CudaRuntime, FatBinary
from repro.cuda.interface import NativeBackend
from repro.gpu.device import GpuDevice
from repro.gpu.timing import GPU_SPECS
from repro.linux.loader import ProgramImage, ProgramLoader
from repro.linux.process import ADDR_NO_RANDOMIZE, SimProcess


def build_machine(gpu="V100", aslr=False, fsgsbase=False, seed=11):
    """A process with a loaded lower half and a CUDA runtime in it."""
    proc = SimProcess(aslr=aslr, fsgsbase=fsgsbase, seed=seed)
    if not aslr:
        proc.personality(ADDR_NO_RANDOMIZE)
    loader = ProgramLoader(proc)
    loader.load(
        ProgramImage(
            name="helper",
            segments=ProgramImage.simple("helper", 16, 16).segments,
            libraries=(ProgramImage.simple("libcuda.so", 2048, 512),),
        ),
        "lower",
    )
    device = GpuDevice(GPU_SPECS[gpu])
    runtime = CudaRuntime(
        proc,
        device,
        mem_source=lambda size, tag: loader.mmap_for_half("lower", size, tag_leaf=tag),
    )
    return proc, loader, device, runtime


APP_FATBIN = FatBinary(name="app.fatbin", kernels=("k", "k2", "init_kernel"))


@pytest.fixture
def machine():
    return build_machine()


@pytest.fixture
def backend(machine):
    """A native backend with the test app's fat binary registered."""
    _, _, _, runtime = machine
    b = NativeBackend(runtime)
    b.register_app_binary(APP_FATBIN)
    return b


@pytest.fixture
def bench_baseline(tmp_path, monkeypatch):
    """A private copy of the committed bench baseline: ``repro bench``
    gates against it and ``--update-baseline`` writes it."""
    from repro.harness import suites

    path = tmp_path / "BASELINE.json"
    shutil.copy(Path(__file__).resolve().parents[1] / suites.BASELINE_PATH, path)
    monkeypatch.setattr(suites, "BASELINE_PATH", str(path))
    return path
