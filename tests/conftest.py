"""Shared fixtures: a simulated machine (process + GPU + CUDA runtime)."""

import gc
import shutil
import sys
from collections import Counter
from contextlib import contextmanager
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


@contextmanager
def collector_off():
    """Run the block with the cycle collector off, after one collection;
    the collector's state is restored afterwards."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def python_frames(fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)``; return its result and the Python
    frames it entered per qualified name (every ``"call"`` profile
    event, the standard library's included).

    The call runs with the cycle collector off (after one collection),
    so the count never includes the gc callbacks other libraries
    register (hypothesis times every collection); the collector's state
    is restored afterwards."""
    frames: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            frames[getattr(code, "co_qualname", code.co_name)] += 1

    with collector_off():
        sys.setprofile(profile)
        try:
            result = fn(*args, **kwargs)
        finally:
            sys.setprofile(None)
    return result, frames


def python_calls(fn, *args):
    """Run ``fn(*args)``; return its result and the number of Python
    frames it entered (see :func:`python_frames`)."""
    result, frames = python_frames(fn, *args)
    return result, sum(frames.values())


def tracked_objects(fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)``; return its result and how many more
    objects the cycle collector tracks after the call than before it
    (what the result keeps alive that the collector must traverse).

    The call runs under :func:`collector_off`, so no collection in
    between untracks or frees anything."""
    with collector_off():
        before = len(gc.get_objects())
        result = fn(*args, **kwargs)
        after = len(gc.get_objects())
    return result, after - before


def call_breakdown(frames: Counter) -> str:
    """``frames`` one qualified name a line, most-entered first: the
    message of a blown call budget names the frames that blew it."""
    lines = [f"{sum(frames.values())} Python calls:"]
    lines += [f"  {n:3d}  {name}" for name, n in frames.most_common()]
    return "\n".join(lines)


def python_lines(fn, *args, exclude=()):
    """Run ``fn(*args)``; return its result and the Python lines it
    executed (every ``"line"`` trace event). Frames of functions whose
    qualified name starts with a prefix in ``exclude``, and every frame
    they call, are not counted. The tracer set before is restored."""
    lines = 0
    excluded_depth = 0

    def in_excluded(frame, event, arg):
        nonlocal excluded_depth
        if event == "return":
            excluded_depth -= 1
        return in_excluded

    def count(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return count

    def trace(frame, event, arg):
        nonlocal excluded_depth
        if excluded_depth:
            return None
        if exclude and frame.f_code.co_qualname.startswith(exclude):
            excluded_depth += 1
            return in_excluded
        return count

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, lines


@pytest.fixture
def no_cycle_collector():
    """Only reference counting frees objects during the test."""
    with collector_off():
        yield


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
