"""Tests for dispatch-base mechanics: external accounting, thread
context, and call-counting conventions."""

from collections import Counter

import pytest

from repro.cuda.interface import LAUNCH_ARG_BYTES, NativeBackend
from repro.core.halves import SplitProcess
from repro.cuda.api import FatBinary

FB = FatBinary("if.fatbin", ("k",))


@pytest.fixture
def nb():
    split = SplitProcess(seed=131)
    backend = NativeBackend(split.runtime)
    backend.register_app_binary(FB)
    return backend


class TestExternalAccounting:
    def test_note_external_calls_multiplies(self, nb):
        nb.note_external_calls(Counter({"cudaLaunchKernel": 3}), repeats=5)
        assert nb.call_counter["cudaLaunchKernel"] == 15

    def test_note_external_has_no_cost(self, nb):
        t0 = nb.process.clock_ns
        nb.note_external_calls(Counter({"cudaMalloc": 1000}), repeats=1000)
        assert nb.process.clock_ns == t0


class TestThreadContext:
    def test_default_thread_is_none(self, nb):
        assert nb.current_thread is None

    def test_use_thread_scopes(self, nb):
        t = nb.process.spawn_thread()
        with nb.use_thread(t):
            assert nb.current_thread is t
            nb.malloc(64)  # works inside a thread context
        assert nb.current_thread is None

    def test_use_thread_nested(self, nb):
        t1 = nb.process.spawn_thread()
        t2 = nb.process.spawn_thread()
        with nb.use_thread(t1):
            with nb.use_thread(t2):
                assert nb.current_thread is t2
            assert nb.current_thread is t1


class TestCallConventions:
    def test_launch_arg_bytes_constant(self):
        assert LAUNCH_ARG_BYTES == 256

    def test_every_api_method_counts_exactly_once(self, nb):
        """Spot-check the non-launch entry points count 1 each."""
        checks = [
            ("malloc", (64,), "cudaMalloc"),
            ("malloc_host", (64,), "cudaMallocHost"),
            ("host_alloc", (64,), "cudaHostAlloc"),
            ("malloc_managed", (1 << 16,), "cudaMallocManaged"),
            ("device_synchronize", (), "cudaDeviceSynchronize"),
            ("stream_create", (), "cudaStreamCreate"),
            ("event_create", (), "cudaEventCreate"),
            ("get_device_properties", (), "cudaGetDeviceProperties"),
            ("mem_get_info", (), "cudaMemGetInfo"),
            ("get_device_count", (), "cudaGetDeviceCount"),
        ]
        for method, args, api in checks:
            before = nb.call_counter[api]
            getattr(nb, method)(*args)
            assert nb.call_counter[api] == before + 1, api

    def test_register_app_binary_counts_functions(self, nb):
        fb = FatBinary("many.fatbin", ("a", "b", "c"))
        before = nb.call_counter["__cudaRegisterFunction"]
        nb.register_app_binary(fb)
        assert nb.call_counter["__cudaRegisterFunction"] == before + 3
