"""Unit tests for the calibrated cost model (gpu/timing.py)."""

import dataclasses

import pytest

from repro.errors import CudaError
from repro.gpu.timing import (
    DEFAULT_HOST_COSTS,
    GPU_SPECS,
    GpuSpec,
    HostCosts,
    NS_PER_S,
)


class TestGpuSpecs:
    def test_both_paper_gpus_present(self):
        assert "V100" in GPU_SPECS and "K600" in GPU_SPECS

    def test_v100_matches_paper_hardware(self):
        v100 = GPU_SPECS["V100"]
        assert v100.compute_capability == (7, 0)
        assert v100.memory_bytes == 32 << 30
        # "128 is the maximum concurrent kernel limit" for CC 7.0 (§4.4.2).
        assert v100.max_concurrent_kernels == 128

    def test_k600_is_the_smaller_part(self):
        v100, k600 = GPU_SPECS["V100"], GPU_SPECS["K600"]
        assert k600.memory_bytes == 1 << 30  # "1 GB of RAM" (§4.1)
        assert k600.flops < v100.flops / 10
        assert k600.max_concurrent_kernels < v100.max_concurrent_kernels


class TestKernelCost:
    def test_compute_bound(self):
        spec = GPU_SPECS["V100"]
        # 14 Tflop of work ⇒ ~1 s.
        ns = spec.kernel_cost_ns(flop=spec.flops)
        assert ns == NS_PER_S + spec.kernel_launch_ns

    def test_memory_bound(self):
        spec = GPU_SPECS["V100"]
        ns = spec.kernel_cost_ns(flop=1.0, bytes_touched=spec.mem_bw)
        assert ns == NS_PER_S + spec.kernel_launch_ns

    def test_roofline_takes_max(self):
        spec = GPU_SPECS["V100"]
        both = spec.kernel_cost_ns(flop=spec.flops, bytes_touched=spec.mem_bw)
        assert both == NS_PER_S + spec.kernel_launch_ns

    def test_launch_latency_floor(self):
        spec = GPU_SPECS["V100"]
        assert spec.kernel_cost_ns(flop=0.0) == spec.kernel_launch_ns


class TestCopyCost:
    def test_pcie_for_host_transfers(self):
        spec = GPU_SPECS["V100"]
        one_gb = spec.copy_cost_ns(1 << 30, "h2d")
        assert one_gb == 1500 + round((1 << 30) / spec.pcie_bw * NS_PER_S)

    def test_d2d_uses_device_bandwidth(self):
        spec = GPU_SPECS["V100"]
        assert spec.copy_cost_ns(1 << 30, "d2d") < spec.copy_cost_ns(1 << 30, "h2d")

    def test_unknown_kind_rejected(self):
        with pytest.raises(CudaError):
            GPU_SPECS["V100"].copy_cost_ns(10, "h2h")


class TestHostCosts:
    def test_trampoline_supports_one_percent_claim(self):
        """Per-call trampoline extra (2 syscalls + body) must be well
        under 1% of the inter-call gap at the paper's highest sustained
        call rate (HPGMG's 35K calls/s ⇒ ~28.6 µs between calls)."""
        from repro.linux.process import SYSCALL_NS

        extra = 2 * SYSCALL_NS + DEFAULT_HOST_COSTS.trampoline_body_ns
        assert extra < 28_600 * 0.05

    def test_checkpoint_bandwidths_sane(self):
        c = DEFAULT_HOST_COSTS
        assert c.gzip_bw < c.ckpt_write_bw  # gzip is the bottleneck
        assert 1e9 < c.ckpt_write_bw < 10e9

    def test_startup_under_half_second(self):
        # BFS (2.7 s native) shows ≤14% overhead ⇒ startup ≤ ~0.4 s.
        assert DEFAULT_HOST_COSTS.crac_startup_ns < 0.4e9

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(HostCosts)]
    )
    def test_negative_cost_is_rejected_where_it_enters(self, name):
        """Time cannot go backwards: a negative cost raises when the
        costs are built, naming the field, so no per-call charge has to
        check it."""
        zero = 0 if name.endswith("_ns") else 0.0
        with pytest.raises(ValueError, match=f"HostCosts.{name} cannot be negative"):
            HostCosts(**{name: zero - 1})
        with pytest.raises(ValueError, match=f"HostCosts.{name} "):
            dataclasses.replace(DEFAULT_HOST_COSTS, **{name: -0.5})
        assert getattr(HostCosts(**{name: zero}), name) == 0
