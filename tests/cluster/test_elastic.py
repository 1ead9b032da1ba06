"""Elastic N → M restore: repartition properties + end-to-end replay."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import elastic_restore, repartition
from repro.errors import ClusterError
from repro.mpi.world import MpiWorld, split_bytes


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=4096), st.integers(min_value=1, max_value=16))
def test_split_bytes_is_lossless_and_near_equal(data, n):
    parts = split_bytes(data, n)
    assert len(parts) == n
    assert b"".join(parts) == data
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1
    # The remainder lands on the leading chunks.
    assert sizes == sorted(sizes, reverse=True)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.binary(max_size=512), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=12),
)
def test_repartition_preserves_bytes_for_any_n_to_m(parts, m):
    new = repartition(parts, m)
    assert len(new) == m
    assert b"".join(new) == b"".join(parts)


def test_split_bytes_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        split_bytes(b"abc", 0)


class TestElasticRestore:
    def test_three_ranks_restore_onto_one_two_and_five(self):
        data = bytes(range(256)) * 64  # 16 KB, every byte value present
        bias = bytes(reversed(range(256)))
        world = MpiWorld(3, seed=9)
        world.scatter_region("weights", data)
        world.scatter_region("bias", bias)
        images = world.checkpoint_all()
        manifest = world.partition_manifest()
        world.kill_all()
        for m in (1, 2, 5):
            new_world, rep = elastic_restore(images, manifest, m, seed=9)
            assert rep["ok"], rep
            assert rep["old_ranks"] == 3 and rep["new_ranks"] == m
            assert rep["replayed_calls"] > 0
            assert new_world.gather_region("weights") == data
            assert new_world.gather_region("bias") == bias
            new_world.kill_all()

    def test_manifest_records_each_chunks_crc(self):
        world = MpiWorld(2, seed=4)
        world.scatter_region("r", b"abcdef")
        manifest = world.partition_manifest()
        world.kill_all()
        assert [e["crc32"] for e in manifest["r"]] == [
            zlib.crc32(b"abc"), zlib.crc32(b"def")
        ]

    def test_chunks_in_the_wrong_rank_order_are_not_ok(self):
        # Equal chunks at equal addresses: the images of ranks 0 and 2,
        # swapped, restore and reassemble without an error, in the
        # wrong rank order.
        data = b"".join(bytes([r + 1]) * 1024 for r in range(3))
        world = MpiWorld(3, seed=9)
        world.scatter_region("weights", data)
        images = world.checkpoint_all()
        manifest = world.partition_manifest()
        world.kill_all()
        assert len({e["addr"] for e in manifest["weights"]}) == 1
        new_world, rep = elastic_restore(images[::-1], manifest, 2, seed=9)
        try:
            assert new_world.gather_region("weights") != data
            assert rep["ok"] is False
            assert rep["regions"]["weights"]["digest_equal"] is False
        finally:
            new_world.kill_all()

    def test_rejects_empty_inputs(self):
        world = MpiWorld(2, seed=1)
        world.scatter_region("r", b"xy")
        images = world.checkpoint_all()
        manifest = world.partition_manifest()
        world.kill_all()
        with pytest.raises(ClusterError):
            elastic_restore(images, manifest, 0)
        with pytest.raises(ClusterError):
            elastic_restore([], manifest, 2)

    def test_scatter_region_rejects_duplicate_names(self):
        world = MpiWorld(2, seed=2)
        world.scatter_region("r", b"abcd")
        with pytest.raises(ValueError):
            world.scatter_region("r", b"efgh")
        assert world.gather_region("r") == b"abcd"
        world.kill_all()
