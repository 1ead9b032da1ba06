"""The cluster's migration claims end to end, in virtual time.

- **Live vs naive.** Gaussian and Kmeans (scale 0.05, seed 0) each
  migrate from a V100 node to a K600 node once with
  :class:`~repro.cluster.LiveMigration` (begin at 25 % of the run, one
  pre-copy round at 50 %, cutover at 75 %) and once with
  :func:`~repro.cluster.naive_migrate` at 75 %. Both must land the
  fault-free digest on the K600 (a heterogeneous restore), and the live
  blackout must be below the naive one.
- **Elastic restore.** A 3-rank world's scattered regions restore onto
  2 and onto 5 ranks byte for byte.
- **Link faults.** A shipment over a link scripted to corrupt, then
  drop, its first two transfers still converges.

Rung-4 node failover is checked with the fault campaign
(``tests/harness/test_fault_tolerance.py``).
"""

import numpy as np
import pytest

from repro.apps.rodinia import Gaussian, Kmeans
from repro.cluster import (
    ClusterNode,
    Interconnect,
    LiveMigration,
    elastic_restore,
    naive_migrate,
)
from repro.core.session import CracSession
from repro.harness.fault_injection import derive_seed
from repro.harness.runner import drive
from repro.mpi.world import MpiWorld

SCALE = 0.05
SEED = 0
FRACS = (0.25, 0.5, 0.75)


def fault_free_digest(app_cls) -> int:
    session = CracSession(gpu="V100", seed=SEED)
    try:
        return drive(app_cls(scale=SCALE, seed=SEED), session, real=True).digest
    finally:
        session.kill()


def migrate(app_cls, *, live: bool):
    """Run the app on a V100 node and move it to a K600 node mid-run;
    returns (digest, migration report).

    The app's cuts drive the phases. If the run finishes before the
    last cut, the remaining phases complete after it.
    """
    name = app_cls.name
    kind = "" if live else "n"
    src = ClusterNode(f"{name}-{kind}src", gpu="V100",
                      seed=derive_seed(SEED, f"{name}:{kind}src"))
    dst = ClusterNode(f"{name}-{kind}dst", gpu="K600",
                      seed=derive_seed(SEED, f"{name}:{kind}dst"))
    ic = Interconnect(
        seed=derive_seed(SEED, f"{name}:{'live' if live else 'naive'}")
    )
    session = CracSession(gpu="V100", seed=SEED)
    src.adopt(name, session)
    if live:
        mig = LiveMigration(session, src, dst, interconnect=ic, job=name)
        steps, cuts = [mig.begin, mig.precopy_round, mig.cutover], FRACS
    else:
        steps = [lambda: naive_migrate(
            session, src, dst, interconnect=ic, job=name
        )]
        cuts = FRACS[-1:]
    reports = []

    def next_step(progress: float | None = None) -> None:
        reports.append(steps[len(reports)]())

    try:
        result = drive(
            app_cls(scale=SCALE, seed=SEED), session,
            cuts=cuts, on_cut=next_step, real=True,
        )
        while len(reports) < len(steps):
            next_step()
        assert session.gpu == "K600"
        return result.digest, reports[-1]
    finally:
        session.kill()


@pytest.fixture(scope="module", params=[Gaussian, Kmeans],
                ids=lambda cls: cls.name)
def app(request):
    """One app's fault-free digest and its live and naive migrations."""
    cls = request.param
    return {
        "fault_free": fault_free_digest(cls),
        "live": migrate(cls, live=True),
        "naive": migrate(cls, live=False),
    }


def test_live_blackout_below_naive(app):
    (_, live), (_, naive) = app["live"], app["naive"]
    assert live.precopy_rounds == 1
    assert live.blackout_ns < naive.blackout_ns


def test_live_and_naive_bit_correct_on_the_k600(app):
    assert app["live"][0] == app["fault_free"]
    assert app["naive"][0] == app["fault_free"]


@pytest.fixture(scope="module")
def three_rank_images():
    """A 3-rank world's two scattered regions (64 KiB of weights, 1 KiB
    of bias), checkpointed; returns (images, manifest, regions)."""
    rng = np.random.default_rng(derive_seed(SEED, "elastic-region"))
    regions = {
        "weights": rng.integers(0, 256, 64 << 10, dtype=np.uint8).tobytes(),
        "bias": rng.integers(0, 256, 1 << 10, dtype=np.uint8).tobytes(),
    }
    world = MpiWorld(3, gpu="V100", seed=SEED)
    try:
        for name, data in regions.items():
            world.scatter_region(name, data)
        return world.checkpoint_all(), world.partition_manifest(), regions
    finally:
        world.kill_all()


@pytest.mark.parametrize("m", [2, 5])
def test_elastic_restore_is_digest_equal(three_rank_images, m):
    images, manifest, regions = three_rank_images
    world, rep = elastic_restore(images, manifest, m, gpu="V100", seed=SEED)
    try:
        assert rep["ok"], rep
        for name, data in regions.items():
            assert world.gather_region(name) == data
    finally:
        world.kill_all()


def test_link_fault_shipment_converges_digest_equal():
    src = ClusterNode("lf-src", gpu="V100", seed=derive_seed(SEED, "lf:src"))
    dst = ClusterNode("lf-dst", gpu="V100", seed=derive_seed(SEED, "lf:dst"))
    ic = Interconnect(
        seed=derive_seed(SEED, "lf:wire"),
        fault_plan={0: "corrupt", 1: "drop"},
    )
    rng = np.random.default_rng(derive_seed(SEED, "lf:data"))
    data = rng.integers(0, 256, 64 << 10, dtype=np.uint8)
    out = np.zeros_like(data)
    session = CracSession(gpu="V100", seed=SEED)
    src.adopt("lf", session)
    try:
        addr = session.backend.malloc(data.nbytes)
        session.backend.memcpy(addr, data, data.nbytes, "h2d")
        rep = naive_migrate(session, src, dst, interconnect=ic, job="lf")
        session.backend.memcpy(out, addr, data.nbytes, "d2h")
    finally:
        session.kill()
    assert rep.retries >= 2
    assert np.array_equal(out, data)
