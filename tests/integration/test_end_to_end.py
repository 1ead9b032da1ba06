"""End-to-end integration: every app × every dispatcher, checkpoint
chains, and the combined transparency matrix."""

import pytest

from repro.apps import Hpgmg, Hypre, Lulesh, SimpleStreams, UnifiedMemoryStreams
from repro.apps.rodinia import RODINIA_SUITE
from repro.harness import Machine, run_app

SCALE = 0.01
ALL_APPS = list(RODINIA_SUITE) + [
    SimpleStreams, UnifiedMemoryStreams, Lulesh, Hpgmg, Hypre,
]


class TestCrossModeMatrix:
    """Output must be identical under every dispatcher that supports
    the app's feature set (UVM apps can't run under CRCUDA, and the
    UVM+streams apps violate CRUM's restrictions by design)."""

    @pytest.mark.parametrize("app_cls", ALL_APPS, ids=lambda c: c.__name__)
    def test_native_vs_crac_digest(self, app_cls):
        n = run_app(app_cls(scale=SCALE), mode="native", noise=False)
        c = run_app(app_cls(scale=SCALE), mode="crac", noise=False)
        assert n.digest == c.digest

    @pytest.mark.parametrize(
        "app_cls", RODINIA_SUITE, ids=lambda c: c.__name__
    )
    def test_rodinia_under_all_proxies(self, app_cls):
        """Rodinia uses no UVM, so even CRCUDA/CRUM run it correctly —
        just slower."""
        digests = set()
        for mode in ("native", "crum", "proxy-cma", "crcuda"):
            digests.add(
                run_app(app_cls(scale=SCALE), mode=mode, noise=False).digest
            )
        assert len(digests) == 1


class TestCheckpointChains:
    @pytest.mark.parametrize("app_cls", [RODINIA_SUITE[5], Lulesh, Hpgmg],
                             ids=lambda c: c.__name__)
    def test_two_checkpoints_in_one_run(self, app_cls):
        """Checkpoint → restart → checkpoint → restart, mid-run."""
        from repro.core import CracSession
        from repro.harness.runner import drive

        n = run_app(app_cls(scale=SCALE), mode="native", noise=False)
        session = CracSession(seed=0)
        fired = []

        def cut(progress):
            image = session.checkpoint()
            session.kill()
            session.restart(image)
            fired.append(progress)

        result = drive(
            app_cls(scale=SCALE), session, cuts=[0.3, 0.7], on_cut=cut
        )
        assert len(fired) == 2
        assert result.digest == n.digest


class TestDeviceVariants:
    def test_k600_produces_same_results_as_v100(self):
        """Timing differs; content must not."""
        app = RODINIA_SUITE[0]
        v = run_app(app(scale=SCALE), Machine.v100(), noise=False)
        k = run_app(app(scale=SCALE), Machine.k600(), noise=False)
        assert v.digest == k.digest

    def test_checkpoint_restart_on_k600(self):
        app = RODINIA_SUITE[0]
        n = run_app(app(scale=SCALE), Machine.k600(), noise=False)
        c = run_app(
            app(scale=SCALE), Machine.k600(), mode="crac",
            checkpoint_at=0.5, noise=False,
        )
        assert c.digest == n.digest
