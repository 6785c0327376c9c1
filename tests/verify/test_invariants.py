"""The paper-derived invariants: they hold on main, and a deliberately
broken model is caught loudly."""

import pytest

from repro.models import NoRaidNodeModel, Parameters
from repro.models.configurations import ALL_CONFIGURATIONS, all_configurations
from repro.verify import REGISTRY, VerifyContext, closed_form_bound
from repro.verify.invariants import CLOSED_FORM_REL_ERROR_BOUNDS

pytestmark = pytest.mark.verify


@pytest.fixture(scope="module")
def ctx():
    """All nine configurations at the baseline point only (fast)."""
    base = Parameters.baseline()
    return VerifyContext(configs=ALL_CONFIGURATIONS, points=[base], base=base)


class TestInvariantsHoldOnMain:
    @pytest.mark.parametrize(
        "name",
        [
            "generator-conservation",
            "mttdl-monotone-nft",
            "raid-level-dominance",
            "critical-set-fractions",
            "closed-form-envelope",
            "time-rescaling-metamorphic",
        ],
    )
    def test_invariant_passes_at_baseline(self, ctx, name):
        check = REGISTRY.get(name).run(ctx)
        assert check.ok, [v.to_dict() for v in check.violations]
        assert check.checked > 0

    def test_every_configuration_has_a_declared_bound(self):
        for config in ALL_CONFIGURATIONS:
            bound = closed_form_bound(config)
            assert 0.0 < bound <= 1.0

    def test_bounds_tighten_with_internal_raid(self):
        for nft in (1, 2, 3):
            assert (
                CLOSED_FORM_REL_ERROR_BOUNDS[True][nft]
                <= CLOSED_FORM_REL_ERROR_BOUNDS[False][nft]
            )


class TestDeliberateViolationIsCaught:
    """The acceptance gate: breaking monotonicity on purpose must flip the
    registry (and the CLI) to a non-zero verdict."""

    @pytest.fixture
    def flipped_chain(self, monkeypatch):
        """Swap the no-RAID chains for NFT 1 and 3: MTTDL then *decreases*
        as the fault tolerance rises, violating mttdl-monotone-nft.  The
        engine evaluates models through spec()/chain_env(), so both are
        redirected (chain() follows automatically — it binds the spec)."""
        original_spec = NoRaidNodeModel.spec
        original_env = NoRaidNodeModel.chain_env

        def swapped(self):
            return NoRaidNodeModel(self.params, 4 - self.fault_tolerance)

        monkeypatch.setattr(
            NoRaidNodeModel, "spec", lambda self: original_spec(swapped(self))
        )
        monkeypatch.setattr(
            NoRaidNodeModel,
            "chain_env",
            lambda self: original_env(swapped(self)),
        )

    def test_registry_reports_the_violation(self, flipped_chain):
        base = Parameters.baseline()
        ctx = VerifyContext(
            configs=all_configurations(3), points=[base], base=base
        )
        report = REGISTRY.run(ctx, names=["mttdl-monotone-nft"])
        assert not report.ok
        assert report.exit_code == 1
        assert any(
            v.invariant == "mttdl-monotone-nft" and v.config.endswith("noraid")
            for v in report.violations
        )

    def test_cli_exits_non_zero(self, flipped_chain):
        from repro.verify.cli import main

        assert main(["--smoke", "--jobs", "1", "--quiet"]) != 0

    def test_unbroken_control(self):
        """Same selection, no patch: the invariant holds (guards against
        the violation test passing for an unrelated reason)."""
        base = Parameters.baseline()
        ctx = VerifyContext(
            configs=all_configurations(3), points=[base], base=base
        )
        report = REGISTRY.run(ctx, names=["mttdl-monotone-nft"])
        assert report.ok
