"""Tests for the RAID 5 / RAID 6 drive-level Markov models (Figures 1, 4)."""

import pytest

from repro.models import (
    ArrayRates,
    InternalRaid,
    Parameters,
    Raid5Model,
    Raid6Model,
    array_model,
    build_raid5_chain,
    build_raid6_chain,
    raid5_mttdl_approx,
    raid5_mttdl_exact_formula,
    raid6_mttdl_approx,
)


class TestRaid5Chain:
    def test_states(self):
        chain = build_raid5_chain(8, 1e-5, 0.1, 0.02)
        assert set(chain.states) == {0, 1, "loss"}
        assert chain.absorbing_states() == ("loss",)

    def test_transition_rates(self):
        d, lam, mu, h = 8, 1e-5, 0.1, 0.02
        chain = build_raid5_chain(d, lam, mu, h)
        assert chain.rate(0, 1) == pytest.approx(d * lam * (1 - h))
        assert chain.rate(0, "loss") == pytest.approx(d * lam * h)
        assert chain.rate(1, 0) == pytest.approx(mu)
        assert chain.rate(1, "loss") == pytest.approx((d - 1) * lam)

    def test_chain_solve_equals_paper_exact_formula(self):
        """The paper's RAID 5 closed form is exact — the chain must match
        it to machine precision."""
        for d, lam, mu, h in [
            (4, 1e-5, 0.5, 0.01),
            (12, 1 / 300_000, 0.032, 0.264),
            (24, 1e-4, 2.0, 0.0),
        ]:
            chain = build_raid5_chain(d, lam, mu, h)
            formula = raid5_mttdl_exact_formula(d, lam, mu, h)
            assert chain.mean_time_to_absorption() == pytest.approx(
                formula, rel=1e-12
            )

    def test_approx_close_when_mu_dominates(self):
        d, lam, mu = 8, 1e-7, 1.0
        che = 1e-4
        exact = build_raid5_chain(d, lam, mu, (d - 1) * che).mean_time_to_absorption()
        approx = raid5_mttdl_approx(d, lam, mu, che)
        assert approx == pytest.approx(exact, rel=0.01)

    def test_h_clamped_to_one(self):
        chain = build_raid5_chain(8, 1e-5, 0.1, 5.0)
        # With h = 1 every first failure is immediately fatal.
        assert chain.rate(0, 1) == 0.0

    def test_too_few_drives(self):
        with pytest.raises(ValueError):
            build_raid5_chain(1, 1e-5, 0.1, 0.0)

    def test_negative_h_rejected(self):
        with pytest.raises(ValueError):
            build_raid5_chain(4, 1e-5, 0.1, -0.1)


class TestRaid6Chain:
    def test_states(self):
        chain = build_raid6_chain(8, 1e-5, 0.1, 0.02)
        assert set(chain.states) == {0, 1, 2, "loss"}

    def test_transition_rates(self):
        d, lam, mu, h = 8, 1e-5, 0.1, 0.02
        chain = build_raid6_chain(d, lam, mu, h)
        assert chain.rate(0, 1) == pytest.approx(d * lam)
        assert chain.rate(1, 2) == pytest.approx((d - 1) * lam * (1 - h))
        assert chain.rate(1, "loss") == pytest.approx((d - 1) * lam * h)
        assert chain.rate(2, "loss") == pytest.approx((d - 2) * lam)
        assert chain.rate(2, 1) == pytest.approx(mu)

    def test_approx_close_when_mu_dominates(self):
        d, lam, mu = 8, 1e-7, 1.0
        che = 1e-4
        exact = build_raid6_chain(d, lam, mu, (d - 2) * che).mean_time_to_absorption()
        approx = raid6_mttdl_approx(d, lam, mu, che)
        assert approx == pytest.approx(exact, rel=0.01)

    def test_raid6_beats_raid5(self):
        d, lam, mu, che = 12, 1 / 300_000, 0.032, 0.024
        r5 = build_raid5_chain(d, lam, mu, (d - 1) * che).mean_time_to_absorption()
        r6 = build_raid6_chain(d, lam, mu, (d - 2) * che).mean_time_to_absorption()
        assert r6 > 100 * r5

    def test_too_few_drives(self):
        with pytest.raises(ValueError):
            build_raid6_chain(2, 1e-5, 0.1, 0.0)


class TestArrayRates:
    def test_raid5_approx_rates_formulas(self, baseline):
        model = Raid5Model(baseline)
        rates = model.rates()
        d, lam = 12, baseline.drive_failure_rate
        mu = model.restripe_rate
        assert rates.array_failure_rate == pytest.approx(d * 11 * lam**2 / mu)
        assert rates.restripe_sector_loss_rate == pytest.approx(
            d * 11 * lam * 0.024
        )

    def test_raid6_approx_rates_formulas(self, baseline):
        model = Raid6Model(baseline)
        rates = model.rates()
        d, lam = 12, baseline.drive_failure_rate
        mu = model.restripe_rate
        assert rates.array_failure_rate == pytest.approx(
            d * 11 * 10 * lam**3 / mu**2
        )
        assert rates.restripe_sector_loss_rate == pytest.approx(
            d * 11 * 10 * lam**2 * 0.024 / mu
        )

    def test_exact_rates_converge_to_approx(self, gentle_params):
        """In the mu >> lambda regime the exact split-state extraction
        reproduces the paper's approximations."""
        model = Raid5Model(gentle_params)
        approx = model.rates("approx")
        exact = model.rates("exact")
        assert exact.array_failure_rate == pytest.approx(
            approx.array_failure_rate, rel=0.02
        )
        assert exact.restripe_sector_loss_rate == pytest.approx(
            approx.restripe_sector_loss_rate, rel=0.02
        )

    def test_exact_rates_sum_to_renewal_rate(self, baseline):
        """lambda_D + lambda_S must equal 1 / MTTDL for the exact method."""
        for model in (Raid5Model(baseline), Raid6Model(baseline)):
            exact = model.rates("exact")
            total = exact.array_failure_rate + exact.restripe_sector_loss_rate
            assert total == pytest.approx(1.0 / exact.mttdl_hours, rel=1e-9)

    def test_unknown_method_rejected(self, baseline):
        with pytest.raises(ValueError):
            Raid5Model(baseline).rates("magic")

    def test_raid6_much_more_reliable_array(self, baseline):
        r5 = Raid5Model(baseline).rates()
        r6 = Raid6Model(baseline).rates()
        assert r6.array_failure_rate < r5.array_failure_rate / 100


class TestLazyArrayMttdl:
    @pytest.mark.parametrize("model_cls", [Raid5Model, Raid6Model])
    def test_mttdl_hours_bitwise_equals_exact_solve(self, baseline, model_cls):
        model = model_cls(baseline)
        rates = model.rates("approx")
        assert callable(rates.mttdl_source)  # not solved yet
        assert rates.mttdl_hours == model.mttdl_exact()
        assert rates.mttdl_source == model.mttdl_exact()  # now cached

    @pytest.mark.parametrize("model_cls", [Raid5Model, Raid6Model])
    def test_exact_rates_carry_their_solved_mttdl(self, baseline, model_cls):
        rates = model_cls(baseline).rates("exact")
        assert isinstance(rates.mttdl_source, float)
        assert rates.mttdl_hours == rates.mttdl_source

    def test_solved_once_on_first_read(self, baseline):
        calls = []
        model = Raid5Model(baseline)

        def counted():
            calls.append(1)
            return model.mttdl_exact()

        rates = ArrayRates(1.0, 2.0, counted)
        assert calls == []
        first = rates.mttdl_hours
        assert rates.mttdl_hours == first
        assert calls == [1]

    def test_excluded_from_equality_and_hash(self):
        solved = ArrayRates(1.0, 2.0, 5.0)
        lazy = ArrayRates(1.0, 2.0, lambda: 7.0)
        assert solved == lazy
        assert hash(solved) == hash(lazy)
        assert solved != ArrayRates(1.0, 3.0, 5.0)


class TestFactory:
    def test_dispatch(self, baseline):
        assert isinstance(array_model(baseline, InternalRaid.RAID5), Raid5Model)
        assert isinstance(array_model(baseline, InternalRaid.RAID6), Raid6Model)

    def test_none_rejected(self, baseline):
        with pytest.raises(ValueError):
            array_model(baseline, InternalRaid.NONE)

    def test_drive_fault_tolerance_property(self):
        assert InternalRaid.NONE.drive_fault_tolerance == 0
        assert InternalRaid.RAID5.drive_fault_tolerance == 1
        assert InternalRaid.RAID6.drive_fault_tolerance == 2

    def test_exact_formula_matches_model(self, baseline):
        model = Raid5Model(baseline)
        assert model.mttdl_exact() == pytest.approx(
            model.mttdl_exact_formula(), rel=1e-10
        )
