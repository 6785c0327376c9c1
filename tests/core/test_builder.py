"""Tests for incremental chain construction: :class:`SpecBuilder` declares
a chain family, and binding its compiled form builds the chain."""

import pytest

from repro.core import CTMCError
from repro.core.spec import SpecBuilder, SpecError, param


def _bind(builder, **env):
    return builder.build("chain").compile().bind(env)


class TestBasics:
    def test_add_state_idempotent(self):
        b = SpecBuilder().add_state("a").add_state("a")
        assert b.build("chain").states == ("a",)

    def test_add_states_order_preserved(self):
        b = SpecBuilder().add_states("c", "a", "b")
        assert b.build("chain").states == ("c", "a", "b")

    def test_add_rate_registers_states(self):
        b = SpecBuilder().add_rate("x", "y", 1.0)
        assert b.build("chain").states == ("x", "y")

    def test_rates_accumulate(self):
        b = SpecBuilder()
        b.add_rate("a", "b", 1.0)
        b.add_rate("a", "b", param("r"))
        assert _bind(b, r=2.0).successors("a") == {"b": pytest.approx(3.0)}

    def test_zero_rate_dropped(self):
        """A rate that binds to zero keeps its slot but is no transition."""
        b = SpecBuilder().add_rate("a", "b", param("r"))
        chain = _bind(b, r=0.0)
        assert chain.states == ("a", "b")
        assert chain.successors("a") == {}

    def test_negative_rate_rejected(self):
        b = SpecBuilder().add_rate("a", "b", param("r"))
        with pytest.raises(CTMCError):
            _bind(b, r=-0.1)

    def test_self_loop_rejected(self):
        with pytest.raises(SpecError):
            SpecBuilder().add_rate("a", "a", 1.0)

    def test_build_produces_working_chain(self):
        b = SpecBuilder()
        b.add_rate("up", "down", param("lam"))
        b.add_rate("down", "up", param("mu"))
        b.add_rate("down", "dead", 1.0)
        chain = b.build("chain", initial_state="up").compile().bind(
            {"lam": 2.0, "mu": 10.0}
        )
        assert chain.initial_state == "up"
        assert chain.mean_time_to_absorption() > 0

    def test_build_default_initial_is_first_state(self):
        b = SpecBuilder().add_rate("s0", "s1", 1.0)
        assert b.build("chain").initial_state == "s0"
