"""The spec path reproduces the frozen imperative chains.

Before the declarative specs were the only construction, every chain
family also had a hand-transcribed imperative builder: Figures 1, 4,
5-7 and 8-10 as drawn, and the appendix's literal recursion.  Their
outputs are frozen in ``tests/data/oracle_chains.json`` (states, initial
state, every generator nonzero and the MTTDL, as ``float.hex``): all
nine configurations at the 27 points of the verification lattice, about
25 seeded raw-input systems per family in the ranges the old property
tests drew from (``h = 0`` and the ``h > 1`` clamp included), the
recursion at k = 1-6, and the benchmarks' gentle point.

The comparison rule per case:

* bitwise (states, initial state, generator, MTTDL) where the spec's
  state tuple equals the frozen one;
* by label at fault tolerance 2, where ``"loss"`` registers after
  ``"Nd"`` instead of last: the same transient order, bitwise
  off-diagonal rates and a bitwise MTTDL (the exit-rate diagonal sums
  the same rates in another order);
* against the appendix-literal recursion, which orders states depth
  first and groups some rate products differently: the same edges,
  each rate within 4 ulp and the MTTDL within 2e-15 relative.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.models import Parameters
from repro.models.configurations import ALL_CONFIGURATIONS, Configuration
from repro.models.internal_raid import build_internal_raid_chain
from repro.models.no_raid import build_no_raid_chain
from repro.models.raid import build_raid5_chain, build_raid6_chain
from repro.verify.lattice import default_lattice

FIXTURE = Path(__file__).resolve().parents[1] / "data" / "oracle_chains.json"
DATA = json.loads(FIXTURE.read_text())

RATE_ULP = 4
MTTDL_REL = 2e-15


def _value(v):
    """A frozen input: ints (and bools) as stored, floats from hex."""
    return v if isinstance(v, int) else float.fromhex(v)


def _params(record):
    return Parameters(**{name: _value(v) for name, v in record.items()})


def _cases(family, **match):
    return [
        case
        for case in DATA["cases"]
        if case["family"] == family
        and all(case[key] == value for key, value in match.items())
    ]


def _nonzeros(chain):
    q = chain.generator_matrix()
    rows, cols = np.nonzero(q)
    return [[int(r), int(c), float(q[r, c]).hex()] for r, c in zip(rows, cols)]


def _off_diagonal(states, nonzeros):
    """Off-diagonal rates keyed by (source, target) label."""
    return {
        (states[r], states[c]): float.fromhex(x)
        for r, c, x in nonzeros
        if r != c
    }


def _transient(states, nonzeros):
    exits = {r for r, c, _ in nonzeros if r != c}
    return tuple(s for i, s in enumerate(states) if i in exits)


def assert_bitwise_equal(chain, case):
    name = case["name"]
    assert chain.states == tuple(case["states"]), name
    assert chain.initial_state == case["initial_state"], name
    assert _nonzeros(chain) == case["generator"], name
    assert chain.mean_time_to_absorption().hex() == case["mttdl"], name


def assert_equal_by_label(chain, case):
    """Same transient order and initial state, bitwise off-diagonal rates
    and MTTDL; the exit-rate diagonal may differ by summation order."""
    name = case["name"]
    states = tuple(case["states"])
    assert set(chain.states) == set(states), name
    assert chain.transient_states() == _transient(states, case["generator"]), name
    assert chain.initial_state == case["initial_state"], name
    assert _off_diagonal(chain.states, _nonzeros(chain)) == _off_diagonal(
        states, case["generator"]
    ), name
    assert chain.mean_time_to_absorption().hex() == case["mttdl"], name


def assert_within_ulp(chain, case):
    """Same states and edges, each rate within ``RATE_ULP`` units in the
    last place, MTTDL within ``MTTDL_REL`` relative."""
    name = case["name"]
    assert set(chain.states) == set(case["states"]), name
    assert chain.initial_state == case["initial_state"], name
    spec = _off_diagonal(chain.states, _nonzeros(chain))
    frozen = _off_diagonal(tuple(case["states"]), case["generator"])
    assert spec.keys() == frozen.keys(), f"{name}: edge sets differ"
    for edge, rate in frozen.items():
        scale = np.spacing(max(abs(spec[edge]), abs(rate)))
        assert abs(spec[edge] - rate) <= RATE_ULP * scale, (name, edge)
    exact = float.fromhex(case["mttdl"])
    assert chain.mean_time_to_absorption() == pytest.approx(
        exact, rel=MTTDL_REL, abs=0.0
    ), name


def assert_matches_figure(chain, case, fault_tolerance):
    """Bitwise where the state tuples agree; by label at FT2 only."""
    if chain.states == tuple(case["states"]):
        assert_bitwise_equal(chain, case)
    else:
        assert fault_tolerance == 2, case["name"]
        assert_equal_by_label(chain, case)


def _no_raid_chain(case, args=None):
    h = {word: _value(v) for word, v in case["h"].items()}
    if args is None:
        args = [_value(a) for a in case["args"]]
    return build_no_raid_chain(case["k"], *args, h)


def _model_chain(case, params):
    return Configuration.from_key(case["config"]).model(params).chain()


class TestNoRaidFamilies:
    """Figures 8, 9 and 10 on seeded raw inputs."""

    @staticmethod
    def _run(k):
        cases = _cases("no_raid", k=k)
        assert len(cases) == 25
        for case in cases:
            assert_matches_figure(_no_raid_chain(case), case, k)

    def test_ft1(self):
        self._run(1)

    def test_ft2(self):
        self._run(2)

    def test_ft3(self):
        self._run(3)

    def test_one_ulp_rate_change_is_caught(self):
        """Figure 9 is compared by label, yet still bitwise."""
        case = _cases("no_raid", k=2)[2]
        assert_matches_figure(_no_raid_chain(case), case, 2)
        args = [_value(a) for a in case["args"]]
        args[-1] = float(np.nextafter(args[-1], np.inf))  # mu_d
        with pytest.raises(AssertionError):
            assert_matches_figure(_no_raid_chain(case, args), case, 2)


class TestRecursiveFamily:
    def test_arbitrary_k(self):
        """The one family against the appendix-literal recursion at
        k = 1-6: the baseline point and seeded raw inputs."""
        cases = _cases("recursion")
        assert sorted({case["k"] for case in cases}) == [1, 2, 3, 4, 5, 6]
        for case in cases:
            assert_within_ulp(_no_raid_chain(case), case)


class TestInternalRaidFamily:
    def test_all_tolerances(self):
        """Figures 5-7 at t = 1-3, serial and parallel repair."""
        cases = _cases("internal_raid")
        assert {case["args"][-1] for case in cases} == {True, False}
        for case in cases:
            args = [_value(a) for a in case["args"]]
            assert_bitwise_equal(build_internal_raid_chain(*args), case)


class TestDriveLevelRaidFamilies:
    @staticmethod
    def _run(family, build):
        cases = _cases(family)
        assert {case["args"][-1] for case in cases} == {True, False}
        for case in cases:
            args = [_value(a) for a in case["args"]]
            assert_bitwise_equal(build(*args), case)

    def test_raid5(self):
        self._run("raid5", build_raid5_chain)

    def test_raid6(self):
        self._run("raid6", build_raid6_chain)


class TestModelPathOnLattice:
    """All nine paper configurations, at every point of the 27-point
    verification lattice: model.chain() (the compiled-spec path) must
    match the frozen chain by label, and bitwise wherever the state
    orders agree."""

    def test_lattice_is_the_verification_lattice(self):
        assert [_params(p) for p in DATA["lattice"]] == default_lattice()

    @pytest.mark.parametrize(
        "config", ALL_CONFIGURATIONS, ids=lambda c: c.key
    )
    def test_all_configs_all_points(self, config):
        cases = _cases("lattice", config=config.key)
        assert [case["point"] for case in cases] == list(range(27))
        for case in cases:
            params = _params(DATA["lattice"][case["point"]])
            assert_matches_figure(
                _model_chain(case, params), case, config.node_fault_tolerance
            )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_gentle_point(self, k):
        """The benchmarks' gentle point, where the closed forms are tight."""
        (case,) = _cases("gentle", config=f"ft{k}_noraid")
        assert_matches_figure(_model_chain(case, _params(case["params"])), case, k)
