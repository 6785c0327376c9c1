"""Unit tests for the declarative spec IR (compile--bind--solve front end)."""

import math
import zlib

import numpy as np
import pytest

from repro.core import CTMC, Transition
from repro.core.spec import (
    CompiledSpecCache,
    ModelSpec,
    RateExpr,
    SpecBuilder,
    SpecError,
    const,
    param,
    rate_min,
)


def _toy_spec():
    b = SpecBuilder()
    lam, mu, h = param("lam"), param("mu"), param("h")
    b.add_rate("up", "degraded", lam * (1.0 - h))
    b.add_rate("up", "lost", lam * h)
    b.add_rate("degraded", "up", mu)
    b.add_rate("degraded", "lost", 2.0 * lam)
    return b.build("toy")


def _toy_env(lam=0.25, mu=40.0, h=0.125):
    return {"lam": lam, "mu": mu, "h": h}


def _toy_reference(env):
    """The toy chain built directly, zero rates dropped."""
    rates = [
        ("up", "degraded", env["lam"] * (1.0 - env["h"])),
        ("up", "lost", env["lam"] * env["h"]),
        ("degraded", "up", env["mu"]),
        ("degraded", "lost", 2.0 * env["lam"]),
    ]
    return CTMC(
        ("up", "degraded", "lost"),
        [Transition(src, dst, rate) for src, dst, rate in rates if rate > 0],
        initial_state="up",
    )


class TestRateExpr:
    def test_arithmetic_matches_python(self):
        x, y = param("x"), param("y")
        env = {"x": 3.5, "y": 0.25}
        assert (x + y).evaluate(env) == 3.5 + 0.25
        assert (x - y).evaluate(env) == 3.5 - 0.25
        assert (x * y).evaluate(env) == 3.5 * 0.25
        assert (x / y).evaluate(env) == 3.5 / 0.25
        assert (2.0 * x + 1).evaluate(env) == 2.0 * 3.5 + 1
        assert (1.0 - y).evaluate(env) == 1.0 - 0.25

    def test_min_clamps(self):
        h = rate_min(param("h"), 1.0)
        assert h.evaluate({"h": 0.5}) == 0.5
        assert h.evaluate({"h": 7.0}) == 1.0

    def test_vectorized_evaluation_matches_scalar(self):
        expr = param("n") * param("lam") * (1.0 - rate_min(param("h"), 1.0))
        ns = np.array([4, 8, 16])
        lams = np.array([1e-4, 2e-4, 3e-4])
        hs = np.array([0.0, 0.5, 2.0])
        vec = expr.evaluate({"n": ns, "lam": lams, "h": hs})
        for i in range(3):
            scalar = expr.evaluate(
                {"n": int(ns[i]), "lam": float(lams[i]), "h": float(hs[i])}
            )
            assert vec[i] == scalar

    def test_missing_parameter_raises(self):
        with pytest.raises(SpecError, match="missing parameter 'lam'"):
            param("lam").evaluate({})

    def test_wrap_rejects_non_numbers(self):
        with pytest.raises(TypeError):
            RateExpr.wrap("0.5")
        with pytest.raises(TypeError):
            RateExpr.wrap(True)
        assert const(2).evaluate({}) == 2.0

    def test_canonical_is_stable_and_ordered(self):
        e1 = param("a") + param("b") * 2.0
        e2 = param("a") + param("b") * 2.0
        assert e1.canonical() == e2.canonical() == "(a+(b*2.0))"
        assert (param("b") * 2.0 + param("a")).canonical() != e1.canonical()


class TestModelSpec:
    def test_validation(self):
        r = param("r")
        with pytest.raises(SpecError, match="at least one state"):
            ModelSpec("x", (), (), "a")
        with pytest.raises(SpecError, match="duplicate state"):
            ModelSpec("x", ("a", "a"), (), "a")
        with pytest.raises(SpecError, match="self-loop"):
            ModelSpec("x", ("a", "b"), (("a", "a", r),), "a")
        with pytest.raises(SpecError, match="unknown states"):
            ModelSpec("x", ("a", "b"), (("a", "c", r),), "a")
        with pytest.raises(SpecError, match="duplicate edge"):
            ModelSpec("x", ("a", "b"), (("a", "b", r), ("a", "b", r)), "a")
        with pytest.raises(SpecError, match="must be a RateExpr"):
            ModelSpec("x", ("a", "b"), (("a", "b", 2.0),), "a")
        with pytest.raises(SpecError, match="initial state"):
            ModelSpec("x", ("a", "b"), (("a", "b", r),), "c")

    def test_param_names_sorted_union(self):
        spec = _toy_spec()
        assert spec.param_names == ("h", "lam", "mu")

    def test_spec_hash_is_content_addressed(self):
        assert _toy_spec().spec_hash == _toy_spec().spec_hash
        b = SpecBuilder()
        b.add_rate("up", "lost", param("lam"))
        other = b.build("toy")  # same name, different structure
        assert other.spec_hash != _toy_spec().spec_hash

    def test_spec_hash_sensitive_to_state_order(self):
        r = param("r")
        one = ModelSpec("x", ("a", "b", "c"), (("a", "b", r),), "a")
        two = ModelSpec("x", ("a", "c", "b"), (("a", "b", r),), "a")
        assert one.spec_hash != two.spec_hash

    def test_describe_lists_edges(self):
        text = _toy_spec().describe()
        assert "'up' -> 'degraded'" in text
        assert "lam" in text


class TestSpecBuilder:
    def test_states_register_in_insertion_order(self):
        spec = _toy_spec()
        assert spec.states == ("up", "degraded", "lost")
        assert spec.initial_state == "up"

    def test_parallel_rates_accumulate_left_nested(self):
        b = SpecBuilder()
        b.add_rate("a", "b", param("x"))
        b.add_rate("a", "b", param("y"))
        b.add_rate("a", "b", param("z"))
        (edge,) = b.build("acc").edges
        assert edge[2].canonical() == "((x+y)+z)"

    def test_self_loop_rejected(self):
        with pytest.raises(SpecError):
            SpecBuilder().add_rate("a", "a", param("x"))


class TestCompiledChain:
    def test_bind_matches_chain_builder_bitwise(self):
        env = _toy_env()
        bound = _toy_spec().compile().bind(env)
        reference = _toy_reference(env)
        assert bound.states == reference.states
        assert bound.initial_state == reference.initial_state
        assert np.array_equal(
            bound.generator_matrix(), reference.generator_matrix()
        )
        assert (
            bound.mean_time_to_absorption()
            == reference.mean_time_to_absorption()
        )

    def test_zero_rate_keeps_topology_fixed(self):
        """h = 1 zeroes the up->degraded edge; the compiled chain writes an
        explicit 0.0 instead of dropping the edge, so the matrix still
        matches the reference chain's (which drops it — same zero entry)."""
        env = _toy_env(h=1.0)
        bound = _toy_spec().compile().bind(env)
        reference = _toy_reference(env)
        assert np.array_equal(
            bound.generator_matrix(), reference.generator_matrix()
        )

    def test_bind_batch_bitwise_equals_per_point_bind(self):
        compiled = _toy_spec().compile()
        envs = [
            _toy_env(0.25, 40.0, 0.125),
            _toy_env(0.5, 10.0, 0.0),
            _toy_env(1e-3, 250.0, 1.0),
        ]
        stacked = {
            name: np.array([e[name] for e in envs])
            for name in compiled.spec.param_names
        }
        batch = compiled.bind_batch(stacked)
        assert len(batch) == 3
        for chain, env in zip(batch, envs):
            single = compiled.bind(env)
            assert chain.states == single.states
            assert np.array_equal(
                chain.generator_matrix(), single.generator_matrix()
            )
            assert (
                chain.mean_time_to_absorption()
                == single.mean_time_to_absorption()
            )

    def test_bind_batch_scalar_broadcast(self):
        compiled = _toy_spec().compile()
        stacked = {"lam": np.array([0.25, 0.5]), "mu": 40.0, "h": 0.125}
        batch = compiled.bind_batch(stacked)
        assert len(batch) == 2
        assert np.array_equal(
            batch[0].generator_matrix(),
            compiled.bind(_toy_env(0.25, 40.0, 0.125)).generator_matrix(),
        )

    def test_mismatched_array_lengths_raise(self):
        compiled = _toy_spec().compile()
        with pytest.raises(SpecError, match="disagree on length"):
            compiled.bind_batch(
                {"lam": np.array([1.0, 2.0]), "mu": np.array([1.0]), "h": 0.0}
            )

    def test_missing_env_parameter_raises(self):
        compiled = _toy_spec().compile()
        with pytest.raises(SpecError, match="missing"):
            compiled.bind({"lam": 0.25, "mu": 40.0})

    def test_bound_chains_are_independent(self):
        compiled = _toy_spec().compile()
        first = compiled.bind(_toy_env())
        q_before = first.generator_matrix()
        second = compiled.bind(_toy_env(lam=0.9))
        second.mean_time_to_absorption()
        assert np.array_equal(first.generator_matrix(), q_before)

    def test_counters(self):
        compiled = _toy_spec().compile()
        assert (compiled.hits, compiled.structure_rebuilds) == (0, 0)
        compiled.bind(_toy_env())
        stacked = {
            name: np.array([v, v])
            for name, v in _toy_env().items()
        }
        compiled.bind_batch(stacked)
        assert compiled.hits == 3  # one scalar bind + two batched points
        assert compiled.structure_rebuilds == 0


class TestCompiledSpecCache:
    def test_compile_once_then_hit(self):
        cache = CompiledSpecCache()
        a = cache.get_or_compile(_toy_spec())
        b = cache.get_or_compile(_toy_spec())
        assert a is b
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hashes() == (a.spec_hash,)

    def test_distinct_specs_get_distinct_entries(self):
        cache = CompiledSpecCache()
        cache.get_or_compile(_toy_spec())
        b = SpecBuilder()
        b.add_rate("a", "b", param("x"))
        cache.get_or_compile(b.build("other"))
        assert len(cache) == 2
        assert cache.misses == 2

    def test_poisoned_entry_detected_and_recompiled(self):
        cache = CompiledSpecCache()
        real = cache.get_or_compile(_toy_spec())
        b = SpecBuilder()
        b.add_rate("a", "b", param("x"))
        decoy = b.build("decoy").compile()
        cache._chains[real.spec_hash] = decoy
        again = cache.get_or_compile(_toy_spec())
        assert again is not decoy
        assert again.spec_hash == real.spec_hash
        assert cache.structure_rebuilds == 1
        # The recompiled entry replaces the poison; next lookup hits.
        hits = cache.hits
        assert cache.get_or_compile(_toy_spec()) is again
        assert cache.hits == hits + 1

    def test_clear(self):
        cache = CompiledSpecCache()
        cache.get_or_compile(_toy_spec())
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses, cache.structure_rebuilds) == (0, 0, 0)


def _bits(value):
    arr = np.asarray(value)
    return arr.dtype, arr.shape, arr.tobytes()


def _family_env(spec, rng, points=None, integers=False, h_max=1.5):
    """A random environment for ``spec``: ``n``/``d`` are whole numbers,
    ``h``-style probabilities straddle the clamp at 1 (up to ``h_max``),
    everything else is a positive rate.  ``points`` makes every entry a
    length-P array; ``integers`` makes every entry integer-valued.  An
    ``h`` above 1 can drive an unclamped ``1 - h`` rate negative, which
    the tape evaluates but :meth:`CompiledChain.bind` rejects."""
    env = {}
    for name in spec.param_names:
        size = points
        if name in ("n", "d") or integers:
            env[name] = (
                rng.integers(4, 64, size=size)
                if size is not None
                else int(rng.integers(4, 64))
            )
            continue
        if name.startswith("h") or name == "k_t":
            value = rng.uniform(0.0, h_max, size=size)
        else:
            value = 10.0 ** rng.uniform(-7, 1, size=size)
        env[name] = value if size is not None else float(value)
    return env


_PRODUCTION_SPECS = [
    "no_raid_ft1",
    "no_raid_ft2",
    "no_raid_ft3",
    "internal_raid_t1",
    "internal_raid_t2",
    "internal_raid_t3",
    "raid5",
    "raid5_split",
    "raid6",
    "raid6_split",
    "no_raid_ft4",
]


class TestRateTape:
    """The compiled tape reproduces :meth:`RateExpr.evaluate`, bitwise,
    for every production spec and every kind of environment."""

    @pytest.fixture(scope="class")
    def specs(self):
        from repro.models.specs import all_family_specs

        specs = all_family_specs()
        assert set(_PRODUCTION_SPECS) <= set(specs), sorted(specs)
        return specs

    @pytest.mark.parametrize("name", _PRODUCTION_SPECS)
    @pytest.mark.parametrize("kind", ["scalar", "vector", "integer"])
    def test_tape_matches_tree_evaluation(self, specs, name, kind):
        spec = specs[name]
        compiled = spec.compile()
        rng = np.random.default_rng(zlib.crc32(f"{name}:{kind}".encode()))
        for _ in range(5):
            env = _family_env(
                spec,
                rng,
                points=7 if kind == "vector" else None,
                integers=kind == "integer",
            )
            got = compiled.edge_rates(env)
            want = [expr.evaluate(env) for _, _, expr in spec.edges]
            assert len(got) == len(want) == compiled.num_edges
            for g, w in zip(got, want):
                assert _bits(g) == _bits(w)

    @pytest.mark.parametrize("name", _PRODUCTION_SPECS)
    def test_bind_matches_tree_assembly(self, specs, name):
        """bind and rate_tensor place the tape's values exactly where the
        per-edge tree evaluation used to."""
        spec = specs[name]
        compiled = spec.compile()
        env = _family_env(spec, np.random.default_rng(3), h_max=1.0)
        index = {s: i for i, s in enumerate(spec.states)}
        q = np.zeros((len(spec.states),) * 2)
        for src, dst, expr in spec.edges:
            q[index[src], index[dst]] = expr.evaluate(env)
        np.fill_diagonal(q, -q.sum(axis=1))
        assert np.array_equal(compiled.bind(env).generator_matrix(), q)
        tensor = compiled.rate_tensor(env)
        assert np.array_equal(
            tensor[0], [expr.evaluate(env) for _, _, expr in spec.edges]
        )

    def test_common_subtrees_share_one_instruction(self):
        shared = param("a") * param("b")
        b = SpecBuilder()
        b.add_rate("x", "y", shared + 1.0)
        b.add_rate("y", "x", param("a") * param("b"))  # equal, not identical
        b.add_rate("y", "z", shared)
        compiled = b.build("shared").compile()
        # a*b once, then (a*b)+1: two instructions for three edges.
        assert len(compiled._tape) == 2
        assert compiled.edge_rates({"a": 3.0, "b": 0.5}) == [2.5, 1.5, 1.5]

    def test_signed_zero_constants_stay_distinct(self):
        b = SpecBuilder()
        b.add_rate("x", "y", param("a") * 0.0)
        b.add_rate("y", "x", param("a") * -0.0)
        rates = b.build("zeros").compile().edge_rates({"a": 1.0})
        assert [np.copysign(1.0, r) for r in rates] == [1.0, -1.0]

    def test_missing_parameters_named_in_sorted_order(self):
        with pytest.raises(SpecError, match="missing parameters: h, mu"):
            _toy_spec().compile().bind({"lam": 0.25})


def _no_raid_env(node_rebuild_rate):
    from repro.models.specs import no_raid_env

    return no_raid_env(
        1, 64, 12, 1e-6, 2e-6, node_rebuild_rate, 0.05, {"N": 0.01, "d": 0.001}
    )


_BAD_RATES = [math.nan, math.inf, -1.0]


class TestRateChecks:
    """Every bind rejects a non-finite or negative rate, naming the spec,
    the edge and the value, instead of solving to NaN or a wrong finite
    answer."""

    @pytest.fixture
    def compiled(self):
        from repro.models.specs import compiled, no_raid_spec

        return compiled(no_raid_spec(1))

    @pytest.mark.parametrize("bad", _BAD_RATES, ids=repr)
    @pytest.mark.parametrize("bind", ["bind", "bind_sparse"])
    def test_scalar_binds_reject(self, compiled, bind, bad):
        with pytest.raises(SpecError) as info:
            getattr(compiled, bind)(_no_raid_env(bad))
        message = str(info.value)
        assert "'no_raid_ft1'" in message
        assert " -> " in message
        assert f"has rate {bad!r};" in message

    @pytest.mark.parametrize("bad", _BAD_RATES, ids=repr)
    def test_bind_batch_names_first_offending_point(self, compiled, bad):
        env = _no_raid_env(np.array([0.1, 0.2, bad, bad]))
        with pytest.raises(SpecError) as info:
            compiled.bind_batch(env)
        message = str(info.value)
        assert "'no_raid_ft1'" in message
        assert f"has rate {bad!r} at point 2;" in message

    def test_valid_rates_still_bind(self, compiled):
        env = _no_raid_env(0.1)
        value = compiled.bind(env).mean_time_to_absorption()
        assert math.isfinite(value) and value > 0
        assert compiled.bind_sparse(env).num_states == compiled.num_states
        (chain,) = compiled.bind_batch(_no_raid_env(np.array([0.1])))
        assert chain.mean_time_to_absorption() == value


def _eager(compiled, env):
    """The chain built the general way, from one transition per positive
    tree-evaluated rate: the oracle a spec-bound chain must match."""
    spec = compiled.spec
    transitions = []
    for src, dst, expr in spec.edges:
        rate = expr.evaluate(env)
        if rate > 0:
            transitions.append(Transition(src, dst, rate))
    return CTMC(spec.states, transitions, initial_state=spec.initial_state)


def _assert_same_chain(bound, eager):
    got, want = bound.generator_matrix(), eager.generator_matrix()
    assert got.tobytes() == want.tobytes()
    assert bound.diagnostics() == eager.diagnostics()
    assert bound.absorbing_states() == eager.absorbing_states()
    assert bound.transient_states() == eager.transient_states()
    assert bound.absorb() == eager.absorb()
    assert (
        bound.mean_time_to_absorption().hex()
        == eager.mean_time_to_absorption().hex()
    )


class TestCompiledStructure:
    """The partition, initial position and scatter indices fixed at
    compile time reproduce the eagerly assembled chain, bit for bit."""

    def _mid_start_spec(self):
        # Absorbing states first and in the middle; the initial state is
        # transient position 2, and two absorbing states exercise the row
        # sum of the (n_t, n_a) block.
        b = SpecBuilder()
        b.add_states("lost_a", "x", "y", "lost_b", "up")
        b.add_rate("up", "x", param("lam") * 3.0)
        b.add_rate("up", "lost_b", param("lam") * param("h"))
        b.add_rate("x", "up", param("mu"))
        b.add_rate("x", "y", param("lam") * 2.0)
        b.add_rate("x", "lost_a", param("lam") * param("h"))
        b.add_rate("y", "x", param("mu") * 2.0)
        b.add_rate("y", "lost_a", param("lam"))
        b.add_rate("y", "lost_b", param("lam") * 0.5)
        return b.build("mid_start", initial_state="up")

    def test_initial_state_past_transient_position_zero(self):
        compiled = self._mid_start_spec().compile()
        assert compiled.init_pos == 2
        assert compiled.signature == (
            ("lost_a", "x", "y", "lost_b", "up"),
            ("x", "y", "up"),
            ("lost_a", "lost_b"),
            "up",
        )
        env = {"lam": 1e-5, "mu": 0.25, "h": 0.03}
        bound = compiled.bind(env)
        assert bound._compiled is compiled
        spec = compiled.spec
        reference = CTMC(
            spec.states,
            [Transition(s, t, e.evaluate(env)) for s, t, e in spec.edges],
            initial_state="up",
        )
        assert (
            bound.mean_time_to_absorption().hex()
            == reference.mean_time_to_absorption().hex()
        )
        _assert_same_chain(bound, reference)

    def test_absorbing_initial_state_solves_to_zero(self):
        b = SpecBuilder()
        b.add_rate("x", "done", param("lam"))
        b.add_state("start")
        compiled = b.build("stuck", initial_state="start").compile()
        assert compiled.init_pos == -1
        assert compiled.bind({"lam": 1.0}).mean_time_to_absorption() == 0.0

    @pytest.mark.parametrize("name", _PRODUCTION_SPECS)
    def test_bound_chain_equals_eager_assembly(self, name):
        from repro.models.specs import all_family_specs

        compiled = all_family_specs()[name].compile()
        env = _family_env(compiled.spec, np.random.default_rng(11), h_max=1.0)
        bound = compiled.bind(env)
        assert bound._compiled is compiled
        _assert_same_chain(bound, _eager(compiled, env))
        (batched,) = compiled.bind_batch(
            {k: np.array([v]) for k, v in env.items()}
        )
        _assert_same_chain(batched, _eager(compiled, env))

    def test_zero_exit_point_takes_the_general_path(self):
        # mu = 0 leaves "down" with no positive exit: the compiled
        # partition does not hold, so the chain is assembled eagerly and
        # "down" counts as absorbing, exactly as in the generator.
        b = SpecBuilder()
        b.add_rate("up", "down", param("lam"))
        b.add_rate("down", "up", param("mu"))
        b.add_rate("up", "lost", param("lam") * 0.5)
        compiled = b.build("repairable").compile()
        env = {"lam": 0.25, "mu": 0.0}
        bound = compiled.bind(env)
        assert bound._compiled is None
        assert bound.absorbing_states() == ("down", "lost")
        _assert_same_chain(bound, _eager(compiled, env))
        batch = compiled.bind_batch({"lam": 0.25, "mu": np.array([0.0, 40.0])})
        assert [c._compiled is None for c in batch] == [True, False]
        for chain, mu in zip(batch, (0.0, 40.0)):
            _assert_same_chain(chain, _eager(compiled, {"lam": 0.25, "mu": mu}))
