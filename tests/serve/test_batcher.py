"""The coalescing batcher: grouping, identity, admission, drain."""

import asyncio
import time

import pytest

import repro
from repro.models.configurations import all_configurations
from repro.core.solvers import SolveOptions
from repro.serve.batcher import CoalescingBatcher, Overloaded
from repro.serve.solvecore import make_state, solve_handler

pytestmark = pytest.mark.serve

CONFIGS = all_configurations(3)


def _unique_points(base, n):
    """n unique (config, params) points cycling over all nine configs."""
    return [
        (
            CONFIGS[i % len(CONFIGS)],
            base.replace(drive_mttf_hours=1e5 * (1 + i * 1e-6)),
        )
        for i in range(n)
    ]


def test_concurrent_submits_coalesce_and_match_evaluate(baseline):
    """Concurrent points batch (mean batch size > 1) and every answer is
    bitwise identical to the direct repro.evaluate() path."""
    points = _unique_points(baseline, 60)

    async def drive():
        batcher = CoalescingBatcher(max_batch_size=64, max_wait_us=5000)
        batcher.start()
        try:
            futures = [
                batcher.submit(config, params, "analytic")
                for config, params in points
            ]
            return await asyncio.gather(*futures), batcher.metrics
        finally:
            await batcher.stop()

    answers, metrics = asyncio.run(drive())
    sizes = metrics.histogram("serve.batch.size")
    assert sizes.count >= 1
    assert sizes.mean > 1.0, "concurrent submits did not batch"
    for (config, params), mttdl in zip(points, answers):
        direct = repro.evaluate(config, params)
        assert mttdl == direct.mttdl_hours, config.key


def test_closed_form_points_batch_too(baseline):
    async def drive():
        batcher = CoalescingBatcher(max_batch_size=16, max_wait_us=5000)
        batcher.start()
        try:
            futures = [
                batcher.submit(config, baseline, "closed_form")
                for config in CONFIGS
            ]
            return await asyncio.gather(*futures)
        finally:
            await batcher.stop()

    answers = asyncio.run(drive())
    for config, mttdl in zip(CONFIGS, answers):
        direct = repro.evaluate(
            config, baseline, options=SolveOptions(backend="closed_form")
        )
        assert mttdl == direct.mttdl_hours, config.key


def test_mixed_methods_group_separately(baseline):
    async def drive():
        batcher = CoalescingBatcher(max_batch_size=32, max_wait_us=5000)
        batcher.start()
        try:
            futures = [
                batcher.submit(
                    config,
                    baseline,
                    "analytic" if i % 2 == 0 else "closed_form",
                )
                for i, config in enumerate(CONFIGS)
            ]
            return await asyncio.gather(*futures), batcher.metrics
        finally:
            await batcher.stop()

    answers, metrics = asyncio.run(drive())
    assert metrics.histogram("serve.batch.groups").count >= 1
    for i, (config, mttdl) in enumerate(zip(CONFIGS, answers)):
        method = "analytic" if i % 2 == 0 else "closed_form"
        backend = "auto" if method == "analytic" else "closed_form"
        direct = repro.evaluate(
            config, baseline, options=SolveOptions(backend=backend)
        )
        assert mttdl == direct.mttdl_hours, (config.key, method)


def test_backlogged_batch_closes_without_a_second_window(baseline):
    """``max_wait`` runs from the first point's arrival: a point that
    waited out the window behind a slow solve is dispatched as soon as
    that solve returns, not one more window later."""
    max_wait_s = 0.2

    class SlowFirstRuntime:
        """Inline solves; the first one holds the batcher for 0.5 s."""

        def __init__(self):
            self.dispatched = []
            self.returned = []
            self.state = make_state(False, 0)

        async def asubmit(self, payload, shard=None):
            self.dispatched.append(time.monotonic())
            if len(self.dispatched) == 1:
                await asyncio.sleep(0.5)
            self.returned.append(time.monotonic())
            return solve_handler(self.state, payload)

    runtime = SlowFirstRuntime()
    first, second = _unique_points(baseline, 2)

    async def drive():
        batcher = CoalescingBatcher(
            max_batch_size=8, max_wait_us=int(max_wait_s * 1e6), runtime=runtime
        )
        batcher.start()
        try:
            a = batcher.submit(*first, "analytic")
            # Arrive after the first batch closed, while it is solving.
            await asyncio.sleep(max_wait_s + 0.05)
            b = batcher.submit(*second, "analytic")
            return await asyncio.gather(a, b)
        finally:
            await batcher.stop()

    answers = asyncio.run(drive())
    assert len(runtime.dispatched) == 2
    assert runtime.dispatched[1] - runtime.returned[0] < max_wait_s / 2
    for (config, params), mttdl in zip((first, second), answers):
        assert mttdl == repro.evaluate(config, params).mttdl_hours


def test_submit_before_start_sheds(baseline):
    async def drive():
        batcher = CoalescingBatcher()
        with pytest.raises(Overloaded):
            batcher.submit(CONFIGS[0], baseline, "analytic")

    asyncio.run(drive())


def test_full_queue_sheds_with_retry_hint(baseline):
    """Admission is the queue bound: submit is synchronous, so filling
    the queue without yielding to the consumer sheds deterministically."""

    async def drive():
        batcher = CoalescingBatcher(
            queue_depth=4, retry_after_s=2.5, max_wait_us=0
        )
        batcher.start()
        try:
            admitted = [
                batcher.submit(CONFIGS[0], baseline, "analytic")
                for _ in range(4)
            ]
            with pytest.raises(Overloaded) as exc_info:
                batcher.submit(CONFIGS[0], baseline, "analytic")
            assert exc_info.value.retry_after_s == 2.5
            assert batcher.metrics.value("serve.queue.shed") == 1
            assert batcher.metrics.value("serve.queue.admitted") == 4
            await asyncio.gather(*admitted)
        finally:
            await batcher.stop()

    asyncio.run(drive())


def test_stop_drains_admitted_points(baseline):
    """Everything admitted before stop() is still answered."""
    points = _unique_points(baseline, 20)

    async def drive():
        batcher = CoalescingBatcher(max_batch_size=8, max_wait_us=0)
        batcher.start()
        futures = [
            batcher.submit(config, params, "analytic")
            for config, params in points
        ]
        await batcher.stop()
        # Draining: new work sheds...
        with pytest.raises(Overloaded):
            batcher.submit(CONFIGS[0], baseline, "analytic")
        # ...but every admitted future already resolved.
        assert all(f.done() for f in futures)
        return [f.result() for f in futures]

    answers = asyncio.run(drive())
    for (config, params), mttdl in zip(points, answers):
        direct = repro.evaluate(config, params)
        assert mttdl == direct.mttdl_hours


def test_group_failure_is_isolated(baseline, monkeypatch):
    """A solver error poisons only its own spec-hash group; the other
    groups in the same batch still answer."""
    import repro.serve.solvecore as solvecore_mod

    real = solvecore_mod.solve_grouped
    boom = RuntimeError("synthetic solver failure")

    def failing(compiled, envs, options=None):
        if len(envs) and compiled.spec.name.startswith("no_raid"):
            raise boom
        return real(compiled, envs, options)

    monkeypatch.setattr(solvecore_mod, "solve_grouped", failing)

    async def drive():
        batcher = CoalescingBatcher(max_batch_size=32, max_wait_us=5000)
        batcher.start()
        try:
            futures = [
                batcher.submit(config, baseline, "analytic")
                for config in CONFIGS
            ]
            return await asyncio.gather(*futures, return_exceptions=True)
        finally:
            await batcher.stop()

    outcomes = asyncio.run(drive())
    failed = [
        config.key
        for config, out in zip(CONFIGS, outcomes)
        if isinstance(out, BaseException)
    ]
    assert failed == [c.key for c in CONFIGS if "noraid" in c.key]
    for config, out in zip(CONFIGS, outcomes):
        if not isinstance(out, BaseException):
            direct = repro.evaluate(config, baseline)
            assert out == direct.mttdl_hours


def test_constructor_validation():
    with pytest.raises(ValueError):
        CoalescingBatcher(max_batch_size=0)
    with pytest.raises(ValueError):
        CoalescingBatcher(max_wait_us=-1)
    with pytest.raises(ValueError):
        CoalescingBatcher(queue_depth=0)
