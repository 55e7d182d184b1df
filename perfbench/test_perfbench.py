"""Tests for the benchmark's own code (statistics, spans, layer wrapping).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from spans import SpanRecorder
from stats import (
    MIN_TAIL_SAMPLES,
    cost_to_optimum_mean,
    percentile,
    rescale,
    samples_beyond,
    solved_fraction,
    tail_percentile,
)


class FakeClock:
    """A nanosecond clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


# -- percentiles and the sample-count rule ------------------------------------


def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(7)
    samples = list(rng.lognormal(size=137))
    for q in (0, 10, 50, 90, 99, 100):
        assert percentile(samples, q) == pytest.approx(np.percentile(samples, q))


def test_tail_percentile_needs_ten_samples_beyond():
    hundred = [float(i) for i in range(1, 101)]
    assert samples_beyond(hundred, 90) == MIN_TAIL_SAMPLES
    assert tail_percentile(hundred, 90) == pytest.approx(np.percentile(hundred, 90))
    # 99 samples still leave ten strictly above the p90 cut; 89 do not.
    assert tail_percentile(hundred[:99], 90) is not None
    assert tail_percentile(hundred[:89], 90) is None
    assert tail_percentile(hundred, 99) is None
    thousand = [float(i) for i in range(1000)]
    assert samples_beyond(thousand, 99) == MIN_TAIL_SAMPLES
    assert tail_percentile(thousand, 99) is not None


def test_tail_percentile_counts_ties_at_the_cut_as_not_beyond():
    # Ninety identical samples and ten larger ones: the p90 cut sits in
    # the tie, and only the ten larger samples are beyond it.
    samples = [1.0] * 90 + [2.0] * 9
    assert tail_percentile(samples, 90) is None
    assert tail_percentile(samples + [2.0], 90) is not None


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)
    assert tail_percentile([], 90) is None


# -- rescaling to the nominal host speed ---------------------------------------


def test_rescale_divides_by_the_local_reference_median():
    # Host at half speed for the first three spans, nominal after.
    durations = [2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0]
    refs = [2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0]
    scaled = rescale(durations, refs, nominal=1.0, window=1)
    assert scaled == pytest.approx([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])


def test_rescale_ignores_a_single_outlying_reference():
    refs = [1.0, 1.0, 9.0, 1.0, 1.0]
    assert rescale([1.0] * 5, refs, nominal=1.0, window=2) == [1.0] * 5


def test_rescale_reads_nominal_host_seconds():
    assert rescale([3.0], [0.5], nominal=1.0) == [6.0]


def test_rescale_rejects_mismatched_or_empty_references():
    with pytest.raises(ValueError):
        rescale([1.0, 2.0], [1.0], nominal=1.0)
    with pytest.raises(ValueError):
        rescale([1.0], [0.0], nominal=1.0)


def test_reference_kernel_takes_positive_time():
    from reference import kernel_seconds

    assert kernel_seconds() > 0.0


# -- search-quality summaries -----------------------------------------------


def test_cost_to_optimum_mean_excludes_unsolved_searches():
    costs = [3, None, 5, None, 7]
    assert cost_to_optimum_mean(costs) == 5.0
    assert solved_fraction(costs) == pytest.approx(0.6)


def test_cost_to_optimum_mean_is_undefined_when_nothing_solved():
    assert cost_to_optimum_mean([None, None]) is None
    assert solved_fraction([None, None]) == 0.0
    with pytest.raises(ValueError):
        solved_fraction([])


# -- span recorder -------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    outer = recorder.begin("outer")
    clock.now = 2
    inner = recorder.begin("inner")
    clock.now = 5
    recorder.end(inner)
    clock.now = 6
    second = recorder.begin("inner")
    clock.now = 8
    recorder.end(second)
    clock.now = 10
    recorder.end(outer)
    assert recorder.total_ns["outer"] == 10
    assert recorder.self_ns["outer"] == 10 - 3 - 2
    assert recorder.total_ns["inner"] == recorder.self_ns["inner"] == 5
    assert recorder.calls["inner"] == 2
    assert recorder.depth == 0


def test_self_time_of_nested_same_layer_counts_once():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    a = recorder.begin("layer")
    clock.now = 1
    b = recorder.begin("layer")
    clock.now = 4
    recorder.end(b)
    clock.now = 5
    recorder.end(a)
    # Totals double-count the nested call; self time does not.
    assert recorder.total_ns["layer"] == 8
    assert recorder.self_ns["layer"] == 5


def test_spans_must_close_in_order():
    recorder = SpanRecorder(clock=FakeClock())
    outer = recorder.begin("outer")
    recorder.begin("inner")
    with pytest.raises(RuntimeError):
        recorder.end(outer)


def test_wrap_records_calls_that_raise():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def work(x):
        clock.now += 3
        if x < 0:
            raise ValueError("negative")
        return 2 * x

    traced = recorder.wrap(work, "work")
    assert traced(4) == 8
    with pytest.raises(ValueError):
        traced(-1)
    assert recorder.calls["work"] == 2
    assert recorder.total_ns["work"] == 6
    assert recorder.depth == 0


def test_wrap_generator_times_only_resumptions():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def produce():
        for item in range(3):
            clock.now += 2  # work inside the generator
            yield item

    consumed = []
    for item in recorder.wrap_generator(produce, "gen")():
        clock.now += 100  # consumer work, outside the span
        consumed.append(item)
    assert consumed == [0, 1, 2]
    assert recorder.total_ns["gen"] == 6
    assert recorder.calls["gen"] == 4  # three items plus the exhausting call


def test_wrap_generator_closes_inner_on_early_exit():
    recorder = SpanRecorder(clock=FakeClock())
    closed = []

    def produce():
        try:
            yield 1
            yield 2
        finally:
            closed.append(True)

    generator = recorder.wrap_generator(produce, "gen")()
    assert next(generator) == 1
    generator.close()
    assert closed == [True]
    assert recorder.depth == 0


# -- launcher ----------------------------------------------------------------


def test_fastest_cpu_is_one_of_the_allowed_cpus():
    import run

    allowed = sorted(os.sched_getaffinity(0))
    try:
        assert run.fastest_cpu(allowed) in allowed
    finally:
        os.sched_setaffinity(0, allowed)


def _block(costs, attempted=None, failed=0, digest="d", block=0):
    return {
        "block": block,
        "digest": digest,
        "errors": [],
        "attempted": len(costs) if attempted is None else attempted,
        "failed": failed,
        "searches": {"costs": costs, "ratios": [1.0] * len(costs), "charges": [2.0] * len(costs)},
    }


def test_quality_pools_the_searches_of_every_block():
    import run

    figures = run.quality([_block([2, None]), _block([4, 6, None], attempted=4, failed=1)])
    assert figures["cost_to_optimum_mean"] == 4.0  # unsolved searches excluded
    assert figures["solved_frac"] == pytest.approx(0.6)
    assert figures["ok_frac"] == pytest.approx(5 / 6)
    assert figures["charged_cost_mean"] == 2.0


def test_check_rounds_flags_a_block_that_differs_between_rounds():
    import run

    first = [_block([1], digest="a", block=0), _block([2], digest="b", block=1)]
    same = [_block([1], digest="a", block=0), _block([2], digest="b", block=1)]
    assert run.check_rounds([first, same]) == []
    drifted = [_block([1], digest="a", block=0), _block([3], digest="c", block=1)]
    errors = run.check_rounds([first, drifted])
    assert any("block 1" in error for error in errors)
    assert any("quality" in error for error in errors)


def test_blocks_and_seeds_never_share_a_search():
    from repro.analysis.runner import run_seed
    from workloads import WORKLOADS

    workload = WORKLOADS["spot-multicloud"]
    blocks = 4
    seen = set()
    for seed in range(3):
        for block in range(blocks):
            seed_for = workload.seed_fn(seed, block, blocks)
            for repeat in range(2):
                seen.add(seed_for("w", repeat))
    assert len(seen) == 3 * blocks * 2
    assert workload.seed_fn(0, 0, blocks)("w", 1) == run_seed("w", 1)
    with pytest.raises(ValueError):
        workload.seed_fn(0, blocks, blocks)


# -- layer wrapping against the real program ------------------------------------


def test_install_traces_a_search_and_uninstall_restores():
    import layers
    from repro.core.naive_bo import NaiveBO
    from repro.core.objectives import Objective
    from repro.core.smbo import SearchState
    from repro.ml.gp import GaussianProcessRegressor
    from repro.trace.generate import default_trace

    original_step = SearchState.step
    original_fit = GaussianProcessRegressor.fit
    recorder = SpanRecorder()
    uninstall = layers.install(recorder)
    try:
        environment = default_trace().environment("kmeans/Spark 2.1/small")
        result = NaiveBO(environment, objective=Objective.TIME, seed=3).run()
    finally:
        uninstall()
    assert SearchState.step is original_step
    assert GaussianProcessRegressor.fit is original_fit

    steps = recorder.calls["core.smbo.step"]
    rounds = recorder.samples[layers.ROUND_SPAN]
    # Init-phase steps (three initial observations, then the step that
    # enters the search phase) are not acquisition rounds; every round
    # but the last, which finds the catalog exhausted, scores candidates.
    assert result.stopped_by == "exhausted"
    assert steps - len(rounds) == 4
    assert recorder.calls["core.gp_score"] == len(rounds) - 1 == result.search_cost - 3
    assert recorder.calls["trace.measure"] == result.search_cost
    assert recorder.counts["ml.gp.fit_calls"] == recorder.calls["ml.gp.fit"]
    assert recorder.counts["ml.gp.lml_evals"] > 0
    for name in recorder.calls:
        assert recorder.self_ns[name] >= 0, name
    # The scorer's self time excludes its fit, predict and EI children.
    score_children = sum(
        recorder.total_ns[name]
        for name in ("ml.gp.fit", "ml.gp.predict", "core.acquisition.ei")
    )
    assert recorder.self_ns["core.gp_score"] == (
        recorder.total_ns["core.gp_score"] - score_children
    )
