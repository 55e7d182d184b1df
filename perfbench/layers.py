"""Outside-in layer tracing: wrap public functions of each program layer.

:func:`install` replaces public methods and module bindings with span
recording wrappers (:class:`~spans.SpanRecorder`) and returns a function
that restores the originals.  The program's source is untouched; the
traced run simply calls through the wrappers.

Span names follow the program's modules (span: wrapped callable):

* ``ml.extra_trees.fit`` / ``.predict``: ``ExtraTreesRegressor.fit`` /
  ``.predict``
* ``ml.gp.fit`` / ``.predict``: ``GaussianProcessRegressor.fit`` /
  ``.predict``
* ``core.tree_score``: ``PairwiseTreeScorer.score``
* ``core.gp_score``: ``GPScorer.score``
* ``core.acquisition.ei``: ``expected_improvement`` as bound in
  ``repro.core.naive_bo``
* ``core.search.run``: ``SequentialOptimizer.run``
* ``core.smbo.step``: ``SearchState.step``
* ``trace.measure``: ``TraceEnvironment.measure``
* ``faults.measure``: ``FaultInjector.measure``
* ``analysis.runner.journal``: ``GridCheckpoint.record``
* ``analysis.runner.flush``: ``json.dumps`` as bound in
  ``repro.analysis.runner`` (its only caller there encodes the
  consolidated cache)
* ``parallel.engine.run_cells``: ``run_cells``, one span per resumption
* ``core.search.construct``: the grid's optimiser factory, which the
  caller wraps when it builds the grid (:data:`CONSTRUCT_SPAN`)
"""

from __future__ import annotations

import types
from collections.abc import Callable, Sequence

import repro.analysis.runner as runner_module
import repro.core.naive_bo as naive_bo_module
import repro.parallel.engine as engine_module
from repro.core.augmented_bo import PairwiseTreeScorer
from repro.core.naive_bo import GPScorer
from repro.core.result import SearchResult
from repro.core.smbo import SearchState, SequentialOptimizer
from repro.faults.models import FaultInjector
from repro.ml.extra_trees import ExtraTreesRegressor
from repro.ml.gp import GaussianProcessRegressor
from repro.parallel.checkpoint import GridCheckpoint
from repro.trace.dataset import TraceEnvironment

from spans import SpanRecorder
from stats import percentile, samples_beyond

#: Per-call samples of search-phase steps, for round-time percentiles.
ROUND_SPAN = "core.smbo.round"

#: Span of the optimiser factory; the factory is a closure built per
#: grid, so the caller wraps it when it builds the grid.
CONSTRUCT_SPAN = "core.search.construct"


def _patch(owner: object, attribute: str, replacement: object, undo: list) -> None:
    """Set ``owner.attribute``, remembering how to restore it."""
    original = (
        owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    )
    undo.append((owner, attribute, original))
    setattr(owner, attribute, replacement)


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every traced layer; returns the function that unwraps them."""
    undo: list[tuple[object, str, object]] = []
    begin, end = recorder.begin, recorder.end
    counts = recorder.counts

    def spanned(owner, attribute, name):
        _patch(owner, attribute, recorder.wrap(getattr(owner, attribute), name), undo)

    et_fit = ExtraTreesRegressor.fit
    et_predict = ExtraTreesRegressor.predict

    def traced_et_fit(self, X, y):
        frame = begin("ml.extra_trees.fit")
        try:
            return et_fit(self, X, y)
        finally:
            end(frame)
            counts["ml.extra_trees.fit_rows"] += len(X)

    def traced_et_predict(self, X, return_std=False):
        frame = begin("ml.extra_trees.predict")
        try:
            return et_predict(self, X, return_std=return_std)
        finally:
            end(frame)
            counts["ml.extra_trees.predict_rows"] += len(X)

    _patch(ExtraTreesRegressor, "fit", traced_et_fit, undo)
    _patch(ExtraTreesRegressor, "predict", traced_et_predict, undo)

    gp_fit = GaussianProcessRegressor.fit

    def traced_gp_fit(self, *args, **kwargs):
        # The GP's own public counters say how much optimiser work the
        # fit did; read them around the call.
        lml_before, fits_before = self.n_lml_evals, self.n_fits
        frame = begin("ml.gp.fit")
        try:
            return gp_fit(self, *args, **kwargs)
        finally:
            end(frame)
            counts["ml.gp.lml_evals"] += self.n_lml_evals - lml_before
            counts["ml.gp.fit_calls"] += self.n_fits - fits_before

    _patch(GaussianProcessRegressor, "fit", traced_gp_fit, undo)
    spanned(GaussianProcessRegressor, "predict", "ml.gp.predict")
    spanned(PairwiseTreeScorer, "score", "core.tree_score")
    spanned(GPScorer, "score", "core.gp_score")
    spanned(naive_bo_module, "expected_improvement", "core.acquisition.ei")
    spanned(SequentialOptimizer, "run", "core.search.run")
    spanned(TraceEnvironment, "measure", "trace.measure")
    spanned(FaultInjector, "measure", "faults.measure")
    spanned(GridCheckpoint, "record", "analysis.runner.journal")

    step = SearchState.step

    def traced_step(self):
        # Only search-phase steps are acquisition rounds; an init-phase
        # step is a single trace lookup and would swamp the percentiles.
        in_search = self.phase == "search"
        frame = begin("core.smbo.step")
        try:
            return step(self)
        finally:
            duration = end(frame)
            if in_search:
                recorder.samples[ROUND_SPAN].append(duration)

    _patch(SearchState, "step", traced_step, undo)

    _patch(
        engine_module,
        "run_cells",
        recorder.wrap_generator(engine_module.run_cells, "parallel.engine.run_cells"),
        undo,
    )

    json_module = runner_module.json
    json_proxy = types.SimpleNamespace(
        **{name: getattr(json_module, name) for name in dir(json_module) if not name.startswith("_")}
    )
    json_proxy.dumps = recorder.wrap(json_module.dumps, "analysis.runner.flush")
    _patch(runner_module, "json", json_proxy, undo)

    def uninstall() -> None:
        while undo:
            owner, attribute, original = undo.pop()
            setattr(owner, attribute, original)

    return uninstall


def layer_metrics(
    recorder: SpanRecorder,
    results: Sequence[SearchResult],
) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer figures of one traced workload run, plus notes.

    Span figures come from ``recorder``; failure counts come from the
    finished search results, which record every charged attempt.  The
    round percentiles are per-layer context, not gated, so they are
    reported with their sample counts even when few rounds lie beyond.
    """
    s = recorder.seconds
    counts = recorder.counts
    rounds_ms = [ns / 1e6 for ns in recorder.samples[ROUND_SPAN]]
    failed = sum(result.failure_count for result in results)
    useful = sum(result.search_cost for result in results)
    revocations = fallbacks = 0
    for result in results:
        for event in result.events:
            if event.kind == "spot_revoked":
                revocations += 1
            elif event.kind == "fallback_to_ondemand":
                fallbacks += 1
    notes = {
        f"core.smbo.round_ms_p{q}": (
            f"n={len(rounds_ms)}, {samples_beyond(rounds_ms, q)} beyond"
        )
        for q in (50, 99)
    }
    return {
        "ml.extra_trees.fit_s": s("ml.extra_trees.fit"),
        "ml.extra_trees.fit_calls": recorder.calls["ml.extra_trees.fit"],
        "ml.extra_trees.fit_rows": counts["ml.extra_trees.fit_rows"],
        "ml.extra_trees.predict_s": s("ml.extra_trees.predict"),
        "ml.extra_trees.predict_rows": counts["ml.extra_trees.predict_rows"],
        "ml.gp.fit_s": s("ml.gp.fit"),
        "ml.gp.fit_calls": counts["ml.gp.fit_calls"],
        "ml.gp.lml_evals": counts["ml.gp.lml_evals"],
        "ml.gp.predict_s": s("ml.gp.predict"),
        "core.acquisition.ei_s": s("core.acquisition.ei"),
        "core.gp_score.self_s": s("core.gp_score", self_time=True),
        "core.tree_score.self_s": s("core.tree_score", self_time=True),
        "core.smbo.rounds": len(rounds_ms),
        "core.smbo.round_ms_p50": percentile(rounds_ms, 50),
        "core.smbo.round_ms_p99": percentile(rounds_ms, 99),
        "core.smbo.self_s": s("core.smbo.step", self_time=True)
        + s("core.search.run", self_time=True),
        "core.search.construct_s": s(CONSTRUCT_SPAN),
        "trace.measure_calls": recorder.calls["trace.measure"],
        "trace.measure_s": s("trace.measure"),
        "faults.failed_attempts": failed,
        "faults.ok_ratio": useful / (useful + failed),
        "faults.revocations": revocations,
        "faults.fallbacks": fallbacks,
        "faults.quarantined_vms": sum(len(r.quarantined_vms) for r in results),
        "analysis.runner.journal_s": s("analysis.runner.journal"),
        "analysis.runner.journal_records": recorder.calls["analysis.runner.journal"],
        "analysis.runner.flush_s": s("analysis.runner.flush"),
        "parallel.engine.dispatch_s": s("parallel.engine.run_cells", self_time=True),
    }, notes
