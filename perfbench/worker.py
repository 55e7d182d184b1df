"""Run one block of a benchmark workload once, in this fresh interpreter.

Started by ``run.py`` (never imported by it), with the program's
``src`` on ``PYTHONPATH`` and BLAS pinned to one thread.  Times its own
set-up (imports plus the canonical trace), runs the block's grids
through ``ExperimentRunner.run`` with a fresh cache directory,
checks the results, and prints one JSON object on its last stdout line.

Untraced, it calls the reference kernel (``reference.py``) after set-up
and after every finished search, outside the timed spans, and reports
each time both as measured (``raw_*``) and rescaled to the nominal host
speed.  Traced, it skips the kernel, so the spans see only the program.

Usage (from the repository root)::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
    PYTHONPATH=src python3 perfbench/worker.py --workload paper-grid \
        --seed 0 --block 0 --blocks 4 --trace 0 --tmp .perfbench_tmp
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

def cache_digest(cache_dir: Path) -> str:
    """sha256 over every cache file's name and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(cache_dir.glob("*.json")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_and_score(workload, trace, runner, grid_results):
    """Per-search quality figures of a finished block, plus failed checks.

    ``grid_results`` pairs each grid with its result map (``None`` when
    the grid raised).  The launcher averages the figures over all blocks.
    """
    catalog = {vm.name for vm in trace.catalog}
    errors: list[str] = []
    costs, ratios, charges = [], [], []
    attempted = completed = failed_attempts = 0
    for grid, results in grid_results:
        cells = len(grid.workload_ids) * grid.repeats
        attempted += cells
        if results is None:
            continue
        for workload_id, runs in results.items():
            optimum = runner.optimal_value(workload_id, grid.objective)
            for repeat, result in enumerate(runs):
                where = f"{grid.key} {workload_id} #{repeat}"
                if result is None or not result.steps:
                    errors.append(f"{where}: no result")
                    continue
                completed += 1
                if result.best_vm_name not in catalog:
                    errors.append(f"{where}: best VM {result.best_vm_name!r} not in catalog")
                if result.best_value < optimum * (1.0 - 1e-9):
                    errors.append(
                        f"{where}: best value {result.best_value!r} beats the "
                        f"trace optimum {optimum!r}"
                    )
                if workload.budget is not None and result.charged_cost >= workload.budget + 1.0:
                    # An attempt starts only while the bill is under
                    # budget, and no single attempt bills more than one
                    # on-demand unit.
                    errors.append(
                        f"{where}: charged {result.charged_cost!r} with a "
                        f"budget of {workload.budget}"
                    )
                failed_attempts += result.failure_count
                costs.append(result.first_step_reaching(optimum))
                ratios.append(result.best_value / optimum)
                charges.append(float(result.charged_cost))
    if not workload.faulty:
        if completed != attempted:
            errors.append(f"{attempted - completed} of {attempted} searches failed on a fault-free workload")
        if failed_attempts:
            errors.append(f"{failed_attempts} failed attempts on a fault-free workload")
    searches = {"costs": costs, "ratios": ratios, "charges": charges}
    return searches, attempted, attempted - completed, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--block", type=int, default=0, help="which block of the seed's searches")
    parser.add_argument("--blocks", type=int, default=1, help="blocks per seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="directory for the cache")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: the package import users pay)
    import repro.parallel.engine  # noqa: F401  (the runner imports it lazily)
    from repro.analysis.runner import ExperimentRunner
    from stats import rescale
    from workloads import WORKLOADS

    t1 = time.perf_counter()
    workload = WORKLOADS[args.workload]
    trace = workload.trace()
    t2 = time.perf_counter()
    calibrate = not args.trace
    if calibrate:
        from reference import NOMINAL_S, kernel_seconds
    recorder = uninstall = wrap = None
    if args.trace:
        import layers
        from spans import SpanRecorder

        recorder = SpanRecorder()
        uninstall = layers.install(recorder)

        def wrap(factory):
            return recorder.wrap(factory, layers.CONSTRUCT_SPAN)

    grids = workload.run_grids(args.seed, args.block, wrap=wrap)
    seed_fn = workload.seed_fn(args.seed, args.block, args.blocks)
    cache_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.tmp))
    errors: list[str] = []
    try:
        runner = ExperimentRunner(trace, cache_dir=cache_dir)
        grid_results = []
        # Set-up is the first span; the runs cut into further spans at
        # every finished search.  The reference kernel runs between
        # spans, so no span includes it.
        durations: list[float] = [t2 - t0]
        refs: list[float] = [kernel_seconds()] if calibrate else []
        search_spans: list[int] = []
        for grid in grids:
            first = len(durations)
            mark = [time.perf_counter()]

            def close_span(mark=mark):
                durations.append(time.perf_counter() - mark[0])
                if calibrate:
                    refs.append(kernel_seconds())
                mark[0] = time.perf_counter()

            def on_event(event, close_span=close_span):
                if event.kind == "cell_finished":
                    close_span()

            try:
                results = runner.run(grid, on_event=on_event, seed_fn=seed_fn)
            except Exception as error:  # noqa: BLE001 - reported as failed searches
                traceback.print_exc()
                errors.append(f"{grid.key}: {type(error).__name__}: {error}")
                results = None
            close_span()  # the tail after the last completion
            # One latency per search after the first: the gap between
            # consecutive completions.  All cells are scheduled up front,
            # so scheduled-to-finished would measure queueing, not work.
            search_spans.extend(range(first + 1, len(durations) - 1))
            grid_results.append((grid, results))
        scaled = rescale(durations, refs, NOMINAL_S) if calibrate else durations
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        searches, attempted, failed, check_errors = check_and_score(
            workload, trace, runner, grid_results
        )
        errors.extend(check_errors)
        out = {
            "workload": args.workload,
            "seed": args.seed,
            "import_s": t1 - t0,
            "trace_s": t2 - t1,
            "raw_setup_s": durations[0],
            "setup_s": scaled[0],
            "raw_wall_s": sum(durations[1:]),
            "wall_s": sum(scaled[1:]),
            "search_deltas": [scaled[i] for i in search_spans],
            "speed": NOMINAL_S / statistics.median(refs) if calibrate else 1.0,
            "peak_rss_mb": peak_rss_mb,
            "block": args.block,
            "searches": searches,
            "attempted": attempted,
            "failed": failed,
            "digest": cache_digest(cache_dir),
            "errors": errors,
        }
        if recorder is not None:
            results = [
                result
                for _, per_grid in grid_results
                if per_grid is not None
                for runs in per_grid.values()
                for result in runs
            ]
            layer, out["notes"] = layers.layer_metrics(recorder, results)
            uninstall()
            # A warm re-read: every cell is now served from the cache.
            start = time.perf_counter()
            for grid in grids:
                runner.run(grid, seed_fn=seed_fn)
            layer["analysis.runner.load_s"] = time.perf_counter() - start
            layer["analysis.runner.cache_bytes"] = sum(
                path.stat().st_size for path in cache_dir.glob("*.json")
            )
            out["layers"] = layer
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
