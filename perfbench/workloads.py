"""The benchmark's workloads: which grids run, and on which trace.

Each workload is a list of :class:`~repro.analysis.runner.RunGrid` run
through ``ExperimentRunner.run`` with the default executor and a fresh
cache directory, exactly as a user reproducing a figure would.  A
benchmark seed's searches are split into ``B`` blocks, each run in its
own interpreter.  The seed enters only through ``seed_fn``: block ``b``
of seed ``s`` runs repeats ``(s*B + b)*R .. (s*B + b)*R + R-1`` of the
runner's own per-(workload, repeat) seeding, where ``R`` is the
workload's largest repeat count, so block 0 of seed 0 is the runner's
default seeding and no two blocks or seeds share a search.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.analysis import experiments
from repro.analysis.runner import OptimizerFactory, RunGrid, run_seed
from repro.cloud.spot import SpotMarket, SpotPolicy
from repro.core.augmented_bo import AugmentedBO
from repro.core.naive_bo import NaiveBO
from repro.core.objectives import Objective
from repro.faults import (
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    SpotInterruptions,
    parse_fault_plan,
)
from repro.trace.dataset import BenchmarkTrace
from repro.trace.generate import canonical_trace

#: A fixed, region-spanning subset of the 107 ``aws-2017`` workloads:
#: six whose Naive-BO median search cost lies in Region I and six in
#: Region II, across Hadoop 2.7, Spark 2.1 and Spark 1.5.
PAPER_GRID_WORKLOADS: tuple[str, ...] = (
    "pagerank/Hadoop 2.7/small",
    "terasort/Hadoop 2.7/large",
    "kmeans/Spark 2.1/medium",
    "als/Spark 2.1/medium",
    "classification/Spark 1.5/large",
    "svd/Spark 1.5/medium",
    "sort/Hadoop 2.7/large",
    "scan/Hadoop 2.7/small",
    "aggregation/Hadoop 2.7/large",
    "chi-mat/Spark 2.1/medium",
    "d-tree/Spark 2.1/large",
    "regression/Spark 1.5/medium",
)

#: Fault plan of the spot workload (the market rule is appended).
SPOT_FAULT_PLAN = "transient:rate=0.1+straggler:rate=0.05,slowdown=3"

#: Charged-cost budget per spot search, in on-demand attempt units.
SPOT_BUDGET = 6

#: Seed of the spot market: part of the simulated cloud, not of the
#: benchmark input, so every benchmark seed prices the same market.
SPOT_MARKET_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload.

    Attributes:
        name: the ``--workload`` name (its reason for being is recorded
            in ``BENCHMARK.json``).
        catalog: the VM catalog of its trace.
        grids: ``(key, factory, objective, repeats)`` per grid, run in
            order; ``repeats`` counts searches per program workload.
        workload_ids: the program workloads every grid runs on.
        budget: per-search charged-cost budget, when one is set.
        faulty: whether measurements fail on purpose.
    """

    name: str
    catalog: str
    grids: tuple[tuple[str, OptimizerFactory, Objective, int], ...]
    workload_ids: tuple[str, ...]
    budget: float | None = None
    faulty: bool = False

    def trace(self) -> BenchmarkTrace:
        """The canonical trace this workload replays."""
        return canonical_trace(self.catalog)

    def seed_fn(self, seed: int, block: int = 0, blocks: int = 1) -> Callable[[str, int], int]:
        """The runner seed function for block ``block`` of benchmark seed ``seed``."""
        if not 0 <= block < blocks:
            raise ValueError(f"block {block} is not one of {blocks} blocks")
        offset = (seed * blocks + block) * max(repeats for *_, repeats in self.grids)

        def seed_for(workload_id: str, repeat: int) -> int:
            return run_seed(workload_id, offset + repeat)

        return seed_for

    def run_grids(
        self,
        seed: int,
        block: int = 0,
        wrap: Callable[[OptimizerFactory], OptimizerFactory] | None = None,
    ) -> list[RunGrid]:
        """The grids for block ``block`` of benchmark seed ``seed`` (keys name both)."""
        return [
            RunGrid(
                key=f"{key}@seed={seed}.{block}",
                factory=factory if wrap is None else wrap(factory),
                objective=objective,
                workload_ids=self.workload_ids,
                repeats=repeats,
            )
            for key, factory, objective, repeats in self.grids
        ]


def spot_factory(cls: type) -> OptimizerFactory:
    """``cls`` built as ``arrow search --pricing spot`` builds it.

    The fault plan is seeded per search from the cell seed, so each
    search meets its own fault sequence.
    """

    def build(environment, objective, seed):
        market = SpotMarket(seed=SPOT_MARKET_SEED)
        rules = (*parse_fault_plan(SPOT_FAULT_PLAN).rules, SpotInterruptions(market=market))
        return cls(
            FaultInjector(environment, FaultPlan(rules, seed=seed)),
            objective=objective,
            seed=seed,
            retry_policy=RetryPolicy(max_attempts=3),
            max_measurements=SPOT_BUDGET,
            spot=SpotPolicy(market=market, fallback_after=2),
        )

    return build


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper-grid",
            catalog="aws-2017",
            grids=(
                ("naive-bo", experiments.naive_factory(), Objective.TIME, 1),
                ("augmented-bo", experiments.augmented_factory(), Objective.TIME, 1),
                ("hybrid-bo", experiments.hybrid_factory(), Objective.TIME, 1),
            ),
            workload_ids=PAPER_GRID_WORKLOADS,
        ),
        Workload(
            name="stopping-cost",
            catalog="aws-2017",
            grids=(
                (
                    "naive-bo[stop-ei=0.1]",
                    experiments.naive_stopping_factory(0.1),
                    Objective.COST,
                    1,
                ),
                (
                    "augmented-bo[stop-delta=1.1]",
                    experiments.augmented_stopping_factory(1.1),
                    Objective.COST,
                    1,
                ),
            ),
            workload_ids=experiments.all_workload_ids(),
        ),
        Workload(
            name="spot-multicloud",
            catalog="multicloud",
            grids=(
                # Twice as many cheap GP searches as tree searches: the
                # search-latency median then falls inside the GP cluster
                # instead of on the edge between the two, and the quality
                # figures average over more searches per second spent.
                ("augmented-bo[spot]", spot_factory(AugmentedBO), Objective.TIME, 1),
                ("naive-bo[spot]", spot_factory(NaiveBO), Objective.TIME, 2),
            ),
            workload_ids=experiments.all_workload_ids()[::4],
            budget=SPOT_BUDGET,
            faulty=True,
        ),
    )
}
