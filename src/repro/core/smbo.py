"""Sequential model-based optimisation — Algorithm 1 of the paper.

The loop is shared by every optimiser in this package:

1. measure an initial quasi-random sample of distinct VMs,
2. fit a surrogate on everything measured so far and score the
   unmeasured VMs with an acquisition function (subclass hook),
3. stop if the stopping criterion fires, otherwise measure the
   highest-scoring VM and repeat.

The instance space is finite (the environment's catalog — the paper's
18 VMs by default, hundreds for the generated large catalogs), so
optimisers never re-measure a
VM and a search that measures every reachable VM ends with
``"exhausted"``.  Search cost is the number of charged measurements,
initial samples and *failed attempts* included — the cloud bills a run
that a spot reclamation killed — which is the paper's accounting
extended honestly to faulty clouds.

Fault tolerance: measurements may raise (spot interruptions,
provisioning errors) or return corrupted values (NaN / non-positive
time).  Each observation is retried under a
:class:`~repro.faults.retry.RetryPolicy` (exponential backoff, seeded
jitter), and a per-VM :class:`~repro.faults.retry.CircuitBreaker`
quarantines a VM after repeated failures so the search continues over
the remaining catalog instead of aborting.  :class:`MeasurementError`
is raised only when *nothing* could be measured at all.

Batched suggestions (``batch_size=q > 1``): each round the optimiser
asks its :meth:`SequentialOptimizer._suggest_batch` hook for ``q``
distinct candidates (constant-liar q-EI on GP scorers, top-q prediction
delta by default), measures them — concurrently, when a measurement
fan-out is injected — and commits the outcomes in catalog-index order.
Every batch measurement draws its randomness from the spawn key
``(search stream seed, 2, iteration, catalog index)``, so results and
fault-injection streams are independent of completion order and worker
count.  ``batch_size=1`` takes the literally unchanged sequential path
and is bit-identical to it.

Both paths share one retry ladder and one commit step.
:meth:`SequentialOptimizer._ladder` runs one VM's attempts (retry,
spot revocation, resume credit, on-demand fallback) and returns a
picklable :class:`LadderOutcome`; :meth:`SequentialOptimizer.
_commit_attempt` folds one of its attempts into search state.  The only
difference between the paths is the ladder's stop predicate.  The
serial loop passes one that commits each attempt as it lands and ends
the ladder as soon as that commit quarantined the VM or exhausted the
budget.  A batch task cannot see the breaker or the budget, so it runs
the ladder with no predicate and the round commits every attempt
afterwards.  Hence batching's two bounded edges: the charge budget is
reserved per pick *before* a batch launches, so in-batch retries can
overshoot ``max_measurements`` by at most ``q * (max_attempts - 1)``
charges; and a VM that the commit quarantines has already run (and
been billed for) its full retry schedule.
"""

from __future__ import annotations

import abc
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.cloud.encoding import InstanceEncoder
from repro.cloud.spot import SpotPolicy
from repro.core.acquisition import LIAR_STRATEGIES, top_q_indices
from repro.core.events import SearchEvent
from repro.core.objectives import Objective
from repro.core.result import FailureEvent, SearchResult, SearchStep
# The stopping module's ``SearchState`` is the per-round snapshot handed
# to stopping rules; this module's :class:`SearchState` (below) is the
# resumable ask/tell machine.  Alias the snapshot to keep both importable.
from repro.core.stopping import SearchState as StoppingSnapshot
from repro.core.stopping import StoppingCriterion
from repro.faults.models import (
    CorruptedMeasurementError,
    PartialMeasurement,
    SpotInterruptionError,
)
from repro.faults.retry import CircuitBreaker, RetryPolicy
from repro.ml.sampling import quasi_random_distinct
from repro.simulator.cluster import Measurement, MeasurementEnvironment

#: CherryPick's initial-design size, used by default throughout the paper.
DEFAULT_N_INITIAL = 3

#: Stream tag for per-batch-measurement randomness (tag 1 is the serial
#: retry-jitter stream; using a distinct tag means batch mode consumes
#: nothing from any pre-existing stream).
BATCH_STREAM_TAG = 2


class MeasurementError(RuntimeError):
    """No measurement could be obtained at all (every VM failed)."""


@dataclass(frozen=True, slots=True)
class AcquisitionScores:
    """A subclass's verdict on the unmeasured candidates.

    Attributes:
        scores: one score per unmeasured candidate; the highest is
            measured next.
        predicted: surrogate point predictions for the same candidates
            (``None`` when the optimiser has no surrogate).
        expected_improvements: EI values for the same candidates
            (``None`` when the acquisition is not EI-based).
    """

    scores: np.ndarray
    predicted: np.ndarray | None = None
    expected_improvements: np.ndarray | None = None


@dataclass(frozen=True, slots=True)
class LadderAttempt:
    """One charged attempt of a VM's measurement ladder.

    Attributes:
        number: 1-based attempt number.
        charge: what the attempt billed, in on-demand attempt units
            (``1.0`` outside spot pricing).
        wait_s: retry backoff drawn before the attempt (``0.0`` for the
            first).
        error: ``"ErrorType: message"`` when the attempt failed,
            ``None`` when it succeeded.
        revocation: the ladder's running revocation count when this
            attempt was a market spot revocation, else ``0``.
        revoked_at: fraction of the remaining work reached when revoked.
        fallback: this revocation tripped the fall-back to on-demand.
        checkpoint: the resume checkpoint this revocation banked.
        measurement: the measurement (successful attempts only).
        value: its validated objective value (successful attempts only).
    """

    number: int
    charge: float
    wait_s: float = 0.0
    error: str | None = None
    revocation: int = 0
    revoked_at: float = 0.0
    fallback: bool = False
    checkpoint: PartialMeasurement | None = None
    measurement: Measurement | None = None
    value: float | None = None


@dataclass(frozen=True, slots=True)
class LadderOutcome:
    """What one VM's measurement ladder did, attempt by attempt.

    Produced by :meth:`SequentialOptimizer._ladder` — in a pool worker,
    for batch tasks — and folded into search state one attempt at a time
    by :meth:`SequentialOptimizer._commit_attempt`.

    Attributes:
        index: catalog index of the measured VM.
        attempts: the charged attempts in order; only the last one can
            have succeeded.
        wait_s: the attempts' retry backoff, summed in attempt order.
    """

    index: int
    attempts: tuple[LadderAttempt, ...]
    wait_s: float

    @property
    def succeeded(self) -> bool:
        """Whether the ladder ended in a successful measurement."""
        return self.attempts[-1].error is None


#: One batch-measurement work item: ``(iteration, catalog index)``.
BatchCell = tuple[int, int]

#: A within-search measurement fan-out: runs every cell through
#: ``run_task`` (in any order, on any backend) and returns all outcomes.
#: Injected — rather than imported — so the core loop stays free of the
#: execution plane; :class:`repro.parallel.batch.MeasurementFanout`
#: implements it over the pluggable cell executors.
BatchFanout = Callable[
    [list[BatchCell], Callable[[BatchCell], LadderOutcome]],
    list[LadderOutcome],
]


def _inline_fanout(
    cells: list[BatchCell], run_task: Callable[[BatchCell], LadderOutcome]
) -> list[LadderOutcome]:
    """The default fan-out: run the batch's tasks inline, in pick order."""
    return [run_task(cell) for cell in cells]


class SequentialOptimizer(abc.ABC):
    """Base class implementing the SMBO loop over a finite VM catalog.

    Args:
        environment: where measurements come from (simulator or trace).
        objective: what to minimise.
        n_initial: size of the quasi-random initial design.
        stopping: optional early-stopping criterion.
        max_measurements: optional hard budget on *charged attempts*
            (failed ones included).
        seed: seed for the initial design, retry jitter, and any
            surrogate randomness.
        initial_design: explicit catalog indices to measure first instead
            of the quasi-random design (the Section III-C sensitivity
            experiments fix these).
        measure_retries: legacy retry counter; shorthand for
            ``retry_policy=RetryPolicy(max_attempts=measure_retries + 1)``.
        retry_policy: full retry behaviour (attempts, backoff, jitter);
            overrides ``measure_retries`` when given.  Each attempt is
            charged like any other measurement (the cloud billed it).
        quarantine_after: consecutive failures after which a VM is
            quarantined for the rest of the search.
        batch_size: suggestions measured per acquisition round.  ``1``
            (the default) is the classic sequential loop, bit for bit;
            ``q > 1`` suggests q distinct VMs per surrogate fit via
            :meth:`_suggest_batch` and commits their measurements in
            catalog-index order.
        liar: constant-liar strategy (``"min"``/``"mean"``/``"max"``)
            for GP-based batch suggestion; ignored by scorers that
            batch via top-q prediction delta.
        measurement_fanout: optional callable running one batch's
            measurement tasks (see :data:`BatchFanout`); ``None`` runs
            them inline.  Results are identical for any fan-out because
            each task reseeds from its spawn key.
        spot: optional :class:`~repro.cloud.spot.SpotPolicy` switching
            the search to spot pricing.  Measurements then run on spot
            capacity first (the environment's ``set_pricing`` hook is
            told which tier each attempt buys); a market revocation
            bills only the completed fraction at the spot price, banks
            it as a :class:`~repro.faults.models.PartialMeasurement`
            checkpoint that retries resume from, and after
            ``fallback_after`` revocations the observation falls back
            to on-demand at full price.  ``None`` (the default) is the
            historic on-demand loop, bit for bit.
    """

    #: Display name; subclasses override.
    name = "smbo"

    def __init__(
        self,
        environment: MeasurementEnvironment,
        objective: Objective = Objective.TIME,
        n_initial: int = DEFAULT_N_INITIAL,
        stopping: StoppingCriterion | None = None,
        max_measurements: int | None = None,
        seed: int | None = None,
        initial_design: list[int] | None = None,
        measure_retries: int = 0,
        retry_policy: RetryPolicy | None = None,
        quarantine_after: int = 3,
        batch_size: int = 1,
        liar: str = "min",
        measurement_fanout: BatchFanout | None = None,
        spot: SpotPolicy | None = None,
    ) -> None:
        if n_initial < 1:
            raise ValueError(f"n_initial must be at least 1, got {n_initial}")
        if max_measurements is not None and max_measurements < n_initial:
            raise ValueError("max_measurements must be at least n_initial")
        if measure_retries < 0:
            raise ValueError(f"measure_retries must be >= 0, got {measure_retries}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if liar not in LIAR_STRATEGIES:
            raise ValueError(
                f"unknown liar strategy {liar!r}; known: {LIAR_STRATEGIES}"
            )
        self.measure_retries = measure_retries
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy.from_retries(measure_retries)
        )
        self.quarantine_after = quarantine_after  # CircuitBreaker validates
        self.initial_design = list(initial_design) if initial_design is not None else None
        self._env = environment
        self.objective = objective
        self.n_initial = n_initial
        self.stopping = stopping
        self.max_measurements = max_measurements
        self.batch_size = batch_size
        self.liar = liar
        self._fanout = measurement_fanout
        self._spot = spot
        self._checkpoints: dict[str, PartialMeasurement] = {}
        self._charge_total = 0.0
        self._rng = np.random.default_rng(seed)
        # The initial design gets its own stream, split off before any
        # subclass draws: optimisers with the same seed then share the
        # same initial design regardless of how many surrogate seeds they
        # consume (Hybrid BO's early phase must match Naive BO's exactly).
        # The retry-jitter stream derives from the same draw (not a second
        # one) so adding it did not shift any pre-existing seeded stream.
        stream_seed = int(self._rng.integers(2**31))
        self._init_rng = np.random.default_rng(stream_seed)
        self._stream_seed = stream_seed
        self._encoder = InstanceEncoder(tuple(environment.catalog))
        self._design = self._encoder.encode_all()
        self._reset_observations()
        self._failure_events: list[FailureEvent] = []
        self._events: list[SearchEvent] = []
        self._failed_charges = 0
        self._retry_wait_s = 0.0
        self._breaker = self._new_breaker()
        self._retry_rng = np.random.default_rng([self._stream_seed, 1])

    def _new_breaker(self) -> CircuitBreaker:
        """A fresh circuit breaker matching this optimiser's policy.

        Spot-priced searches get the breaker's price-aware mode: a VM
        that keeps getting reclaimed is quarantined for churn even when
        its runs eventually succeed.
        """
        revocation_threshold = (
            self._spot.revocation_quarantine if self._spot is not None else None
        )
        return CircuitBreaker(
            self.quarantine_after, revocation_threshold=revocation_threshold
        )

    # -- state exposed to subclasses ----------------------------------------

    def _reset_observations(self) -> None:
        """(Re)initialise the incrementally-grown observation buffers.

        A search never re-measures a VM, so successful observations are
        bounded by the catalog size and the value buffer is allocated
        once; every property below is then a view or a live reference
        instead of a per-access rebuild (the old properties reconstructed
        lists/arrays from a tuple log on every hot-loop access).
        """
        self._obs_count = 0
        self._obs_indices: list[int] = []
        self._obs_measurements: list[Measurement] = []
        self._obs_attempts: list[int] = []
        self._obs_charges: list[float] = []
        self._value_buf = np.empty(max(len(self._env.catalog), 1), dtype=float)
        self._measured_set: set[int] = set()
        self._best = np.inf

    @property
    def design_matrix(self) -> np.ndarray:
        """The full encoded instance space, one row per catalog VM."""
        return self._design

    @property
    def measured_indices(self) -> list[int]:
        """Catalog indices measured so far, in measurement order.

        The returned list is live internal state — treat it as
        read-only.
        """
        return self._obs_indices

    @property
    def measured_values(self) -> np.ndarray:
        """Objective values measured so far, aligned with indices.

        A read-only view of the incrementally-grown value buffer.
        """
        view = self._value_buf[: self._obs_count]
        view.flags.writeable = False
        return view

    @property
    def measured_measurements(self) -> list[Measurement]:
        """Full measurements so far (low-level metrics included).

        The returned list is live internal state — treat it as
        read-only.
        """
        return self._obs_measurements

    @property
    def quarantined_vm_names(self) -> frozenset[str]:
        """VM types quarantined by the circuit breaker so far."""
        return self._breaker.quarantined

    @property
    def best_observed(self) -> float:
        """Incumbent objective value.

        Raises:
            RuntimeError: before any measurement.
        """
        if not self._obs_count:
            raise RuntimeError("no measurements yet")
        return float(self._best)

    def _record_observation(
        self,
        index: int,
        measurement: Measurement,
        value: float,
        attempt: int,
        charge: float = 1.0,
    ) -> None:
        """Append one successful observation to the grown buffers."""
        if self._obs_count == len(self._value_buf):  # pragma: no cover - guard
            self._value_buf = np.concatenate([self._value_buf, self._value_buf])
        self._value_buf[self._obs_count] = value
        self._obs_count += 1
        self._obs_indices.append(index)
        self._obs_measurements.append(measurement)
        self._obs_attempts.append(attempt)
        self._obs_charges.append(charge)
        self._charge_total += charge
        self._measured_set.add(index)
        if value < self._best:
            self._best = value

    # -- subclass hooks ------------------------------------------------------

    @abc.abstractmethod
    def _score_candidates(self, unmeasured: list[int]) -> AcquisitionScores:
        """Fit the surrogate and score the ``unmeasured`` catalog indices."""

    def _suggest_batch(
        self, unmeasured: list[int], q: int
    ) -> tuple[AcquisitionScores, list[int]]:
        """Pick up to ``q`` distinct candidates to measure this round.

        Returns the first-round acquisition (consumed by the stopping
        rule, exactly like the sequential loop's single fit) and the
        picked catalog indices in pick order.  The default is top-q on
        one score vector — for prediction-delta scorers this *is* top-q
        prediction delta: one batched ensemble predict, q distinct
        argmins.  GP scorers override it with constant-liar q-EI.
        """
        acquisition = self._score_candidates(unmeasured)
        picked = [unmeasured[i] for i in top_q_indices(acquisition.scores, q)]
        return acquisition, picked

    def _initial_indices(self) -> list[int]:
        """Catalog indices of the initial design (quasi-random distinct)."""
        if self.initial_design is not None:
            return list(self.initial_design)
        n = min(self.n_initial, len(self._env.catalog))
        return quasi_random_distinct(self._design, n, self._init_rng)

    # -- the loop ------------------------------------------------------------

    def _charged(self) -> int | float:
        """Everything billed so far, in on-demand attempt units.

        On-demand searches keep the historic integer semantics (one
        unit per attempt, failed or not).  Spot-priced searches sum the
        actual fractional charges — discounted runs, partial revocation
        charges — so the budget buys more attempts when they are cheap.
        """
        if self._spot is None:
            return self._obs_count + self._failed_charges
        return self._charge_total

    def _set_env_pricing(self, vm_name: str, pricing: str) -> None:
        """Tell the environment which pricing tier the next run buys."""
        setter = getattr(self._env, "set_pricing", None)
        if setter is not None:
            setter(vm_name, pricing)

    def _price_ratio(self, vm_name: str, pricing: str) -> float:
        """Spot/on-demand price ratio billed for a run of ``vm_name``."""
        if self._spot is not None and pricing == "spot":
            return 1.0 - self._spot.market.discount(vm_name)
        return 1.0

    def _budget_exhausted(self) -> bool:
        return (
            self.max_measurements is not None
            and self._charged() >= self.max_measurements
        )

    def _ladder(
        self,
        index: int,
        retry_rng: np.random.Generator,
        stop: Callable[[LadderAttempt], bool] | None = None,
    ) -> LadderOutcome:
        """Measure one VM under the retry policy; the one retry ladder.

        Every attempt — failed or not — is charged.  Spot-priced searches
        (``spot`` policy set) run attempts at the spot price until
        ``fallback_after`` market revocations, then fall back to
        on-demand at full price.  A revocation bills only the reached
        fraction of the remaining work (at the spot price) and banks
        resume credit as a :class:`~repro.faults.models.PartialMeasurement`
        checkpoint, so the eventual success is billed for the uncovered
        remainder only.

        The ladder changes no search state: it starts from the VM's
        committed checkpoint and evolves its own copy.  ``stop``, when
        given, sees each attempt as it lands; returning True ends the
        ladder there, before any fall-back that attempt tripped.
        """
        vm = self._env.catalog[index]
        policy = self.retry_policy
        spot = self._spot
        pricing = "on-demand" if spot is None else "spot"
        checkpoint = self._checkpoints.get(vm.name) if spot is not None else None
        attempts: list[LadderAttempt] = []
        revocations = 0
        wait_s = 0.0
        if spot is not None:
            self._set_env_pricing(vm.name, "spot")
        for number in range(1, policy.max_attempts + 1):
            wait = policy.wait(number - 1, retry_rng) if number > 1 else 0.0
            wait_s += wait
            try:
                measurement = self._env.measure(vm)
                value = self.objective.value_of(measurement)
                if not np.isfinite(value) or value <= 0.0:
                    raise CorruptedMeasurementError(
                        f"{vm.name} returned unusable {self.objective.value} "
                        f"value {value!r}"
                    )
            except Exception as error:  # noqa: BLE001 - cloud errors are diverse
                charge = 1.0
                revoked = (
                    spot is not None
                    and pricing == "spot"
                    and isinstance(error, SpotInterruptionError)
                    and error.fraction is not None
                )
                banked = None
                if spot is not None:
                    done = checkpoint.fraction if checkpoint is not None else 0.0
                    ratio = self._price_ratio(vm.name, pricing)
                    if revoked:
                        # Revoked at fraction g of the *remaining* work:
                        # bill g * (1 - done) at the spot price and bank
                        # resume credit toward the next attempt.
                        revocations += 1
                        progressed = float(error.fraction) * (1.0 - done)
                        charge = ratio * progressed
                        prior = checkpoint.charge if checkpoint is not None else 0.0
                        banked = checkpoint = PartialMeasurement(
                            vm_name=vm.name,
                            fraction=done + spot.resume_credit * progressed,
                            charge=prior + charge,
                        )
                    else:
                        charge = ratio * (1.0 - done)
                attempt = LadderAttempt(
                    number=number,
                    charge=charge,
                    wait_s=wait,
                    error=f"{type(error).__name__}: {error}",
                    revocation=revocations if revoked else 0,
                    revoked_at=float(error.fraction) if revoked else 0.0,
                    fallback=revoked and revocations >= spot.fallback_after,
                    checkpoint=banked,
                )
                attempts.append(attempt)
                if stop is not None and stop(attempt):
                    break
                if attempt.fallback:
                    pricing = "on-demand"
                    self._set_env_pricing(vm.name, "on-demand")
                continue
            charge = 1.0
            if spot is not None:
                done = checkpoint.fraction if checkpoint is not None else 0.0
                charge = self._price_ratio(vm.name, pricing) * (1.0 - done)
            attempt = LadderAttempt(
                number=number,
                charge=charge,
                wait_s=wait,
                measurement=measurement,
                value=value,
            )
            attempts.append(attempt)
            if stop is not None:
                stop(attempt)
            break
        return LadderOutcome(index=index, attempts=tuple(attempts), wait_s=wait_s)

    def _commit_attempt(self, step: int, index: int, attempt: LadderAttempt) -> bool:
        """Fold one ladder attempt into search state.

        Appends the attempt's events, charges it, and updates the
        circuit breaker and the VM's checkpoint; a failure also records
        its :class:`~repro.core.result.FailureEvent`, a success the
        observation.  Returns True when this attempt quarantined the VM
        or exhausted the budget: the serial loop's stop predicate.
        """
        vm_name = self._env.catalog[index].name

        def event(kind: str, detail: str) -> None:
            self._events.append(
                SearchEvent(kind=kind, step=step, vm_name=vm_name, detail=detail)
            )

        event("measurement_started", f"attempt {attempt.number}")
        if attempt.error is None:
            self._breaker.record_success(vm_name)
            self._checkpoints.pop(vm_name, None)
            self._record_observation(
                index,
                attempt.measurement,
                attempt.value,
                attempt.number,
                attempt.charge,
            )
            event("measurement_finished", f"{self.objective.value}={attempt.value!r}")
            return False
        self._failed_charges += 1
        self._charge_total += attempt.charge
        if attempt.checkpoint is not None:
            self._checkpoints[vm_name] = attempt.checkpoint
        self._failure_events.append(
            FailureEvent(
                step=step,
                vm_name=vm_name,
                attempt=attempt.number,
                error=attempt.error,
                charge=attempt.charge,
            )
        )
        event("measurement_failed", attempt.error)
        already_quarantined = self._breaker.is_quarantined(vm_name)
        if attempt.revocation:
            event(
                "spot_revoked",
                f"revocation {attempt.revocation} at {attempt.revoked_at:.0%} of "
                f"the remaining work, charged {attempt.charge:.6f}",
            )
            quarantined = self._breaker.record_revocation(vm_name)
            churn = self._breaker.revocation_count(vm_name)
            reason = f"spot churn: {churn} revocations"
        else:
            quarantined = self._breaker.record_failure(vm_name)
            reason = f"after {attempt.number} failed attempts this round"
        if quarantined and not already_quarantined:
            event("vm_quarantined", reason)
            return True
        return self._budget_exhausted()

    def _commit_fallback(self, step: int, index: int, attempt: LadderAttempt) -> None:
        """Record the fall-back to on-demand that ``attempt`` tripped."""
        if attempt.fallback:
            self._events.append(
                SearchEvent(
                    kind="fallback_to_ondemand",
                    step=step,
                    vm_name=self._env.catalog[index].name,
                    detail=f"after {attempt.revocation} revocations; retrying at "
                    "full on-demand price",
                )
            )

    def _observe(self, index: int) -> LadderOutcome:
        """Measure one VM serially, committing each attempt as it lands.

        The ladder draws retry jitter from the serial stream and stops
        as soon as a committed attempt quarantined the VM or exhausted
        the budget; a fall-back is recorded only when the ladder goes on.
        """
        step = self._obs_count + 1

        def commit(attempt: LadderAttempt) -> bool:
            self._retry_wait_s += attempt.wait_s
            if self._commit_attempt(step, index, attempt):
                return True
            self._commit_fallback(step, index, attempt)
            return False

        return self._ladder(index, self._retry_rng, stop=commit)

    def _commit_outcome(self, outcome: LadderOutcome) -> None:
        """Fold a whole batch task's ladder into search state.

        Every attempt is committed, whatever the breaker or the budget
        says by then; the retry wait lands once, as the task summed it.
        """
        step = self._obs_count + 1
        self._retry_wait_s += outcome.wait_s
        for attempt in outcome.attempts:
            self._commit_attempt(step, outcome.index, attempt)
            self._commit_fallback(step, outcome.index, attempt)

    def _reachable_unmeasured(self) -> list[int]:
        """Unmeasured catalog indices whose VM is not quarantined."""
        measured = self._measured_set
        return [
            i
            for i, vm in enumerate(self._env.catalog)
            if i not in measured and not self._breaker.is_quarantined(vm.name)
        ]

    def start(self, initial_vms: list[int] | None = None) -> SearchState:
        """Begin a search and return its resumable ask/tell handle.

        Resets search state (exactly like :meth:`run`'s prologue) and
        hands back a :class:`SearchState` whose :meth:`SearchState.step`
        advances the search one observation or one acquisition round at
        a time — so an external driver (the vectorized grid executor, a
        service loop) can own the schedule instead of this optimiser.

        Args:
            initial_vms: override the initial design with explicit
                catalog indices (used by the initial-point sensitivity
                experiments of Section III-C).
        """
        return SearchState(self, initial_vms)

    def run(self, initial_vms: list[int] | None = None) -> SearchResult:
        """Execute the search to completion and return its full trace.

        Drives :meth:`start`'s step machine until it finishes; the
        resulting trace is bit-identical to the historical monolithic
        loop (the steps decompose it without reordering any operation).

        Args:
            initial_vms: override the initial design with explicit
                catalog indices (used by the initial-point sensitivity
                experiments of Section III-C).

        Raises:
            MeasurementError: if not even one VM could be measured.
        """
        state = self.start(initial_vms)
        while state.step():
            pass
        return state.result()

    def _round_scorer(self):
        """The scorer :meth:`_score_candidates` would use next round.

        Drivers that batch surrogate work across searches (the
        ``"vector"`` executor) use this to group compatible searches;
        ``None`` (the base default) means "not batchable — score via
        :meth:`_score_candidates`".
        """
        return None

    # -- batched rounds ------------------------------------------------------

    def batch_measure_task(self, cell: BatchCell) -> LadderOutcome:
        """Run one batch measurement's ladder to completion, self-seeded.

        Safe to run in any order, on any worker: the task derives every
        random stream it touches — environment noise, fault rules, retry
        jitter — from its spawn key ``(stream seed, 2, iteration,
        catalog index)`` (environments expose an optional ``arm_for``
        hook for the first two).  The ladder runs with no stop
        predicate: breaker, budget and events are global concerns,
        applied when the batch commits.
        """
        iteration, index = cell
        spawn_key = (self._stream_seed, BATCH_STREAM_TAG, iteration, index)
        arm = getattr(self._env, "arm_for", None)
        if arm is not None:
            arm(spawn_key)
        return self._ladder(index, np.random.default_rng([*spawn_key, 1]))

    def _batched_round(self, iteration: int) -> str | None:
        """One q-point round (``batch_size > 1``): suggest, fan out, commit.

        Returns the stop reason when this round ended the search, else
        ``None`` (the caller — :class:`SearchState` — schedules the next
        round).
        """
        fanout = self._fanout if self._fanout is not None else _inline_fanout
        candidates = self._reachable_unmeasured()
        if not candidates:
            return "exhausted"
        if self._budget_exhausted():
            return "budget"
        acquisition, picked = self._suggest_batch(candidates, self.batch_size)
        step = self._obs_count + 1
        self._events.append(
            SearchEvent(
                kind="surrogate_fitted",
                step=step,
                detail=f"scored {len(candidates)} candidates",
            )
        )
        if acquisition.scores.shape != (len(candidates),):
            raise RuntimeError(
                f"{self.name}: expected {len(candidates)} scores, "
                f"got shape {acquisition.scores.shape}"
            )
        if self.stopping is not None and self.stopping.should_stop(
            StoppingSnapshot(
                measurement_count=self._obs_count,
                best_observed=self.best_observed,
                predicted=acquisition.predicted,
                expected_improvements=acquisition.expected_improvements,
            )
        ):
            self._events.append(
                SearchEvent(
                    kind="stopping_rule_fired",
                    step=step,
                    detail=self.stopping.describe(),
                )
            )
            return "criterion"
        if self.max_measurements is not None:
            # Reserve the cost of each pick up front; the batch cannot
            # pause mid-flight the way the serial loop checks the
            # budget between retries (overshoot is bounded, see the
            # module docstring).
            if self._spot is None:
                picked = picked[: self.max_measurements - self._charged()]
            else:
                # Under spot pricing a pick's expected bill is below one
                # on-demand unit (hazard-adjusted closed form), so the
                # same budget affords more concurrent picks.
                remaining = float(self.max_measurements) - self._charged()
                affordable: list[int] = []
                for index in picked:
                    expected = self._spot.expected_attempt_cost(
                        self._env.catalog[index].name
                    )
                    if expected > remaining:
                        break
                    remaining -= expected
                    affordable.append(index)
                picked = affordable
        if not picked:
            return "budget"
        self._events.append(
            SearchEvent(
                kind="batch_suggested",
                step=step,
                detail=f"q={len(picked)}: "
                + ", ".join(self._env.catalog[i].name for i in picked),
            )
        )
        cells: list[BatchCell] = [(iteration, index) for index in picked]
        outcomes = fanout(cells, self.batch_measure_task)
        # Commit in catalog-index order regardless of completion order,
        # so events, failure records, breaker state and step numbering
        # are identical for any fan-out backend and worker count.
        for outcome in sorted(outcomes, key=lambda o: o.index):
            self._commit_outcome(outcome)
        succeeded = sum(1 for o in outcomes if o.succeeded)
        self._events.append(
            SearchEvent(
                kind="batch_measured",
                step=step,
                detail=f"{succeeded}/{len(picked)} succeeded",
            )
        )
        return None

    def _build_result(self, stopped_by: str) -> SearchResult:
        steps = []
        best = np.inf
        observations = zip(
            self._obs_indices, self._value_buf, self._obs_attempts, self._obs_charges
        )
        for step, (index, value, attempts, charge) in enumerate(observations, start=1):
            best = min(best, value)
            steps.append(
                SearchStep(
                    step=step,
                    vm_name=self._env.catalog[index].name,
                    objective_value=float(value),
                    best_value=float(best),
                    attempts=attempts,
                    charge=charge,
                )
            )
        workload = getattr(self._env, "workload", None)
        return SearchResult(
            optimizer=self.name,
            objective=self.objective,
            workload_id=workload.workload_id if workload is not None else None,
            steps=tuple(steps),
            stopped_by=stopped_by,
            quarantined_vms=tuple(sorted(self._breaker.quarantined)),
            failure_events=tuple(self._failure_events),
            retry_wait_s=self._retry_wait_s,
            events=tuple(self._events),
        )


class SearchState:
    """A resumable search: the ask/tell step machine behind :meth:`run`.

    Obtained from :meth:`SequentialOptimizer.start`.  The search moves
    through three phases:

    * ``"init"`` — one initial-design observation per :meth:`step`
      (including the fall-back probing of the remaining catalog when
      every planned initial VM failed);
    * ``"search"`` — one acquisition round per :meth:`step`: score the
      reachable unmeasured candidates, fire the stopping rule, measure
      the argmax (or, in batched mode, one full suggest/fan-out/commit
      round);
    * ``"done"`` — :meth:`result` returns the finished
      :class:`~repro.core.result.SearchResult`.

    Driving ``step()`` to completion is bit-identical to the historical
    monolithic loop: the phases decompose it without reordering any
    observation, event, or random draw.

    External drivers that want to batch the surrogate work of many
    searches use the finer-grained round split instead of ``step()``:
    :meth:`begin_round` returns the candidate list (or finishes the
    search), the driver computes the acquisition however it likes (for
    the vectorized grid executor: stacked across searches, bit-identical
    per search), and :meth:`complete_round` applies it.

    The state (optimiser included) is plain-picklable as long as the
    environment and any injected measurement fan-out are, so a search
    can be serialized mid-flight with :meth:`to_bytes` and resumed in
    another process with :meth:`from_bytes`.
    """

    def __init__(
        self,
        optimizer: SequentialOptimizer,
        initial_vms: list[int] | None = None,
    ) -> None:
        opt = optimizer
        self._opt = opt
        self._phase = "init"
        self._stopped_by: str | None = None
        self._result: SearchResult | None = None
        self._iteration = 0  # batched rounds only
        opt._env.reset()
        opt._reset_observations()
        opt._failure_events = []
        opt._events = []
        opt._failed_charges = 0
        opt._retry_wait_s = 0.0
        opt._checkpoints = {}
        opt._charge_total = 0.0
        opt._breaker = opt._new_breaker()
        opt._retry_rng = np.random.default_rng([opt._stream_seed, 1])
        initial = initial_vms if initial_vms is not None else opt._initial_indices()
        if not initial:
            raise ValueError("initial design must contain at least one VM")
        if len(set(initial)) != len(initial):
            raise ValueError("initial design must not repeat VMs")
        if opt.max_measurements is not None:
            initial = initial[: opt.max_measurements]
        self._pending_initial = list(initial)

    # -- introspection -------------------------------------------------------

    @property
    def optimizer(self) -> SequentialOptimizer:
        """The optimiser this state is driving."""
        return self._opt

    @property
    def phase(self) -> str:
        """``"init"``, ``"search"``, or ``"done"``."""
        return self._phase

    @property
    def done(self) -> bool:
        """True once the search finished and :meth:`result` is ready."""
        return self._phase == "done"

    @property
    def stopped_by(self) -> str | None:
        """The stop reason once done, else ``None``."""
        return self._stopped_by

    # -- stepping ------------------------------------------------------------

    def step(self) -> bool:
        """Advance the search by one unit of work.

        One initial observation in the ``"init"`` phase; one acquisition
        round in the ``"search"`` phase.  Returns True while the search
        is still live, False once it finished.

        Raises:
            MeasurementError: if not even one VM could be measured.
        """
        if self._phase == "done":
            return False
        if self._phase == "init":
            self._step_init()
            return self._phase != "done"
        if self._opt.batch_size == 1:
            candidates = self.begin_round()
            if candidates is None:
                return False
            acquisition = self._opt._score_candidates(candidates)
            self.complete_round(candidates, acquisition)
        else:
            self._iteration += 1
            stopped_by = self._opt._batched_round(self._iteration)
            if stopped_by is not None:
                self._finish(stopped_by)
        return self._phase != "done"

    def _step_init(self) -> None:
        """One initial-design observation (or fall-back probe)."""
        opt = self._opt
        while self._pending_initial:
            if opt._budget_exhausted():
                self._pending_initial.clear()
                break
            opt._observe(self._pending_initial.pop(0))
            return  # one observation per step
        if not opt._obs_count and not opt._budget_exhausted():
            # Every planned initial VM failed: fall back to the remaining
            # reachable catalog (in order), one probe per step, so one
            # bad initial design cannot kill the search while measurable
            # VMs exist.
            candidates = opt._reachable_unmeasured()
            if candidates:
                opt._observe(candidates[0])
                return
        if not opt._obs_count:
            raise MeasurementError(
                "no initial measurement succeeded "
                f"({opt._failed_charges} charged attempts; "
                f"quarantined: {sorted(opt._breaker.quarantined)})"
            )
        self._phase = "search"

    # -- the driver-facing round split (batch_size == 1) ---------------------

    def begin_round(self) -> list[int] | None:
        """Open one sequential acquisition round.

        Returns the reachable unmeasured candidate indices, or ``None``
        when this call finished the search (catalog exhausted / budget
        spent).  Each successful ``begin_round`` must be paired with one
        :meth:`complete_round`.
        """
        opt = self._opt
        if self._phase != "search":
            raise RuntimeError(f"begin_round() in phase {self._phase!r}")
        candidates = opt._reachable_unmeasured()
        if not candidates:
            self._finish("exhausted")
            return None
        if opt._budget_exhausted():
            self._finish("budget")
            return None
        return candidates

    def complete_round(
        self, candidates: list[int], acquisition: AcquisitionScores
    ) -> None:
        """Apply one round's acquisition: events, stopping rule, observe.

        ``acquisition`` must score exactly ``candidates`` (the list the
        matching :meth:`begin_round` returned) and — for bit-identity
        with the serial path — must equal what the optimiser's own
        :meth:`~SequentialOptimizer._score_candidates` would produce.
        """
        opt = self._opt
        opt._events.append(
            SearchEvent(
                kind="surrogate_fitted",
                step=opt._obs_count + 1,
                detail=f"scored {len(candidates)} candidates",
            )
        )
        if acquisition.scores.shape != (len(candidates),):
            raise RuntimeError(
                f"{opt.name}: expected {len(candidates)} scores, "
                f"got shape {acquisition.scores.shape}"
            )
        if opt.stopping is not None and opt.stopping.should_stop(
            StoppingSnapshot(
                measurement_count=opt._obs_count,
                best_observed=opt.best_observed,
                predicted=acquisition.predicted,
                expected_improvements=acquisition.expected_improvements,
            )
        ):
            opt._events.append(
                SearchEvent(
                    kind="stopping_rule_fired",
                    step=opt._obs_count + 1,
                    detail=opt.stopping.describe(),
                )
            )
            self._finish("criterion")
            return
        opt._observe(candidates[int(np.argmax(acquisition.scores))])

    def _finish(self, stopped_by: str) -> None:
        self._phase = "done"
        self._stopped_by = stopped_by
        self._result = self._opt._build_result(stopped_by)

    def result(self) -> SearchResult:
        """The finished search trace.

        Raises:
            RuntimeError: while the search is still live.
        """
        if self._result is None:
            raise RuntimeError("search not finished; keep calling step()")
        return self._result

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Pickle this mid-flight search (optimiser and all)."""
        import pickle

        return pickle.dumps(self)

    @classmethod
    def from_bytes(cls, payload: bytes) -> SearchState:
        """Resume a search serialized with :meth:`to_bytes`."""
        import pickle

        state = pickle.loads(payload)
        if not isinstance(state, cls):
            raise TypeError(f"payload is not a {cls.__name__}")
        return state
