"""The one measurement retry ladder and its commit step.

A scripted environment replays a fixed per-VM sequence of attempt
results (transient failures, spot revocations at set fractions, real
measurements), so each test knows exactly which attempt does what.

* With no quarantine or budget stop in reach, the serial path
  (commit each attempt as it lands) and the batch path (run the whole
  ladder, then commit the outcome) agree on the attempt records,
  charges, checkpoints, events and observations.
* The serial predicate stops the ladder exactly at the attempt that
  quarantines the VM or exhausts the budget; the batch ladder runs on.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.cloud.spot import SpotMarket, SpotPolicy
from repro.core.baselines import RandomSearch
from repro.faults.models import SpotInterruptionError, TransientTimeoutError
from repro.faults.retry import RetryPolicy

WORKLOAD = "kmeans/Spark 2.1/small"


class ScriptedEnvironment:
    """A trace environment whose attempts follow a per-VM script.

    Script entries: ``"ok"`` measures from the trace, ``"fail"`` raises
    a transient timeout, and a float ``g`` raises a market spot
    revocation at fraction ``g`` of the remaining work.  A VM whose
    script ran out measures normally.  Every ``set_pricing`` call is
    logged.
    """

    def __init__(self, inner, scripts: dict[int, list]) -> None:
        self._inner = inner
        self._scripts = {
            inner.catalog[index].name: list(steps) for index, steps in scripts.items()
        }
        self.pricing_log: list[tuple[str, str]] = []

    @property
    def catalog(self):
        return self._inner.catalog

    @property
    def measurement_count(self) -> int:
        return self._inner.measurement_count

    def reset(self) -> None:
        self._inner.reset()

    def remaining(self, index: int) -> list:
        return self._scripts[self.catalog[index].name]

    def set_pricing(self, vm_name: str, pricing: str) -> None:
        self.pricing_log.append((vm_name, pricing))

    def measure(self, vm):
        script = self._scripts.get(vm.name)
        entry = script.pop(0) if script else "ok"
        if entry == "fail":
            raise TransientTimeoutError(f"{vm.name} timed out")
        if entry != "ok":
            raise SpotInterruptionError(f"{vm.name} reclaimed", fraction=entry)
        return self._inner.measure(vm)


#: Per-VM scripts that never reach a quarantine or budget stop.
CLEAN_LADDERS = {
    0: ["fail", "fail", "ok"],
    1: [0.4, 0.5, "ok"],  # second revocation falls back to on-demand
    2: [0.3, "fail", "ok"],  # success resumes from the checkpoint
    3: [0.25, "fail", "fail", "fail", "fail"],  # fails outright, banks credit
    4: ["ok"],
}


def _optimizer(trace, scripts, **kwargs) -> RandomSearch:
    kwargs.setdefault("retry_policy", RetryPolicy(max_attempts=5, backoff_base_s=0.1))
    kwargs.setdefault("quarantine_after", 10)
    return RandomSearch(
        ScriptedEnvironment(trace.environment(WORKLOAD), scripts), seed=3, **kwargs
    )


def _spot(**overrides) -> SpotPolicy:
    overrides.setdefault("revocation_quarantine", None)
    return SpotPolicy(market=SpotMarket(seed=5), **overrides)


def _state(optimizer):
    return (
        optimizer._charged(),
        optimizer._failure_events,
        optimizer._events,
        optimizer._checkpoints,
        optimizer.measured_indices,
        optimizer._obs_charges,
        optimizer._obs_attempts,
        optimizer.quarantined_vm_names,
    )


@pytest.mark.parametrize("spot", [None, _spot()], ids=["on-demand", "spot"])
def test_serial_and_batch_commits_agree_without_stops(trace, spot):
    serial = _optimizer(trace, CLEAN_LADDERS, spot=spot)
    batch = _optimizer(trace, CLEAN_LADDERS, spot=spot)
    # The batch side draws from a copy of the serial jitter stream so
    # the two ladders see the same backoff waits.
    retry_rng = np.random.default_rng([batch._stream_seed, 1])
    for index in CLEAN_LADDERS:
        committed = serial._observe(index)
        outcome = batch._ladder(index, retry_rng)
        batch._commit_outcome(outcome)
        assert committed == outcome
    assert _state(serial) == _state(batch)
    assert serial._retry_wait_s == pytest.approx(batch._retry_wait_s)
    assert serial._env.pricing_log == batch._env.pricing_log
    if spot is not None:
        # The outright failure kept its banked resume credit.
        assert serial._checkpoints[serial._env.catalog[3].name].fraction == 0.25
        assert any(e.kind == "fallback_to_ondemand" for e in serial._events)


def test_ladder_records_charges_checkpoints_and_fallback(trace):
    spot = _spot(fallback_after=2, resume_credit=0.5)
    optimizer = _optimizer(trace, {1: [0.4, 0.5, "ok"]}, spot=spot)
    outcome = optimizer._observe(1)
    first, second, success = outcome.attempts
    ratio = 1.0 - spot.market.discount(optimizer._env.catalog[1].name)
    assert first.revocation == 1 and first.revoked_at == 0.4
    assert first.charge == pytest.approx(ratio * 0.4)
    assert first.checkpoint.fraction == pytest.approx(0.2)
    assert not first.fallback
    assert second.revocation == 2 and second.fallback
    assert second.charge == pytest.approx(ratio * 0.5 * 0.8)
    assert second.checkpoint.fraction == pytest.approx(0.2 + 0.5 * 0.4)
    # After the fall-back the success pays full price for the remainder.
    assert success.error is None and success.charge == pytest.approx(1.0 - 0.4)
    assert outcome.succeeded
    assert optimizer._checkpoints == {}
    assert pickle.loads(pickle.dumps(outcome)) == outcome


def test_serial_stops_at_the_quarantining_attempt(trace):
    script = {0: ["fail", "fail", "fail", "ok"]}
    serial = _optimizer(trace, script, quarantine_after=2)
    outcome = serial._observe(0)
    assert [a.number for a in outcome.attempts] == [1, 2]
    assert serial._env.remaining(0) == ["fail", "ok"]  # never attempted
    assert serial.quarantined_vm_names == {serial._env.catalog[0].name}
    assert serial.measured_indices == []

    # The batch ladder cannot see the breaker: it runs on, and its
    # commit quarantines the VM yet still records the late success.
    batch = _optimizer(trace, script, quarantine_after=2)
    outcome = batch._ladder(0, np.random.default_rng(0))
    batch._commit_outcome(outcome)
    assert [a.number for a in outcome.attempts] == [1, 2, 3, 4]
    assert batch.quarantined_vm_names == {batch._env.catalog[0].name}
    assert batch.measured_indices == [0]
    assert sum(e.kind == "vm_quarantined" for e in batch._events) == 1


def test_serial_churn_quarantine_preempts_the_fallback(trace):
    script = {0: [0.5, 0.5, "ok"]}
    spot = _spot(fallback_after=2, revocation_quarantine=2)
    serial = _optimizer(trace, script, spot=spot)
    outcome = serial._observe(0)
    assert [a.number for a in outcome.attempts] == [1, 2]
    assert outcome.attempts[-1].fallback  # tripped, but the ladder stopped
    kinds = [e.kind for e in serial._events]
    assert "fallback_to_ondemand" not in kinds
    assert kinds[-1] == "vm_quarantined"
    assert serial._events[-1].detail == "spot churn: 2 revocations"
    assert all(pricing == "spot" for _, pricing in serial._env.pricing_log)

    batch = _optimizer(trace, script, spot=spot)
    outcome = batch._ladder(0, np.random.default_rng(0))
    batch._commit_outcome(outcome)
    assert [a.number for a in outcome.attempts] == [1, 2, 3]
    kinds = [e.kind for e in batch._events]
    assert kinds.index("vm_quarantined") < kinds.index("fallback_to_ondemand")


def test_serial_stops_at_the_budget_exhausting_attempt(trace):
    script = {0: ["fail"] * 4 + ["ok"]}
    serial = _optimizer(trace, script, max_measurements=3)
    outcome = serial._observe(0)
    assert [a.number for a in outcome.attempts] == [1, 2, 3]
    assert serial._charged() == 3
    assert serial._env.remaining(0) == ["fail", "ok"]
    assert not serial.quarantined_vm_names

    batch = _optimizer(trace, script, max_measurements=3)
    outcome = batch._ladder(0, np.random.default_rng(0))
    batch._commit_outcome(outcome)
    assert len(outcome.attempts) == 5
    assert batch._charged() == 5  # the bounded batch overshoot
