"""Pure summary statistics shared by the benchmark launcher and worker.

Nothing here imports numpy or the program under test, so the launcher
can aggregate results without pulling either into its own process.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterable, Sequence

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it; below that it is noise, not a tail.
MIN_TAIL_SAMPLES = 10

#: Reference times on each side of a duration that gauge the host's
#: speed during it (see :func:`rescale`).
RESCALE_WINDOW = 5


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Matches numpy's default ("linear") method, so figures agree with any
    numpy-based reading of the same samples.

    Raises:
        ValueError: if ``samples`` is empty or ``q`` is outside 0..100.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be within 0..100, got {q}")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(samples: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(samples, q)
    return sum(1 for value in samples if value > cut)


def tail_percentile(samples: Sequence[float], q: float) -> float | None:
    """The ``q``-th percentile, or ``None`` when too few samples lie beyond.

    A tail figure needs at least :data:`MIN_TAIL_SAMPLES` samples above
    it to say anything about the tail.
    """
    if not samples or samples_beyond(samples, q) < MIN_TAIL_SAMPLES:
        return None
    return percentile(samples, q)


def median(values: Iterable[float]) -> float:
    """The median of ``values``."""
    return statistics.median(list(values))


def rescale(
    durations: Sequence[float],
    refs: Sequence[float],
    nominal: float,
    window: int = RESCALE_WINDOW,
) -> list[float]:
    """Durations as they would read on a host running the reference in ``nominal``.

    ``refs[i]`` is the reference kernel's time measured right after
    ``durations[i]``.  Each duration is scaled by ``nominal`` over the
    median reference time within ``window`` places of it, so a slow
    spell of the host scales back only the durations it overlapped.

    Raises:
        ValueError: if the sequences differ in length or a reference
            time is not positive.
    """
    if len(durations) != len(refs):
        raise ValueError(f"{len(durations)} durations but {len(refs)} reference times")
    if any(ref <= 0.0 for ref in refs):
        raise ValueError("reference times must be positive")
    return [
        duration * nominal / statistics.median(refs[max(0, i - window) : i + window + 1])
        for i, duration in enumerate(durations)
    ]


def cost_to_optimum_mean(costs: Iterable[int | None]) -> float | None:
    """Mean search cost over the searches that reached the optimum.

    ``None`` entries are searches that never measured the optimum; they
    are excluded (their share is reported separately as the solved
    fraction), so an unsolved search neither counts as zero nor as a
    full sweep.  Returns ``None`` when no search was solved.
    """
    solved = [cost for cost in costs if cost is not None]
    if not solved:
        return None
    return sum(solved) / len(solved)


def solved_fraction(costs: Sequence[int | None]) -> float:
    """Share of searches that reached the optimum."""
    if not costs:
        raise ValueError("solved fraction of no searches")
    return sum(1 for cost in costs if cost is not None) / len(costs)
