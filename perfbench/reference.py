"""A fixed reference kernel that gauges how fast the host runs right now.

A shared virtual machine changes speed by tens of percent over seconds
to minutes, and whole runs slow down together, so no median over a run
removes it.  The worker therefore calls :func:`kernel_seconds` after
every search and rescales each search's time by how long the kernel took
around it (:func:`stats.rescale`): a figure then reads as seconds on a
host running the kernel in :data:`NOMINAL_S`, and a change to the
program still moves it one for one, because the kernel does not call the
program.

The kernel does what the workloads spend their time on, in about the
same proportions: row gathers, a masked mean, an argsort and a prefix
sum over a small table, as in an Extra-Trees split search and tree
traversal (about four fifths of its time), then small Cholesky solves
between pure-Python loops, as in a Gaussian-process fit.  A tree-only
kernel tracked the tree-bound workloads one for one but left the short
GP searches about 10% apart between the host's fast and slow spells.
Its inputs are fixed, so every call does the same work.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds one :func:`kernel_seconds` call takes at the nominal speed
#: (about its median on a 2-vCPU shared x86-64 VM).
NOMINAL_S = 2.5e-3

_rng = np.random.default_rng(0)
_TABLE = _rng.random((400, 12))
_ROWS = _rng.integers(0, 400, 4000)
_SPD = _rng.random((24, 24))
_SPD = _SPD @ _SPD.T + 24.0 * np.eye(24)
_RHS = _rng.random(24)


def kernel_seconds() -> float:
    """Wall-clock of one call of the fixed kernel."""
    start = time.perf_counter()
    total = 0.0
    for column in range(4):
        rows = _TABLE[_ROWS]
        left = rows[rows[:, column] < 0.5]
        order = np.argsort(rows[:, column])
        total += float(left.mean(axis=0)[column]) + float(np.cumsum(rows[order, column])[-1])
    for column in range(16):
        factor = np.linalg.cholesky(_SPD)
        total += float(np.linalg.solve(factor, _RHS)[column])
        total += max(range(64), key=lambda i: (i * 7919 + column) % 101)
    elapsed = time.perf_counter() - start
    if total <= 0.0:  # never true; keeps the work from being dead code
        raise AssertionError("reference kernel produced no work")
    return elapsed
