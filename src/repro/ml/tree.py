"""Regression trees with extremely-randomised splits.

Building block for the Extra-Trees ensemble (Geurts, Ernst & Wehenkel,
2006) that Augmented BO uses as its surrogate: at every node a random
subset of features is considered and, for each, a *uniformly random*
threshold between the node's min and max — the split with the best
variance reduction wins.  Randomised thresholds are what distinguish
Extra-Trees from random forests and make single trees cheap to grow.

The implementation is tuned for the surrogate's inner loop (the ensemble
is refitted after every measurement): split search uses running-sum SSE
instead of repeated variance calls, and prediction is a vectorised batch
traversal over flat node arrays.  Ensembles are packed
(:class:`PackedTrees`) and walked by one flat-gather kernel shared by
:func:`predict_packed` and :func:`predict_packed_many`: each split reads
the raveled query matrix at ``row * d + feature``, the next node comes
from a fused child table at ``2 * node + go_left``, and only the cursors
that have not reached a leaf are carried to the next level.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def coerce_training_data(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate and coerce ``(X, y)`` once, for a whole ensemble.

    Every tree grower in this package accepts the result without
    re-validating, so an ensemble fit pays the (cheap, but per-tree
    repeated) checks exactly once.

    Raises:
        ValueError: on empty or mismatched inputs.
    """
    X = np.ascontiguousarray(X, dtype=float)
    y = np.ascontiguousarray(y, dtype=float).reshape(-1)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] == 0:
        raise ValueError("cannot fit a tree on zero observations")
    return X, y


@dataclass(frozen=True)
class PackedTrees:
    """A whole ensemble flattened into one set of node arrays.

    Every fitted tree in this package stores its nodes as flat arrays
    (``feature``, ``threshold``, ``left``, ``right``, ``value``; leaves
    have ``feature == -1``).  Packing concatenates those arrays across
    trees, offsetting child indices, so the *entire ensemble* can be
    evaluated with one vectorised traversal over ``n_trees x n_rows``
    cursor states instead of one Python-level traversal per tree — the
    ensemble predict becomes a single flat-array walk.

    Attributes:
        feature: split feature per node (-1 for leaves), all trees.
        threshold: split threshold per node.
        left: absolute (packed) index of the left child, -1 for leaves.
        right: absolute (packed) index of the right child, -1 for leaves.
        value: node mean, used at leaves.
        roots: packed index of each tree's root, one per tree.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray

    @property
    def n_trees(self) -> int:
        """Number of trees packed together."""
        return int(self.roots.size)

    @property
    def node_count(self) -> int:
        """Total number of nodes across all packed trees."""
        return int(self.feature.size)

    @cached_property
    def child(self) -> np.ndarray:
        """Fused child table: node ``i`` goes to ``child[2*i + go_left]``.

        ``child[2*i]`` is the right child and ``child[2*i + 1]`` the
        left, so one gather replaces a ``where`` over both tables.
        Built on first use.
        """
        return np.column_stack((self.right, self.left)).ravel()


def pack_trees(trees: Sequence) -> PackedTrees:
    """Pack fitted trees (any class using the flat node layout) together.

    Raises:
        ValueError: on an empty sequence or an unfitted tree.
    """
    if not trees:
        raise ValueError("cannot pack an empty tree sequence")
    features, thresholds, lefts, rights, values, roots = [], [], [], [], [], []
    offset = 0
    for tree in trees:
        if tree._feature is None:
            raise ValueError("all trees must be fitted before packing")
        features.append(tree._feature)
        thresholds.append(tree._threshold)
        # Child pointers become absolute packed indices; leaves stay -1.
        lefts.append(np.where(tree._left >= 0, tree._left + offset, -1))
        rights.append(np.where(tree._right >= 0, tree._right + offset, -1))
        values.append(tree._value)
        roots.append(offset)
        offset += tree._feature.size
    return PackedTrees(
        feature=np.concatenate(features),
        threshold=np.concatenate(thresholds),
        left=np.concatenate(lefts),
        right=np.concatenate(rights),
        value=np.concatenate(values),
        roots=np.array(roots, dtype=np.int64),
    )


#: Row-chunk size for :func:`predict_packed`.  Bounds the transient
#: ``n_trees * chunk`` cursor arrays when scoring hundreds of candidates
#: against many sources (u * m query rows grows quadratically over a
#: search); rows traverse independently, so chunking is bit-identical.
PREDICT_CHUNK_ROWS = 16384


def _descend(
    feature: np.ndarray,
    threshold: np.ndarray,
    child: np.ndarray,
    x: np.ndarray,
    node: np.ndarray,
    offset: np.ndarray,
) -> np.ndarray:
    """Walk every cursor from ``node`` down to its leaf; returns ``node``.

    ``x`` is the query matrix raveled row-major and ``offset[i]`` the
    start of cursor ``i``'s row in it, so a split reads
    ``x[offset + feature]`` — one flat gather.  Only the still-active
    cursors are carried from level to level; each compares exactly the
    operands a per-tree walk would, so the leaves are the same.
    """
    active = np.flatnonzero(feature.take(node) >= 0)
    current = node.take(active)
    offset = offset.take(active)
    while active.size:
        go_left = x.take(offset + feature.take(current)) <= threshold.take(current)
        current = child.take(2 * current + go_left)
        node[active] = current
        keep = feature.take(current) >= 0
        active = active[keep]
        current = current[keep]
        offset = offset[keep]
    return node


def _predict_packed_block(packed: PackedTrees, X: np.ndarray) -> np.ndarray:
    """One unchunked flat traversal over ``X`` (see :func:`predict_packed`)."""
    n_rows, width = X.shape
    node = np.repeat(packed.roots, n_rows)
    offset = np.tile(np.arange(n_rows, dtype=np.int64) * width, packed.n_trees)
    leaves = _descend(
        packed.feature, packed.threshold, packed.child, X.ravel(), node, offset
    )
    return packed.value[leaves].reshape(packed.n_trees, n_rows)


def predict_packed(
    packed: PackedTrees, X: np.ndarray, chunk_rows: int | None = None
) -> np.ndarray:
    """Per-tree predictions for ``X`` in flat traversals.

    All ``n_trees * n_rows`` cursors descend simultaneously; the loop
    runs for the depth of the deepest tree rather than once per tree.
    Inputs wider than ``chunk_rows`` rows (default
    :data:`PREDICT_CHUNK_ROWS`) are traversed in row chunks so the
    cursor arrays stay cache-sized at large candidate counts — each row
    descends independently, so the result is the same bit for bit.
    Returns an ``(n_trees, n_rows)`` array identical to stacking each
    tree's own :meth:`RegressionTree.predict`.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    n_rows = X.shape[0]
    chunk = PREDICT_CHUNK_ROWS if chunk_rows is None else int(chunk_rows)
    if chunk < 1:
        raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
    if n_rows <= chunk:
        return _predict_packed_block(packed, X)
    out = np.empty((packed.n_trees, n_rows))
    for start in range(0, n_rows, chunk):
        stop = min(start + chunk, n_rows)
        out[:, start:stop] = _predict_packed_block(packed, X[start:stop])
    return out


def predict_packed_many(
    packeds: Sequence[PackedTrees], Xs: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Per-tree predictions for many (ensemble, query) pairs in one walk.

    Concatenates the ensembles' node arrays (child pointers rebased) and
    all query rows, then descends every ``(tree, row)`` cursor of every
    pair simultaneously — one traversal loop bounded by the deepest tree
    anywhere instead of one loop per ensemble.  Each cursor's descent is
    independent and compares exactly the operands the per-ensemble
    :func:`predict_packed` would, so result ``i`` is bit-identical to
    ``predict_packed(packeds[i], Xs[i])``.

    Intended for cross-search drivers batching modest per-search query
    sets; rows are not chunked, so keep the total cursor count
    (``sum(n_trees_i * n_rows_i)``) within cache-friendly bounds.

    Raises:
        ValueError: on length mismatch or an empty pair list.
    """
    if len(packeds) != len(Xs):
        raise ValueError(
            f"got {len(packeds)} ensembles but {len(Xs)} query sets"
        )
    if not packeds:
        raise ValueError("cannot batch-predict zero ensembles")
    queries = []
    for X in Xs:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        queries.append(X)
    feature = np.concatenate([p.feature for p in packeds])
    threshold = np.concatenate([p.threshold for p in packeds])
    value = np.concatenate([p.value for p in packeds])
    node_counts = [p.node_count for p in packeds]
    node_offsets = np.concatenate([[0], np.cumsum(node_counts)[:-1]])
    child = np.concatenate(
        [np.where(p.child >= 0, p.child + off, -1)
         for p, off in zip(packeds, node_offsets)]
    )
    row_counts = [X.shape[0] for X in queries]
    row_offsets = np.concatenate([[0], np.cumsum(row_counts)[:-1]])
    # Ragged feature widths are fine: each cursor only ever indexes its
    # own ensemble's query block.  Pad to the widest for one flat array.
    width = max(X.shape[1] for X in queries)
    X_all = np.zeros((sum(row_counts), width))
    for X, off in zip(queries, row_offsets):
        X_all[off : off + X.shape[0], : X.shape[1]] = X
    node = np.concatenate(
        [np.repeat(p.roots + noff, nrows)
         for p, noff, nrows in zip(packeds, node_offsets, row_counts)]
    )
    offset = np.concatenate(
        [np.tile(np.arange(nrows, dtype=np.int64) + roff, p.n_trees) * width
         for p, roff, nrows in zip(packeds, row_offsets, row_counts)]
    )
    node = _descend(feature, threshold, child, X_all.ravel(), node, offset)
    values = value[node]
    out = []
    pos = 0
    for p, nrows in zip(packeds, row_counts):
        n = p.n_trees * nrows
        out.append(values[pos : pos + n].reshape(p.n_trees, nrows))
        pos += n
    return out


def adopt_nodes(
    tree,
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    value: np.ndarray,
    depths: np.ndarray,
) -> None:
    """Install flat node arrays into ``tree`` as its fitted state.

    Works for any tree class using this package's flat node layout
    (:class:`RegressionTree` and the CART tree in
    :mod:`repro.ml.random_forest`).  Child indices must be tree-local.

    Raises:
        ValueError: when the arrays disagree on the node count.
    """
    n = feature.shape[0]
    for name, array in (
        ("threshold", threshold), ("left", left), ("right", right),
        ("value", value), ("depths", depths),
    ):
        if array.shape[0] != n:
            raise ValueError(
                f"{name} has {array.shape[0]} nodes but feature has {n}"
            )
    tree._feature = np.ascontiguousarray(feature, dtype=np.int64)
    tree._threshold = np.ascontiguousarray(threshold, dtype=float)
    tree._left = np.ascontiguousarray(left, dtype=np.int64)
    tree._right = np.ascontiguousarray(right, dtype=np.int64)
    tree._value = np.ascontiguousarray(value, dtype=float)
    tree._depths = [int(depth) for depth in depths]


class RegressionTree:
    """A single extremely-randomised regression tree.

    Args:
        max_features: features considered per split; ``None`` means all
            (the Extra-Trees default for regression).
        min_samples_split: nodes smaller than this become leaves.
        max_depth: depth cap; ``None`` means unlimited.
        seed: seed (or Generator) for split randomisation.
    """

    def __init__(
        self,
        max_features: int | None = None,
        min_samples_split: int = 2,
        max_depth: int | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be at least 2")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self.max_features = max_features
        self.min_samples_split = min_samples_split
        self.max_depth = max_depth
        self._rng = np.random.default_rng(seed)
        # Flat node arrays (filled by fit): leaves have feature == -1.
        self._feature: np.ndarray | None = None
        self._threshold: np.ndarray | None = None
        self._left: np.ndarray | None = None
        self._right: np.ndarray | None = None
        self._value: np.ndarray | None = None
        self._depths: list[int] = []

    @property
    def node_count(self) -> int:
        """Number of nodes in the fitted tree (0 before fitting)."""
        return 0 if self._feature is None else int(self._feature.size)

    @classmethod
    def from_arrays(
        cls,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        depths: np.ndarray,
        **params,
    ) -> RegressionTree:
        """A fitted tree adopting pre-grown flat node arrays.

        Used by the level-synchronous builder
        (:mod:`repro.ml.tree_builder`), which grows whole ensembles at
        once and hands each tree its slice of the packed node arrays.
        ``params`` are forwarded to the constructor so the shell reports
        the hyper-parameters it was grown with.
        """
        tree = cls(**params)
        adopt_nodes(tree, feature, threshold, left, right, value, depths)
        return tree

    def fit(self, X: np.ndarray, y: np.ndarray) -> RegressionTree:
        """Grow the tree on observations ``(X, y)``.

        Raises:
            ValueError: on empty or mismatched inputs.
        """
        X, y = coerce_training_data(X, y)

        features: list[int] = []
        thresholds: list[float] = []
        lefts: list[int] = []
        rights: list[int] = []
        values: list[float] = []
        self._depths = []

        y_sq = y * y

        def grow(indices: np.ndarray, depth: int) -> int:
            node = len(features)
            node_y = y[indices]
            features.append(-1)
            thresholds.append(0.0)
            lefts.append(-1)
            rights.append(-1)
            values.append(float(node_y.mean()))
            self._depths.append(depth)

            if (
                indices.size < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or node_y.min() == node_y.max()
            ):
                return node

            split = self._best_random_split(X, y, y_sq, indices)
            if split is None:
                return node

            feature, threshold, left_mask = split
            left_child = grow(indices[left_mask], depth + 1)
            right_child = grow(indices[~left_mask], depth + 1)
            features[node] = feature
            thresholds[node] = threshold
            lefts[node] = left_child
            rights[node] = right_child
            return node

        grow(np.arange(X.shape[0]), 0)
        self._feature = np.array(features, dtype=np.int64)
        self._threshold = np.array(thresholds, dtype=float)
        self._left = np.array(lefts, dtype=np.int64)
        self._right = np.array(rights, dtype=np.int64)
        self._value = np.array(values, dtype=float)
        return self

    def _best_random_split(
        self, X: np.ndarray, y: np.ndarray, y_sq: np.ndarray, indices: np.ndarray
    ) -> tuple[int, float, np.ndarray] | None:
        """Pick the best of one random threshold per candidate feature.

        The winner minimises the children's summed squared error, computed
        from running sums (``sse = sum(y^2) - sum(y)^2 / n``) rather than
        per-partition variance calls.  Returns ``None`` when no candidate
        feature varies within the node.
        """
        n_features = X.shape[1]
        k = self.max_features if self.max_features is not None else n_features
        k = min(max(k, 1), n_features)
        candidates = self._rng.choice(n_features, size=k, replace=False)

        node_X = X[np.ix_(indices, candidates)]
        node_y = y[indices]
        node_y_sq = y_sq[indices]
        total_sum = float(node_y.sum())
        total_sq = float(node_y_sq.sum())
        n_total = indices.size

        lows = node_X.min(axis=0)
        highs = node_X.max(axis=0)
        varying = lows < highs
        if not varying.any():
            return None
        thresholds = lows + self._rng.uniform(size=k) * (highs - lows)

        masks = node_X <= thresholds  # (n_total, k)
        n_left = masks.sum(axis=0)
        valid = varying & (n_left > 0) & (n_left < n_total)
        if not valid.any():
            return None

        left_sum = node_y @ masks
        left_sq = node_y_sq @ masks
        n_right = n_total - n_left
        with np.errstate(divide="ignore", invalid="ignore"):
            sse = (
                left_sq
                - left_sum**2 / n_left
                + (total_sq - left_sq)
                - (total_sum - left_sum) ** 2 / n_right
            )
        sse = np.where(valid, sse, np.inf)
        pick = int(np.argmin(sse))
        return int(candidates[pick]), float(thresholds[pick]), masks[:, pick]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted values for each row of ``X`` (vectorised traversal).

        Raises:
            RuntimeError: if called before :meth:`fit`.
        """
        if self._feature is None:
            raise RuntimeError("tree must be fitted before predict")
        assert self._threshold is not None and self._value is not None
        assert self._left is not None and self._right is not None
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)

        node = np.zeros(X.shape[0], dtype=np.int64)
        active = self._feature[node] >= 0
        rows = np.arange(X.shape[0])
        while active.any():
            current = node[active]
            feats = self._feature[current]
            go_left = X[rows[active], feats] <= self._threshold[current]
            node[active] = np.where(go_left, self._left[current], self._right[current])
            active = self._feature[node] >= 0
        return self._value[node]

    def depth(self) -> int:
        """Depth of the fitted tree (a root-only tree has depth 0)."""
        if self._feature is None:
            raise RuntimeError("tree must be fitted before depth")
        return max(self._depths)
