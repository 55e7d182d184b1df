"""Packed-forest prediction and warm-start refit of the ensembles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.extra_trees import ExtraTreesRegressor
from repro.ml.random_forest import RandomForestRegressor
from repro.ml.tree import (
    PREDICT_CHUNK_ROWS,
    RegressionTree,
    pack_trees,
    predict_packed,
    predict_packed_many,
)
from repro.ml.tree_builder import build_extra_trees


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    X = rng.uniform(size=(120, 5))
    y = X @ np.array([3.0, -2.0, 0.0, 1.0, 0.5]) + 0.1 * rng.normal(size=120)
    return X, y


class TestPackTrees:
    def test_packed_matches_per_tree_predictions(self, data):
        X, y = data
        trees = [
            RegressionTree(min_samples_split=4, seed=seed).fit(X, y)
            for seed in range(5)
        ]
        packed = pack_trees(trees)
        assert packed.n_trees == 5
        assert packed.node_count == sum(t.node_count for t in trees)
        queries = np.random.default_rng(1).uniform(size=(40, 5))
        expected = np.stack([tree.predict(queries) for tree in trees])
        np.testing.assert_array_equal(predict_packed(packed, queries), expected)

    @pytest.mark.parametrize("chunk_rows", [1, 7, 40, 64, 4096])
    def test_chunked_predict_is_bit_identical(self, data, chunk_rows):
        """Row-chunked traversal must reproduce the monolithic pass
        exactly — rows traverse the packed arrays independently."""
        X, y = data
        trees = [
            RegressionTree(min_samples_split=4, seed=seed).fit(X, y)
            for seed in range(5)
        ]
        packed = pack_trees(trees)
        queries = np.random.default_rng(2).uniform(size=(129, 5))
        whole = predict_packed(packed, queries)
        chunked = predict_packed(packed, queries, chunk_rows=chunk_rows)
        np.testing.assert_array_equal(chunked, whole)

    def test_chunk_rows_validation(self, data):
        X, y = data
        packed = pack_trees([RegressionTree(seed=0).fit(X, y)])
        with pytest.raises(ValueError, match="chunk_rows"):
            predict_packed(packed, X, chunk_rows=0)

    def test_single_row_query(self, data):
        X, y = data
        tree = RegressionTree(seed=0).fit(X, y)
        packed = pack_trees([tree])
        row = X[3]
        predictions = predict_packed(packed, row)
        assert predictions.shape == (1, 1)
        np.testing.assert_array_equal(predictions[0], tree.predict(row))

    def test_cart_trees_pack_too(self, data):
        """CARTRegressionTree shares the flat node layout, so the random
        forest benefits from the same packed predict."""
        X, y = data
        forest = RandomForestRegressor(n_estimators=4, seed=0).fit(X, y)
        packed = pack_trees(list(forest.trees))
        queries = np.random.default_rng(2).uniform(size=(10, 5))
        expected = np.stack([tree.predict(queries) for tree in forest.trees])
        np.testing.assert_array_equal(predict_packed(packed, queries), expected)

    def test_rejects_empty_and_unfitted(self, data):
        X, y = data
        with pytest.raises(ValueError, match="empty"):
            pack_trees([])
        with pytest.raises(ValueError, match="fitted"):
            pack_trees([RegressionTree(seed=0), RegressionTree(seed=1).fit(X, y)])


class TestEnsemblePackedPredict:
    def test_extra_trees_predict_uses_packed_path(self, data):
        X, y = data
        model = ExtraTreesRegressor(n_estimators=6, seed=3).fit(X, y)
        queries = np.random.default_rng(3).uniform(size=(25, 5))
        expected = np.stack([tree.predict(queries) for tree in model.trees])
        np.testing.assert_array_equal(model.predict(queries), expected.mean(axis=0))
        mean, std = model.predict(queries, return_std=True)
        np.testing.assert_array_equal(std, expected.std(axis=0))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="fitted"):
            ExtraTreesRegressor(n_estimators=2, seed=0).predict(np.zeros((1, 3)))


class TestWarmStartRefit:
    def test_validation(self):
        with pytest.raises(ValueError, match="refit_fraction"):
            ExtraTreesRegressor(refit_fraction=0.0)
        with pytest.raises(ValueError, match="refit_fraction"):
            ExtraTreesRegressor(refit_fraction=1.0001)

    def test_partial_refit_keeps_unchosen_trees(self, data):
        X, y = data
        model = ExtraTreesRegressor(n_estimators=8, seed=0, refit_fraction=0.25)
        model.fit(X, y)
        before = model.trees
        model.fit(X, y)
        after = model.trees
        kept = sum(1 for old, new in zip(before, after) if old is new)
        regrown = len(after) - kept
        # ceil(0.25 * 8) = 2 trees regrown, 6 kept by identity.
        assert regrown == 2
        assert kept == 6

    def test_full_refit_regrows_everything(self, data):
        X, y = data
        model = ExtraTreesRegressor(n_estimators=4, seed=0)
        model.fit(X, y)
        before = model.trees
        model.fit(X, y)
        assert all(old is not new for old, new in zip(before, model.trees))

    def test_partial_refit_predictions_stay_packed_consistent(self, data):
        """After a warm-start refit, the packed predictor must reflect
        the mixed ensemble (kept + regrown trees)."""
        X, y = data
        model = ExtraTreesRegressor(n_estimators=6, seed=1, refit_fraction=0.5)
        model.fit(X, y)
        model.fit(X, y)
        queries = np.random.default_rng(4).uniform(size=(15, 5))
        expected = np.stack([tree.predict(queries) for tree in model.trees])
        np.testing.assert_array_equal(model.predict(queries), expected.mean(axis=0))

    def test_default_refit_is_stream_compatible(self, data):
        """refit_fraction=1.0 consumes the RNG exactly like the classic
        implementation: two same-seed ensembles stay identical across
        repeated fits."""
        X, y = data
        a = ExtraTreesRegressor(n_estimators=3, seed=7)
        b = ExtraTreesRegressor(n_estimators=3, seed=7, refit_fraction=1.0)
        queries = np.random.default_rng(5).uniform(size=(10, 5))
        for _ in range(3):
            a.fit(X, y)
            b.fit(X, y)
            np.testing.assert_array_equal(a.predict(queries), b.predict(queries))

    @pytest.mark.parametrize("builder", ["vectorized", "classic"])
    def test_partial_refit_with_either_builder(self, data, builder):
        """Warm-start refit keeps unchosen trees and stays packed-
        consistent regardless of the tree builder."""
        X, y = data
        model = ExtraTreesRegressor(
            n_estimators=8, seed=0, refit_fraction=0.25, tree_builder=builder
        )
        model.fit(X, y)
        before = model.trees
        model.fit(X, y)
        after = model.trees
        kept = sum(1 for old, new in zip(before, after) if old is new)
        assert kept == 6 and len(after) - kept == 2
        queries = np.random.default_rng(6).uniform(size=(20, 5))
        expected = np.stack([tree.predict(queries) for tree in after])
        np.testing.assert_array_equal(model.predict(queries), expected.mean(axis=0))

    def test_partial_refit_actually_tracks_new_data(self, data):
        """A vectorized warm refit on shifted targets moves predictions
        toward the new data (the regrown subset really retrains)."""
        X, y = data
        model = ExtraTreesRegressor(n_estimators=8, seed=2, refit_fraction=0.5)
        model.fit(X, y)
        before = model.predict(X)
        model.fit(X, y + 10.0)
        after = model.predict(X)
        assert np.all(after > before)


class TestPackedDegenerate:
    """predict_packed on deep and degenerate tree shapes."""

    @pytest.mark.parametrize("builder", ["vectorized", "classic"])
    def test_constant_y_collapses_to_root_leaves(self, builder):
        X = np.random.default_rng(0).uniform(size=(30, 4))
        y = np.full(30, 2.5)
        model = ExtraTreesRegressor(n_estimators=3, seed=0, tree_builder=builder)
        model.fit(X, y)
        assert all(tree.node_count == 1 for tree in model.trees)
        np.testing.assert_array_equal(model.predict(X), np.full(30, 2.5))

    @pytest.mark.parametrize("builder", ["vectorized", "classic"])
    def test_max_depth_one_stumps(self, data, builder):
        X, y = data
        model = ExtraTreesRegressor(
            n_estimators=4, max_depth=1, seed=1, tree_builder=builder
        )
        model.fit(X, y)
        assert all(tree.depth() == 1 for tree in model.trees)
        assert all(tree.node_count == 3 for tree in model.trees)
        queries = np.random.default_rng(7).uniform(size=(12, 5))
        expected = np.stack([tree.predict(queries) for tree in model.trees])
        np.testing.assert_array_equal(model.predict(queries), expected.mean(axis=0))

    @pytest.mark.parametrize("builder", ["vectorized", "classic"])
    def test_single_sample_leaves_deep_tree(self, builder):
        """Distinct targets and min_samples_split=2 grow every leaf down
        to one sample; packed traversal must agree with per-tree."""
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(40, 3))
        y = np.arange(40.0)  # all-distinct: forces full purity
        model = ExtraTreesRegressor(
            n_estimators=3, min_samples_split=2, seed=4, tree_builder=builder
        )
        model.fit(X, y)
        # Full purity: every training row predicts its own target.
        np.testing.assert_allclose(model.predict(X), y)
        queries = rng.uniform(size=(25, 3))
        expected = np.stack([tree.predict(queries) for tree in model.trees])
        np.testing.assert_array_equal(model.predict(queries), expected.mean(axis=0))

    @pytest.mark.parametrize("builder", ["vectorized", "classic"])
    def test_two_row_fit(self, builder):
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, 3.0])
        model = ExtraTreesRegressor(n_estimators=2, seed=5, tree_builder=builder)
        model.fit(X, y)
        np.testing.assert_allclose(model.predict(X), y)


def _single_leaf(value: float) -> RegressionTree:
    """A fitted tree that is one leaf: every row predicts ``value``."""
    return RegressionTree.from_arrays(
        np.array([-1]), np.array([0.0]), np.array([-1]), np.array([-1]),
        np.array([value]), np.array([0]),
    )


def _caterpillar(depth: int, width: int) -> RegressionTree:
    """A maximally unbalanced tree: every split peels one leaf off left.

    Node ``2k`` splits on feature ``k % width`` at ``k / depth``; its
    left child ``2k + 1`` is a leaf and its right child continues the
    spine, so rows reach leaves anywhere from depth 1 to ``depth``.
    """
    n = 2 * depth + 1
    feature = np.full(n, -1)
    threshold = np.zeros(n)
    left = np.full(n, -1)
    right = np.full(n, -1)
    depths = np.zeros(n, dtype=np.int64)
    for k in range(depth):
        node = 2 * k
        feature[node] = k % width
        threshold[node] = k / depth
        left[node] = node + 1
        right[node] = node + 2
        depths[node + 1] = depths[node + 2] = k + 1
    return RegressionTree.from_arrays(
        feature, threshold, left, right, np.arange(n, dtype=float), depths
    )


class TestFlatGatherTraversal:
    """The flat-gather walk against per-tree ``RegressionTree.predict``."""

    @pytest.fixture()
    def mixed_forest(self, data):
        X, y = data
        return [
            _single_leaf(-3.5),
            _caterpillar(depth=60, width=5),
            RegressionTree(min_samples_split=2, seed=0).fit(X, y),
            _single_leaf(7.25),
            _caterpillar(depth=9, width=3),
        ]

    @pytest.fixture()
    def queries(self):
        rng = np.random.default_rng(11)
        rows = rng.uniform(-0.1, 1.1, size=(97, 5))
        # Rows sitting exactly on caterpillar thresholds exercise the
        # ``<=`` tie rule; a NaN never satisfies ``<=`` and goes right.
        rows[0, :] = [k / 60 for k in range(5)]
        rows[1, :] = 1.0 / 3.0
        rows[2, 3] = np.nan
        return rows

    def test_child_table_is_right_then_left(self, mixed_forest):
        packed = pack_trees(mixed_forest)
        np.testing.assert_array_equal(packed.child[0::2], packed.right)
        np.testing.assert_array_equal(packed.child[1::2], packed.left)

    def test_single_leaf_trees_only(self, queries):
        trees = [_single_leaf(1.0), _single_leaf(-2.0)]
        expected = np.stack([tree.predict(queries) for tree in trees])
        np.testing.assert_array_equal(predict_packed(pack_trees(trees), queries), expected)

    def test_mixed_degenerate_and_deep_trees(self, mixed_forest, queries):
        expected = np.stack([tree.predict(queries) for tree in mixed_forest])
        got = predict_packed(pack_trees(mixed_forest), queries)
        np.testing.assert_array_equal(got, expected)
        # Leaves of the deep spine are reached at many different depths.
        assert np.unique(got[1]).size > 20

    @pytest.mark.parametrize("chunk_rows", [1, 13, 96, 97])
    def test_across_chunk_boundaries(self, mixed_forest, queries, chunk_rows):
        expected = np.stack([tree.predict(queries) for tree in mixed_forest])
        got = predict_packed(pack_trees(mixed_forest), queries, chunk_rows=chunk_rows)
        np.testing.assert_array_equal(got, expected)

    def test_across_the_default_chunk_boundary(self, mixed_forest):
        queries = np.random.default_rng(5).uniform(size=(PREDICT_CHUNK_ROWS + 3, 5))
        expected = np.stack([tree.predict(queries) for tree in mixed_forest])
        np.testing.assert_array_equal(
            predict_packed(pack_trees(mixed_forest), queries), expected
        )

    def test_column_strided_queries(self, mixed_forest, queries):
        """A non-contiguous query view is read by value, not by layout."""
        wide = np.repeat(queries, 2, axis=1)[:, ::2]
        assert not wide.flags.c_contiguous
        expected = np.stack([tree.predict(queries) for tree in mixed_forest])
        np.testing.assert_array_equal(predict_packed(pack_trees(mixed_forest), wide), expected)

    def test_many_walks_the_same_leaves(self, mixed_forest, queries):
        """predict_packed_many shares the kernel across ragged widths."""
        narrow = [_caterpillar(depth=7, width=2), _single_leaf(0.5)]
        packeds = [pack_trees(mixed_forest), pack_trees(narrow), pack_trees(mixed_forest[:1])]
        Xs = [queries, queries[:10, :2], queries[:1]]
        results = predict_packed_many(packeds, Xs)
        for trees, X, got in zip([mixed_forest, narrow, mixed_forest[:1]], Xs, results):
            expected = np.stack([tree.predict(X) for tree in trees])
            np.testing.assert_array_equal(got, expected)


class TestLazyFullFit:
    """A full refit adopts the builder's forest; shells come on demand."""

    @staticmethod
    def _eager_shells(X, y, n_trees, rng, **params):
        """What a full fit used to store: one shell per built tree."""
        built = build_extra_trees(X, y, n_trees, rng=rng, **params)
        return [
            RegressionTree.from_arrays(*built.tree_arrays(i), **params)
            for i in range(n_trees)
        ]

    def test_shells_are_built_only_when_read(self, data):
        X, y = data
        model = ExtraTreesRegressor(n_estimators=6, seed=3).fit(X, y)
        assert model._trees == [] and model._built is not None
        model.predict(X[:4])
        assert model._trees == []
        assert len(model.trees) == 6
        assert model._built is None

    def test_materialised_shells_match_eager_ones(self, data):
        X, y = data
        params = dict(max_features=3, min_samples_split=4, max_depth=6)
        model = ExtraTreesRegressor(n_estimators=5, seed=8, **params).fit(X, y)
        eager = self._eager_shells(X, y, 5, np.random.default_rng(8), **params)
        for lazy, old in zip(model.trees, eager):
            for name in ("_feature", "_threshold", "_left", "_right", "_value"):
                np.testing.assert_array_equal(getattr(lazy, name), getattr(old, name))
            assert lazy._depths == old._depths
            assert (lazy.max_features, lazy.min_samples_split, lazy.max_depth) == (
                3, 4, 6,
            )

    @pytest.mark.parametrize("read_trees_first", [False, True])
    def test_warm_refit_after_lazy_fit_is_bit_identical(self, data, read_trees_first):
        """Replays the eager algorithm with a twin generator as oracle."""
        X, y = data
        X2, y2 = X[:90], y[:90] + 1.0
        model = ExtraTreesRegressor(n_estimators=8, seed=4, refit_fraction=0.5)
        model.fit(X, y)
        if read_trees_first:
            model.trees
        model.fit(X2, y2)

        rng = np.random.default_rng(4)
        trees = self._eager_shells(X, y, 8, rng)
        chosen = np.sort(rng.choice(8, size=4, replace=False))
        for slot, tree in zip(chosen, self._eager_shells(X2, y2, 4, rng)):
            trees[int(slot)] = tree
        queries = np.random.default_rng(6).uniform(size=(33, 5))
        expected = predict_packed(pack_trees(trees), queries)
        np.testing.assert_array_equal(model._tree_predictions(queries), expected)
