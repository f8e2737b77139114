"""Forest checks: degenerate targets, perfect separability, importance
attribution, ensemble averaging, determinism, equality with the
one-tree-at-a-time reference builder in forest_reference.py, and
prediction and model loading under any parent-before-child node order."""

import pathlib
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forest_reference import reference_fit_forest, reference_predict_forest
from mvelma import forest as rf
from mvelma import numcore as nc
from mvelma import pipeline
from mvelma.errors import DegenerateInput, DimensionMismatch, NonFiniteInput

SEED = 31415


class TestFit:
    def test_constant_targets_single_leaf_trees(self):
        rng = np.random.default_rng(SEED)
        x = rng.standard_normal((40, 5))
        y = np.full(40, 2.5)
        f = rf.fit_forest(x, y, rf.ForestConfig(n_trees=20, seed=1))
        for tree in f.trees:
            assert tree.feature.size == 1 and tree.feature[0] == -1
            assert tree.value[0] == 2.5
        assert np.all(f.importances == 0.0)
        assert np.all(rf.predict_forest(f, x) == 2.5)

    def test_step_function_zero_training_mse(self):
        rng = np.random.default_rng(SEED + 1)
        x = rng.uniform(-1, 1, size=(100, 1))
        y = (x[:, 0] > 0).astype(float)
        f = rf.fit_forest(
            x, y,
            rf.ForestConfig(n_trees=1, bootstrap=False, features_per_split=1,
                            min_samples_leaf=1, seed=0),
        )
        pred = rf.predict_forest(f, x)
        assert np.mean((pred - y) ** 2) == 0.0

    def test_informative_feature_dominates(self):
        rng = np.random.default_rng(SEED + 2)
        n = 500
        x = rng.standard_normal((n, 2))
        y = x[:, 0] + 0.1 * rng.standard_normal(n)
        f = rf.fit_forest(x, y, rf.ForestConfig(n_trees=30, features_per_split=2, seed=3))
        assert f.importances[0] > 0.8
        assert abs(f.importances.sum() - 1.0) < 1e-10

    def test_two_informative_two_noise(self):
        rng = np.random.default_rng(SEED + 3)
        n = 400
        x = rng.standard_normal((n, 4))
        y = 2.0 * x[:, 0] + x[:, 1] + 0.05 * rng.standard_normal(n)
        f = rf.fit_forest(x, y, rf.ForestConfig(n_trees=30, features_per_split=4, seed=4))
        assert f.importances[0] + f.importances[1] > 0.9

    def test_needs_two_samples(self):
        with pytest.raises(DegenerateInput):
            rf.fit_forest(np.zeros((1, 2)), np.zeros(1))

    def test_rejects_nonfinite(self):
        x = np.zeros((5, 2))
        x[3, 1] = np.inf
        with pytest.raises(NonFiniteInput):
            rf.fit_forest(x, np.zeros(5))

    def test_features_per_split_default_third(self):
        rng = np.random.default_rng(SEED + 4)
        x = rng.standard_normal((30, 9))
        y = rng.standard_normal(30)
        f = rf.fit_forest(x, y, rf.ForestConfig(n_trees=2, seed=0))
        assert f.n_features == 9  # smoke: default ceil(9/3)=3 used internally

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(SEED + 5)
        x = rng.standard_normal((60, 3))
        y = rng.standard_normal(60)
        f = rf.fit_forest(
            x, y, rf.ForestConfig(n_trees=5, bootstrap=False, min_samples_leaf=7, seed=2)
        )
        for tree in f.trees:
            counts = _leaf_counts(tree, x)
            assert min(counts) >= 7

    def test_bit_identical_from_same_seed(self):
        rng = np.random.default_rng(SEED + 6)
        x = rng.standard_normal((80, 6))
        y = rng.standard_normal(80)
        cfg = rf.ForestConfig(n_trees=8, seed=99)
        f1 = rf.fit_forest(x, y, cfg)
        f2 = rf.fit_forest(x, y, cfg)
        assert np.array_equal(f1.importances, f2.importances)
        for t1, t2 in zip(f1.trees, f2.trees):
            assert np.array_equal(t1.feature, t2.feature)
            assert np.array_equal(t1.threshold, t2.threshold)
            assert np.array_equal(t1.value, t2.value)

    def test_mse_nonincreasing_in_depth(self):
        rng = np.random.default_rng(SEED + 7)
        x = rng.standard_normal((150, 4))
        y = np.sin(x[:, 0]) + x[:, 1] ** 2 + 0.1 * rng.standard_normal(150)
        prev = np.inf
        for depth in (1, 2, 4, 8, 16):
            f = rf.fit_forest(
                x, y,
                rf.ForestConfig(n_trees=1, bootstrap=False, features_per_split=4,
                                max_depth=depth, seed=5),
            )
            mse = float(np.mean((rf.predict_forest(f, x) - y) ** 2))
            assert mse <= prev + 1e-12
            prev = mse

    def test_no_spurious_skill_on_noise(self):
        rng = np.random.default_rng(SEED + 8)
        x_train = rng.standard_normal((500, 10))
        y_train = rng.standard_normal(500)
        x_test = rng.standard_normal((300, 10))
        y_test = rng.standard_normal(300)
        f = rf.fit_forest(x_train, y_train, rf.ForestConfig(n_trees=40, seed=6))
        pred = rf.predict_forest(f, x_test)
        r2 = 1.0 - np.sum((pred - y_test) ** 2) / np.sum((y_test - y_test.mean()) ** 2)
        assert -0.2 < r2 < 0.2

    def test_predictions_bounded_by_training_range(self):
        rng = np.random.default_rng(SEED + 9)
        x = rng.standard_normal((200, 4))
        y = 3.0 * x[:, 0] + rng.standard_normal(200)
        f = rf.fit_forest(x, y, rf.ForestConfig(n_trees=15, seed=7))
        pred = rf.predict_forest(f, rng.standard_normal((100, 4)) * 100.0)
        assert np.all(pred >= y.min() - 1e-12)
        assert np.all(pred <= y.max() + 1e-12)

    def test_tie_break_lowest_feature(self):
        # duplicate feature columns: identical gains, split must pick column 0
        rng = np.random.default_rng(SEED + 10)
        col = rng.standard_normal(50)
        x = np.column_stack([col, col])
        y = col * 2.0
        f = rf.fit_forest(
            x, y,
            rf.ForestConfig(n_trees=1, bootstrap=False, features_per_split=2,
                            max_depth=1, seed=0),
        )
        assert f.trees[0].feature[0] == 0


def _leaf_counts(tree, x):
    nodes = np.zeros(x.shape[0], dtype=np.int64)
    while True:
        feats = tree.feature[nodes]
        active = np.flatnonzero(feats >= 0)
        if active.size == 0:
            break
        cur = nodes[active]
        go_left = x[active, tree.feature[cur]] <= tree.threshold[cur]
        nodes[active] = np.where(go_left, tree.left[cur], tree.right[cur])
    return np.bincount(nodes, minlength=tree.feature.size)[tree.feature == -1]


class TestPredict:
    def test_single_leaf_forest(self):
        tree = rf.RegressionTree(
            feature=np.array([-1]), threshold=np.array([0.0]),
            left=np.array([-1]), right=np.array([-1]), value=np.array([0.3]),
        )
        f = rf.Forest(trees=[tree], importances=np.zeros(2), n_features=2)
        assert np.all(rf.predict_forest(f, np.zeros((5, 2))) == 0.3)

    def test_duplicated_trees_leave_mean_unchanged(self):
        rng = np.random.default_rng(SEED + 11)
        x = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        f = rf.fit_forest(x, y, rf.ForestConfig(n_trees=4, seed=8))
        doubled = rf.Forest(
            trees=f.trees + f.trees, importances=f.importances, n_features=3
        )
        assert np.allclose(rf.predict_forest(doubled, x), rf.predict_forest(f, x), atol=1e-15)

    def test_two_tree_mean(self):
        t1 = rf.RegressionTree(
            feature=np.array([-1]), threshold=np.array([0.0]),
            left=np.array([-1]), right=np.array([-1]), value=np.array([0.1]),
        )
        t2 = rf.RegressionTree(
            feature=np.array([-1]), threshold=np.array([0.0]),
            left=np.array([-1]), right=np.array([-1]), value=np.array([0.3]),
        )
        f = rf.Forest(trees=[t1, t2], importances=np.zeros(1), n_features=1)
        assert abs(rf.predict_forest(f, np.zeros((1, 1)))[0] - 0.2) < 1e-15

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(SEED + 12)
        x = rng.standard_normal((20, 3))
        f = rf.fit_forest(x, rng.standard_normal(20), rf.ForestConfig(n_trees=2, seed=0))
        with pytest.raises(DimensionMismatch):
            rf.predict_forest(f, np.zeros((4, 5)))


class TestImportance:
    def test_single_split_one_hot(self):
        x = np.column_stack([np.array([0.0, 0, 0, 1, 1, 1]), np.zeros(6)])
        y = np.array([0.0, 0, 0, 1, 1, 1])
        f = rf.fit_forest(
            x, y,
            rf.ForestConfig(n_trees=1, bootstrap=False, features_per_split=2,
                            min_samples_leaf=1, seed=0),
        )
        assert np.allclose(f.importances, [1.0, 0.0], atol=1e-15)


def assert_same_forest(got, want):
    """Array for array and bit for bit, importances included."""
    assert got.n_features == want.n_features
    assert got.importances.tobytes() == want.importances.tobytes()
    assert len(got.trees) == len(want.trees)
    for t1, t2 in zip(got.trees, want.trees):
        for name in ("feature", "threshold", "left", "right", "value"):
            a, b = getattr(t1, name), getattr(t2, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@st.composite
def forest_problems(draw):
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        x = rng.integers(0, draw(st.integers(1, 4)), size=(n, d)).astype(float)  # many ties
    else:
        x = rng.standard_normal((n, d))
    target = draw(st.sampled_from(["constant", "integer", "normal"]))
    if target == "constant":
        y = np.full(n, 0.7)
    elif target == "integer":
        y = rng.integers(0, 3, size=n).astype(float)
    else:
        y = rng.standard_normal(n)
    cfg = rf.ForestConfig(
        n_trees=draw(st.integers(1, 20)),
        max_depth=draw(st.sampled_from([None, 0, 3])),
        min_samples_leaf=draw(st.integers(1, 10)),
        features_per_split=draw(st.integers(1, d)),
        bootstrap=draw(st.booleans()),
        seed=seed,
    )
    return x, y, cfg


class TestLockstepEqualsReference:
    @settings(max_examples=80, deadline=None)
    @given(forest_problems())
    def test_fit_matches_tree_by_tree_builder(self, problem):
        x, y, cfg = problem
        assert_same_forest(rf.fit_forest(x, y, cfg), reference_fit_forest(x, y, cfg))

    def test_one_node_chunks_match(self, monkeypatch):
        # a cell budget below one node's cells searches every node alone
        monkeypatch.setattr(rf, "_BATCH_CELLS", 1)
        rng = np.random.default_rng(SEED + 20)
        x = rng.integers(0, 5, size=(70, 4)).astype(float)
        y = x[:, 0] + rng.standard_normal(70)
        cfg = rf.ForestConfig(n_trees=6, min_samples_leaf=1, seed=3)
        assert_same_forest(rf.fit_forest(x, y, cfg), reference_fit_forest(x, y, cfg))

    def test_cli_default_shape_matches(self):
        rng = np.random.default_rng(SEED + 21)
        x = rng.standard_normal((400, 48))
        y = np.tanh(x[:, 0]) + 0.5 * x[:, 47] + 0.1 * rng.standard_normal(400)
        cfg = rf.ForestConfig(n_trees=12, seed=5)
        assert_same_forest(rf.fit_forest(x, y, cfg), reference_fit_forest(x, y, cfg))


def _fit_on(x, y, cfg, cpus):
    """fit_forest as on a machine of ``cpus`` CPUs, checking that it grows
    one range of trees per CPU, no more ranges than trees."""
    parts = []
    run_parts = nc.run_parts

    def counted(run, k):
        parts.append(k)
        return run_parts(run, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nc, "cpu_count", lambda: cpus)
        mp.setattr(nc, "run_parts", counted)
        f = rf.fit_forest(x, y, cfg)
    assert parts == [min(cpus, cfg.n_trees)]
    return f


class TestWorkers:
    """fit_forest grows one contiguous range of trees per CPU, each on its
    own thread, and every array comes out the same bits for any count."""

    @pytest.mark.determinism
    @settings(max_examples=40, deadline=None)
    @given(forest_problems())
    def test_same_forest_for_any_worker_count(self, problem):
        x, y, cfg = problem
        query = np.vstack([x, 2.0 * np.random.default_rng(cfg.seed).standard_normal(x.shape)])
        one = _fit_on(x, y, cfg, 1)
        for cpus in (2, 3, cfg.n_trees + 2):
            f = _fit_on(x, y, cfg, cpus)
            assert_same_forest(f, one)
            assert rf.predict_forest(f, query).tobytes() == rf.predict_forest(one, query).tobytes()

    def test_more_workers_than_cores_under_frequent_thread_switches(self):
        rng = np.random.default_rng(SEED + 24)
        x = rng.integers(0, 6, size=(150, 6)).astype(float)
        y = x[:, 0] - x[:, 3] + rng.standard_normal(150)
        cfg = rf.ForestConfig(n_trees=24, min_samples_leaf=1, seed=7)
        one = _fit_on(x, y, cfg, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = _fit_on(x, y, cfg, 12)
        finally:
            sys.setswitchinterval(interval)
        assert_same_forest(many, one)

    def test_two_workers_share_the_cell_budget(self):
        # the cli-default forest: the workers split _BATCH_CELLS between them,
        # so the split search's working set keeps its one-thread bound
        rng = np.random.default_rng(SEED + 23)
        x = rng.standard_normal((400, 48))
        y = np.tanh(x[:, 0]) + 0.5 * x[:, 47] + 0.1 * rng.standard_normal(400)
        cfg = rf.ForestConfig(n_trees=500, seed=5)
        peaks = []
        for cpus in (1, 2):
            tracemalloc.start()
            try:
                _fit_on(x, y, cfg, cpus)
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 1.0, peaks


class TestPredictAllTrees:
    @pytest.mark.parametrize("cells", [1, 64, rf._BATCH_CELLS])
    def test_equals_per_tree_loop(self, monkeypatch, cells):
        rng = np.random.default_rng(SEED + 22)
        x = rng.standard_normal((120, 5))
        y = np.sin(x[:, 0]) + x[:, 1] ** 2
        f = rf.fit_forest(x, y, rf.ForestConfig(n_trees=25, min_samples_leaf=1, seed=9))
        query = np.vstack([rng.standard_normal((90, 5)) * 3.0, x[:10]])
        monkeypatch.setattr(rf, "_BATCH_CELLS", cells)  # row chunks of 1, 2 and all
        got = rf.predict_forest(f, query)
        assert got.tobytes() == reference_predict_forest(f, query).tobytes()

    def test_trees_of_different_depths(self):
        stump = rf.RegressionTree(
            feature=np.array([-1]), threshold=np.array([0.0]),
            left=np.array([-1]), right=np.array([-1]), value=np.array([0.25]),
        )
        rng = np.random.default_rng(SEED + 23)
        x = rng.standard_normal((60, 2))
        deep = rf.fit_forest(x, x[:, 0], rf.ForestConfig(n_trees=2, min_samples_leaf=1, seed=1))
        f = rf.Forest(trees=[deep.trees[0], stump, deep.trees[1]],
                      importances=np.zeros(2), n_features=2)
        assert rf.predict_forest(f, x).tobytes() == reference_predict_forest(f, x).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_rows(self, bad):
        rng = np.random.default_rng(SEED + 24)
        x = rng.standard_normal((20, 3))
        f = rf.fit_forest(x, x[:, 0], rf.ForestConfig(n_trees=3, seed=0))
        query = np.zeros((4, 3))
        query[2, 1] = bad
        with pytest.raises(NonFiniteInput):
            rf.predict_forest(f, query)


def _renumbered(tree, rng):
    """The tree with its nodes renumbered in a random order that puts every
    parent before its children: the root, then at each step any node whose
    parent is already numbered."""
    order, ready = [], [0]
    while ready:
        node = ready.pop(int(rng.integers(len(ready))))
        order.append(node)
        if tree.feature[node] >= 0:
            ready += [int(tree.left[node]), int(tree.right[node])]
    order = np.array(order)
    new_id = np.empty_like(order)
    new_id[order] = np.arange(order.size)
    leaf = tree.feature[order] < 0
    return rf.RegressionTree(
        feature=tree.feature[order], threshold=tree.threshold[order],
        left=np.where(leaf, -1, new_id[tree.left[order]]),
        right=np.where(leaf, -1, new_id[tree.right[order]]),
        value=tree.value[order],
    )


# trees numbered depth first, as every model file written before the forest
# grew level by level numbers them
MODEL_FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "model_v1" / "model.json"


class TestNodeNumbering:
    """Walking and loading a tree depend on its links, not on its numbering."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_any_parent_first_order_predicts_and_loads_the_same(self, seed):
        rng = np.random.default_rng(seed)
        model = pipeline.load_model(MODEL_FIXTURE)
        x = rng.standard_normal((40, 4))
        forests = [
            model.forest,
            rf.fit_forest(x, x[:, 0] + x[:, 1] ** 2,
                          rf.ForestConfig(n_trees=5, min_samples_leaf=1, seed=seed)),
        ]
        for f in forests:
            renumbered = rf.Forest(trees=[_renumbered(t, rng) for t in f.trees],
                                   importances=f.importances, n_features=f.n_features)
            query = rng.standard_normal((60, f.n_features)) * 2.0
            assert rf.predict_forest(renumbered, query).tobytes() == \
                rf.predict_forest(f, query).tobytes()

        model.forest.trees = [_renumbered(t, rng) for t in model.forest.trees]
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "model.json"
            pipeline.save_model(model, path)
            loaded = pipeline.load_model(path)
        assert_same_forest(loaded.forest, model.forest)
