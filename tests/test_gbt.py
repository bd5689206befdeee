import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgtriage.errors import EmptyMatrix, SingleClass, WidthMismatch
from ecgtriage.gbt import (
    Booster,
    Ensemble,
    TrainConfig,
    fit,
    importance_gain,
)
from ecgtriage.pipeline import rebalance

from oracles import PerFeatureScanBooster, first_tree_bruteforce


def tree_shape(node):
    """Convert a trained node into the oracle's nested-tuple shape."""
    if node.is_leaf:
        return ("leaf", node.weight)
    return ("split", node.feature, node.threshold, node.gain,
            tree_shape(node.left), tree_shape(node.right))


def shapes_equal(a, b, tol=1e-9):
    if a[0] != b[0]:
        return False
    if a[0] == "leaf":
        return math.isclose(a[1], b[1], rel_tol=tol, abs_tol=tol)
    return (a[1] == b[1]
            and math.isclose(a[2], b[2], rel_tol=tol, abs_tol=tol)
            and math.isclose(a[3], b[3], rel_tol=tol, abs_tol=tol)
            and shapes_equal(a[4], b[4], tol) and shapes_equal(a[5], b[5], tol))


def config(**kw):
    defaults = dict(learning_rate=0.3, num_rounds=1, max_depth=6,
                    min_child_hessian=0.0, l2_reg=1.0, gamma=0.0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestFit:
    def test_separable_step(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        model = fit(X, y, config(min_child_hessian=0.0))
        root = model.trees[0].root
        assert not root.is_leaf
        assert root.feature == 0
        assert -1.0 < root.threshold < 1.0
        assert root.left.is_leaf and root.right.is_leaf
        preds = model.predict(X)
        np.testing.assert_array_equal((preds > 0.5).astype(int), y)

    def test_huge_l2_collapses_to_base_rate(self, rng):
        X = rng.normal(size=(40, 3))
        y = (X[:, 0] > 0).astype(int)
        model = fit(X, y, config(num_rounds=5, l2_reg=1e12))
        base = 1.0 / (1.0 + math.exp(-model.base_score))
        np.testing.assert_allclose(model.predict(X), base, atol=1e-9)

    def test_first_tree_matches_bruteforce(self, rng):
        for _ in range(6):
            X = rng.normal(size=(200, 5))
            logits = X[:, 1] - 0.8 * X[:, 3] + 0.3 * rng.normal(size=200)
            # balanced labels keep tied gains exact on both sides (see the
            # acceptance suite for the rounding argument)
            y = np.zeros(200, dtype=int)
            y[np.argsort(logits)[100:]] = 1
            cfg = config(max_depth=3, min_child_hessian=1.0)
            model = fit(X, y, cfg)
            oracle = first_tree_bruteforce(
                X, y, cfg.max_depth, cfg.l2_reg, cfg.gamma,
                cfg.min_child_hessian, model.base_score)
            assert shapes_equal(tree_shape(model.trees[0].root), oracle)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            fit(np.zeros((4, 2)), np.zeros(4), config())

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyMatrix):
            fit(np.zeros((0, 2)), np.zeros(0), config())

    def test_gain_formula_on_toy_node(self):
        # single feature, 6 rows; evaluate the documented gain expression by hand
        X = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]])
        y = np.array([0, 0, 1, 0, 1, 1])
        lam = 1.3
        cfg = config(max_depth=1, l2_reg=lam, min_child_hessian=0.0)
        model = fit(X, y, cfg)
        root = model.trees[0].root
        p = 0.5  # prevalence 3/6 -> base score 0, p = 1/2
        g = p - y
        h = np.full(6, p * (1 - p))
        split = int(root.threshold)  # thresholds are midpoints k + 0.5
        gl, hl = g[:split].sum(), h[:split].sum()
        gr, hr = g[split:].sum(), h[split:].sum()
        expected = 0.5 * (gl ** 2 / (hl + lam) + gr ** 2 / (hr + lam)
                          - (gl + gr) ** 2 / (hl + hr + lam))
        assert root.gain == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_monotone_transform_keeps_structure_and_predictions(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] + 0.5 * rng.normal(size=60) > 0).astype(int)
        cfg = config(num_rounds=3, max_depth=3)
        base = fit(X, y, cfg)
        Xt = X.copy()
        Xt[:, 0] = np.exp(X[:, 0])  # strictly increasing transform of one column
        trans = fit(Xt, y, cfg)

        def structure(node):
            if node.is_leaf:
                return ("leaf", round(node.weight, 10))
            return ("split", node.feature, round(node.gain, 9),
                    structure(node.left), structure(node.right))

        for ta, tb in zip(base.trees, trans.trees):
            assert structure(ta.root) == structure(tb.root)
        np.testing.assert_allclose(base.predict(X), trans.predict(Xt), rtol=1e-9)

    def test_training_loss_non_increasing(self, rng):
        X = rng.normal(size=(80, 4))
        y = (X[:, 0] + rng.normal(size=80) > 0).astype(int)
        booster = Booster(X, y, config(learning_rate=0.3, num_rounds=30, gamma=0.0))

        def train_loss():
            m = booster.ensemble.margins(X)
            return np.mean(np.logaddexp(0, m) - y * m)

        losses = [train_loss()]
        for _ in range(30):
            booster.step()
            losses.append(train_loss())
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_deterministic_fit(self, rng):
        X = rng.normal(size=(50, 4))
        y = (X[:, 1] > 0).astype(int)
        a = fit(X, y, config(num_rounds=4))
        b = fit(X, y, config(num_rounds=4))
        assert repr(a) == repr(b)


class TestSplitSearch:
    """The one-pass node search against the per-feature reference scan."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           n=st.integers(4, 40),
           width=st.integers(1, 4),
           min_child_hessian=st.sampled_from([0.0, 1.0]),
           l2_reg=st.sampled_from([0.0, 1.0]),
           max_depth=st.integers(1, 5),
           num_rounds=st.integers(1, 4))
    def test_fit_equals_per_feature_scan(self, data, n, width, min_child_hessian,
                                         l2_reg, max_depth, num_rounds):
        # small integers and duplicated columns make tied values and tied gains;
        # NaN cells sort last and go right
        cells = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, math.nan]),
                                   min_size=n * width, max_size=n * width))
        base = np.array(cells, dtype=float).reshape(n, width)
        copies = data.draw(st.lists(st.integers(0, width - 1), max_size=4))
        X = np.column_stack([base] + [base[:, j] for j in copies])
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        y[:2] = [0, 1]
        cfg = config(num_rounds=num_rounds, max_depth=max_depth,
                     min_child_hessian=min_child_hessian, l2_reg=l2_reg)
        model = fit(X, y, cfg)
        reference = PerFeatureScanBooster(X, y, cfg).run(cfg.num_rounds)
        assert model == reference
        assert repr(model) == repr(reference)

    def test_protocol_shaped_fit_equals_per_feature_scan(self):
        # a train-eval instance: 210 rebalanced rows with bootstrap duplicates,
        # binary, 1/240 s-quantised and continuous columns in mixed order
        rng = np.random.default_rng(7)
        n = 210
        columns = np.column_stack([
            rng.integers(0, 2, size=(n, 8)).astype(float),
            np.round(rng.normal(100.0, 12.0, size=(n, 8)) * 0.24) / 0.24,
            rng.normal(size=(n, 8)),
        ])[:, rng.permutation(24)]
        score = columns[:, :3].sum(axis=1) + rng.normal(size=n)
        labels = (score > np.quantile(score, 0.8)).astype(int)
        rows = rebalance(labels, seed=3)
        X, y = columns[rows], labels[rows]
        assert X.shape == (210, 24) and len(np.unique(rows)) < 210
        cfg = config(learning_rate=0.1, num_rounds=20, max_depth=4)
        model = fit(X, y, cfg)
        reference = PerFeatureScanBooster(X, y, cfg).run(cfg.num_rounds)
        assert repr(model) == repr(reference)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(2, 30), width=st.integers(1, 3),
           l2_reg=st.sampled_from([1e-3, 1.0]), nudge=st.sampled_from([-1, 0, 1]))
    def test_hessian_skip_keeps_every_split(self, data, n, width, l2_reg, nudge):
        # min_child_hessian at (or one ulp around) the most one cut admits: the
        # skip before the scan fires only where the scan finds no admitted cut,
        # and the root comes out as the full per-feature scan grows it
        X = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n * width, max_size=n * width)),
                     dtype=float).reshape(n, width)
        g = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
        h = np.array(data.draw(st.lists(st.one_of(st.floats(0.0, 0.25), st.floats(1e-12, 1e6)),
                                        min_size=n, max_size=n)))
        j, k = data.draw(st.integers(0, width - 1)), data.draw(st.integers(0, n - 2))
        H = float(h.sum())
        hl = float(np.add.accumulate(h[np.argsort(X[:, j], kind="stable")])[k])
        m = max(float(np.nextafter(min(hl, H - hl), nudge * math.inf)) if nudge else min(hl, H - hl), 0.0)
        if hl >= m and H - hl >= m:
            assert not H * (1 + 1e-12) < 2 * m
        y = np.arange(n) % 2
        cfg = config(max_depth=1, min_child_hessian=m, l2_reg=l2_reg)
        with np.errstate(divide="ignore", invalid="ignore"):
            booster = Booster(X, y, cfg)
            root = booster._grow(np.arange(n), booster._order, g, h, 0, np.empty(n))
            reference = PerFeatureScanBooster(X, y, cfg)
            expected = reference._grow(np.arange(n), None, g, h, 0, np.empty(n))
        assert repr(root) == repr(expected)

    def test_non_finite_gains_are_never_taken(self):
        # l2_reg = min_child_hessian = 0 with exact-zero hessians: the first cut
        # scores 0/0 = NaN and the second gl^2/0 = +inf, both ahead of the best
        # finite cut; in the second node G^2 overflows and the one cut scores -inf
        cfg = config(max_depth=1, min_child_hessian=0.0, l2_reg=0.0)
        nodes = [(np.array([0.0, 1.0, -1.0, -1.0, 1.0, 1.0]), np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])),
                 (np.array([1e154, 1e154]), np.array([2.0, 2.0]))]
        scores = [math.nan, math.inf, 1 / 24, 1.125, 0.375], [-math.inf]
        for (g, h), scored, split in zip(nodes, scores, [(0, 3.5), (None, None)]):
            n = len(g)
            X, y = np.arange(float(n))[:, None], np.arange(n) % 2
            gl, hl = np.add.accumulate(g)[:-1], np.add.accumulate(h)[:-1]
            G, H = g.sum(), h.sum()
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                gains = 0.5 * (gl ** 2 / hl + (G - gl) ** 2 / (H - hl) - G * G / H)
                booster = Booster(X, y, cfg)
                root = booster._grow(np.arange(n), booster._order, g, h, 0, np.empty(n))
                expected = PerFeatureScanBooster(X, y, cfg)._grow(np.arange(n), None, g, h, 0, np.empty(n))
            np.testing.assert_allclose(gains, scored, rtol=1e-12)
            assert repr(root) == repr(expected)
            assert (root.feature, root.threshold) == split

    def test_zero_hessian_node_is_a_zero_leaf(self):
        # H + l2_reg = 0: the parent term G*G/(H + l2_reg) must not divide by zero
        cfg = config(max_depth=2, min_child_hessian=0.0, l2_reg=0.0)
        X, y, g, h = np.array([[0.0], [1.0]]), np.array([0, 1]), np.zeros(2), np.zeros(2)
        leaves = np.full(2, np.nan)
        booster = Booster(X, y, cfg)
        root = booster._grow(np.arange(2), booster._order, g, h, 0, leaves)
        expected = PerFeatureScanBooster(X, y, cfg)._grow(np.arange(2), None, g, h, 0, np.empty(2))
        assert root.is_leaf and root.weight == 0.0
        assert repr(root) == repr(expected)
        assert leaves.tolist() == [0.0, 0.0]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(2, 24), width=st.integers(1, 3), max_depth=st.integers(1, 3))
    def test_non_finite_gains_equal_per_feature_scan(self, data, n, width, max_depth):
        # exact-zero hessians without l2_reg make NaN and +inf gains, and
        # gradients near 1e154 overflow into -inf, NaN and +inf ones
        X = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n * width, max_size=n * width)),
                     dtype=float).reshape(n, width)
        g = np.array(data.draw(st.lists(st.sampled_from([-1e154, -1.0, -0.0, 0.0, 0.5, 1.0, 1e154]),
                                        min_size=n, max_size=n)))
        h = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0, 2.0]), min_size=n, max_size=n)))
        y = np.arange(n) % 2
        cfg = config(max_depth=max_depth, min_child_hessian=0.0, l2_reg=0.0)
        leaves, expected_leaves = np.empty(n), np.empty(n)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            booster = Booster(X, y, cfg)
            root = booster._grow(np.arange(n), booster._order, g, h, 0, leaves)
            reference = PerFeatureScanBooster(X, y, cfg)
            expected = reference._grow(np.arange(n), None, g, h, 0, expected_leaves)
        assert repr(root) == repr(expected)
        assert leaves.tobytes() == expected_leaves.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), width=st.integers(1, 4), n=st.integers(1, 40))
    def test_complex_prefix_sums_are_the_real_ones(self, data, width, n):
        # the (g, h) pairing of the split search, set part by part, against two
        # real prefix sums along each column's order: bit for bit, signed zeros,
        # subnormals and magnitudes near 1e300 included
        cells = st.one_of(st.floats(-1e300, 1e300),
                          st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                           1e300, -1e300]))
        g = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)))
        h = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)))
        order = np.array([data.draw(st.permutations(range(n))) for _ in range(width)])
        gh = np.empty(n, complex)
        gh.real, gh.imag = g, h
        paired = gh.take(order).cumsum(axis=1)
        assert paired.real.tobytes() == np.add.accumulate(g.take(order), axis=1).tobytes()
        assert paired.imag.tobytes() == np.add.accumulate(h.take(order), axis=1).tobytes()

    def test_identical_columns_split_on_lower_index(self):
        v = np.array([-2.0, -1.0, 1.0, 2.0])
        X = np.column_stack([np.zeros(4), v, v])
        y = np.array([0, 0, 1, 1])
        root = fit(X, y, config()).trees[0].root
        assert root.feature == 1
        assert root.threshold == 0.0

    def test_no_columns_grows_leaves(self):
        model = fit(np.zeros((4, 0)), np.array([0, 1, 0, 1]), config(num_rounds=2))
        assert all(tree.root.is_leaf for tree in model.trees)


class TestPredict:
    def test_no_trees_is_constant_base(self):
        m = Ensemble(base_score=0.4, learning_rate=0.1, trees=[], feature_names=("a",))
        expected = 1.0 / (1.0 + math.exp(-0.4))
        np.testing.assert_allclose(m.predict(np.zeros((5, 1))), expected)

    def test_single_leaf_closed_form(self, rng):
        X = rng.normal(size=(30, 2))
        y = np.r_[np.zeros(15), np.ones(15)].astype(int)
        # gamma very large: no split clears it, so the tree is one leaf
        model = fit(X, y, config(num_rounds=1, gamma=1e9))
        root = model.trees[0].root
        assert root.is_leaf
        expected = 1.0 / (1.0 + math.exp(-(model.base_score + 0.3 * root.weight)))
        np.testing.assert_allclose(model.predict(X), expected)

    def test_probabilities_strictly_inside_unit_interval(self, rng):
        X = rng.normal(size=(100, 3))
        y = (X[:, 0] > 0).astype(int)
        model = fit(X, y, config(learning_rate=1.0, num_rounds=60, l2_reg=0.01,
                                 min_child_hessian=0.0))
        p = model.predict(X)
        assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_width_mismatch(self, rng):
        X = rng.normal(size=(20, 3))
        y = (X[:, 0] > 0).astype(int)
        model = fit(X, y, config())
        with pytest.raises(WidthMismatch):
            model.predict(np.zeros((4, 2)))

    def test_nan_routes_to_default_direction(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        model = fit(X, y, config())
        right = model.predict(np.array([[2.0]]))[0]
        assert model.predict(np.array([[np.nan]]))[0] == pytest.approx(right)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 5))
    def test_nan_cells_predict_as_trained(self, seed, k):
        # training sends a NaN cell right (NaN < threshold is False); prediction must agree
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        X[rng.random(200) < 0.3, 1] = np.nan
        booster = Booster(X, y, config(max_depth=4))
        for _ in range(k):
            booster.step()
        assert np.array_equal(booster._margins, booster.ensemble.margins(X))


class TestImportance:
    def test_single_feature_gets_everything(self):
        X = np.array([[-2.0, 5.0], [-1.0, 5.0], [1.0, 5.0], [2.0, 5.0]])
        y = np.array([0, 0, 1, 1])
        model = fit(X, y, config(num_rounds=3, min_child_hessian=0.0))
        table = importance_gain(model)
        by_name = {e.name: e for e in table.entries}
        assert by_name["f0"].percent == pytest.approx(100.0)
        assert by_name["f1"].percent == 0.0

    def test_no_splits_marker(self, rng):
        X = rng.normal(size=(10, 2))
        y = np.r_[np.zeros(5), np.ones(5)].astype(int)
        model = fit(X, y, config(gamma=1e9))
        table = importance_gain(model)
        assert table.no_splits
        assert table.entries == ()

    def test_percentages_match_hand_summed_gains(self, rng):
        X = rng.normal(size=(80, 2))
        y = ((X[:, 0] + X[:, 1]) > 0).astype(int)
        model = fit(X, y, config(num_rounds=4, max_depth=3))
        totals = {0: 0.0, 1: 0.0}

        def walk(node):
            if node.is_leaf:
                return
            totals[node.feature] += node.gain
            walk(node.left)
            walk(node.right)

        for tree in model.trees:
            walk(tree.root)
        table = importance_gain(model)
        grand = totals[0] + totals[1]
        assert sum(e.percent for e in table.entries) == pytest.approx(100.0, abs=1e-6)
        for e in table.entries:
            j = int(e.name[1])
            assert e.gain == pytest.approx(totals[j], rel=1e-12)
            assert e.percent == pytest.approx(100.0 * totals[j] / grand, rel=1e-12)

