import dataclasses
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ecgtriage import gbt
from ecgtriage.errors import ConfigError, EmptyMatrix, SchemaError, SingleClass, WidthMismatch
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


# the package's fixed regularisation, as the brute-force oracles take it
L2_REG, GAMMA, MIN_CHILD_HESSIAN = 1.0, 0.0, 1.0


def config(**kw):
    """The protocol's configuration; a keyword TrainConfig lacks is a TypeError."""
    return TrainConfig(**{"learning_rate": 0.3, "num_rounds": 1, "max_depth": 6, **kw})


@pytest.mark.parametrize("learning_rate", [0.0, -0.1, math.nextafter(1.0, 2.0), math.nan])
def test_learning_rate_outside_zero_one_is_refused(learning_rate):
    with pytest.raises(ConfigError, match="learning_rate must be in"):
        config(learning_rate=learning_rate)
    assert config(learning_rate=1.0).learning_rate == 1.0


@pytest.mark.parametrize("name", ["min_child_hessian", "l2_reg", "gamma"])
def test_regularisation_is_not_configurable(name):
    assert [f.name for f in dataclasses.fields(TrainConfig)] == [
        "learning_rate", "num_rounds", "max_depth"]
    with pytest.raises(TypeError, match=name):
        config(**{name: 1.0})


# X = [-2, -1, 1, 2] three times over: at p = 1/2 each side of the cut holds a
# hessian sum of 1.5, over MIN_CHILD_HESSIAN
STEP_X = np.tile([[-2.0], [-1.0], [1.0], [2.0]], (3, 1))
STEP_Y = np.tile([0, 0, 1, 1], 3)


class TestFit:
    def test_separable_step(self):
        X, y = STEP_X, STEP_Y
        model = fit(X, y, config())
        root = model.trees[0].root
        assert not root.is_leaf
        assert root.feature == 0
        assert -1.0 < root.threshold < 1.0
        assert root.left.is_leaf and root.right.is_leaf
        preds = model.predict(X)
        np.testing.assert_array_equal((preds > 0.5).astype(int), y)

    def test_first_tree_matches_bruteforce(self, rng):
        for _ in range(6):
            X = rng.normal(size=(200, 5))
            logits = X[:, 1] - 0.8 * X[:, 3] + 0.3 * rng.normal(size=200)
            # balanced labels keep tied gains exact on both sides (see the
            # acceptance suite for the rounding argument)
            y = np.zeros(200, dtype=int)
            y[np.argsort(logits)[100:]] = 1
            cfg = config(max_depth=3)
            model = fit(X, y, cfg)
            oracle = first_tree_bruteforce(
                X, y, cfg.max_depth, L2_REG, GAMMA, MIN_CHILD_HESSIAN, model.base_score)
            assert shapes_equal(tree_shape(model.trees[0].root), oracle)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            fit(np.zeros((4, 2)), np.zeros(4), config())

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyMatrix):
            fit(np.zeros((0, 2)), np.zeros(0), config())

    def test_gain_formula_on_toy_node(self):
        # single feature, 12 rows; evaluate the documented gain expression by hand
        X = np.arange(1.0, 13.0)[:, None]
        y = np.array([0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 1, 1])
        lam = L2_REG
        model = fit(X, y, config(max_depth=1))
        root = model.trees[0].root
        assert not root.is_leaf
        p = 0.5  # prevalence 6/12 -> base score 0, p = 1/2
        g = p - y
        h = np.full(12, p * (1 - p))
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
        booster = Booster(X, y, config(learning_rate=0.3, num_rounds=30))

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
           n=st.integers(8, 60),
           width=st.integers(1, 4),
           max_depth=st.integers(1, 5),
           num_rounds=st.integers(1, 4))
    def test_fit_equals_per_feature_scan(self, data, n, width, max_depth, num_rounds):
        # small integers and duplicated columns make tied values and tied gains;
        # NaN cells sort last and go right. Below 8 rows no node holds H >= 2.
        cells = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, math.nan]),
                                   min_size=n * width, max_size=n * width))
        base = np.array(cells, dtype=float).reshape(n, width)
        copies = data.draw(st.lists(st.integers(0, width - 1), max_size=4))
        X = np.column_stack([base] + [base[:, j] for j in copies])
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        y[:2] = [0, 1]
        cfg = config(num_rounds=num_rounds, max_depth=max_depth)
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
        rows = rebalance(labels, random.Random(3))
        X, y = columns[rows], labels[rows]
        assert X.shape == (210, 24) and len(np.unique(rows)) < 210
        cfg = config(learning_rate=0.1, num_rounds=20, max_depth=4)
        model = fit(X, y, cfg)
        reference = PerFeatureScanBooster(X, y, cfg).run(cfg.num_rounds)
        assert repr(model) == repr(reference)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(8, 30), width=st.integers(1, 3),
           nudge=st.sampled_from([-1, 0, 1]))
    def test_hessian_skip_keeps_every_split(self, data, n, width, nudge):
        # H at 2 * MIN_CHILD_HESSIAN or one grid step 2^-k around it, with the
        # cut of column j after sorted row k holding exactly 1 on each side
        # before the nudge: the skip before the scan fires only where the scan
        # finds no admitted cut, and the root comes out as the full per-feature
        # scan grows it. g and h lie on step()'s grid.
        X = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n * width, max_size=n * width)),
                     dtype=float).reshape(n, width)
        unit = 2.0 ** -(53 - n.bit_length())
        g = unit * np.array(data.draw(st.lists(st.integers(-int(1 / unit), int(1 / unit)),
                                               min_size=n, max_size=n)))
        j, k = data.draw(st.integers(0, width - 1)), data.draw(st.integers(3, n - 5))
        # h in sixty-fourths within [0, 1/4], 64 of them on each side of the cut
        q = data.draw(st.lists(st.integers(0, 16), min_size=n, max_size=n))
        sides = np.split(np.argsort(X[:, j], kind="stable"), [k + 1])
        for side in sides:
            short = 64 - sum(q[i] for i in side)
            for i in side:
                move = max(-q[i], min(16 - q[i], short))
                q[i] += move
                short -= move
        h = np.array(q) / 64.0
        # one row moves H one grid step to the nudge's side, keeping h in [0, 1/4]
        step = nudge * unit
        first = sides[data.draw(st.integers(0, 1))]
        rows = [i for i in np.concatenate([first, *sides]) if 0.0 <= h[i] + step <= 0.25]
        assume(rows)
        h[rows[0]] += step
        H, hl = float(h.sum()), float(h[sides[0]].sum())
        assert H == 2.0 + step
        if hl >= MIN_CHILD_HESSIAN and H - hl >= MIN_CHILD_HESSIAN:
            assert not H < 2 * MIN_CHILD_HESSIAN
        y = np.arange(n) % 2
        booster = Booster(X, y, config(max_depth=1))
        root = booster._grow(g, h, np.empty(n))
        reference = PerFeatureScanBooster(X, y, config(max_depth=1))
        expected = reference._grow(g, h, np.empty(n))
        assert repr(root) == repr(expected)

    def test_zero_hessian_node_is_a_zero_leaf(self):
        # h = 0 where step() rounds p to 0 or 1: H = 0 < 2 * MIN_CHILD_HESSIAN
        # makes the node a leaf, and L2_REG keeps -G/(H + 1) a plain zero
        cfg = config(max_depth=2)
        X, y, g, h = np.array([[0.0], [1.0]]), np.array([0, 1]), np.zeros(2), np.zeros(2)
        leaves = np.full(2, np.nan)
        booster = Booster(X, y, cfg)
        root = booster._grow(g, h, leaves)
        expected = PerFeatureScanBooster(X, y, cfg)._grow(g, h, np.empty(2))
        assert root.is_leaf and root.weight == 0.0
        assert repr(root) == repr(expected)
        assert leaves.tolist() == [0.0, 0.0]

    def test_child_of_negative_zero_gradients_is_a_positive_zero_leaf(self):
        # the right child's rows all hold g = -0.0: its carried G - gl is +0.0,
        # the sum of its rows -0.0; either way its leaf weighs +0.0
        X, y = np.repeat([[0.0], [1.0]], 4, axis=0), np.repeat([1, 0], 4)
        g, h = np.r_[np.full(4, -1.0), np.full(4, -0.0)], np.full(8, 0.25)
        booster = Booster(X, y, config(max_depth=1))
        root = booster._grow(g, h, np.empty(8))
        expected = PerFeatureScanBooster(X, y, config(max_depth=1))._grow(g, h, np.empty(8))
        assert math.copysign(1.0, root.right.weight) == 1.0
        assert repr(root) == repr(expected)

    @pytest.mark.parametrize("first", [0.0, 1.0], ids=["one_row_apart", "all_tied"])
    def test_node_without_an_admitted_cut_is_a_leaf(self, first):
        # H = 9/4 >= 2 * MIN_CHILD_HESSIAN, so the scan runs. Apart, the one cut
        # leaves 1/4 on its left, under MIN_CHILD_HESSIAN, and would gain 0.65 if
        # admitted; every gain is -inf and the node ends at gain <= 0. Tied, the
        # column has no value boundary at all.
        X = np.array([[first]] + [[1.0]] * 8)
        y = np.array([1] + [0] * 8)
        g, h = np.array([-0.75] + [0.25] * 8), np.full(9, 0.25)
        assert h.sum() >= 2 * MIN_CHILD_HESSIAN
        leaves = np.full(9, np.nan)
        booster = Booster(X, y, config())
        root = booster._grow(g, h, leaves)
        expected = PerFeatureScanBooster(X, y, config())._grow(g, h, np.empty(9))
        assert root.is_leaf and root.weight == -1.25 / 3.25
        assert repr(root) == repr(expected)
        assert leaves.tolist() == [root.weight] * 9

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(2, 40), width=st.integers(1, 3), max_depth=st.integers(1, 3))
    def test_domain_extremes_equal_per_feature_scan(self, data, n, width, max_depth):
        # g and h at the ends of step()'s domain, the grid's 2^-k and signed
        # zeros included: no operation overflows, divides by zero or makes a NaN,
        # and the tree and its leaf values, built from carried node sums, are the
        # per-feature scan's, which sums each node's rows, bit for bit
        X = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n * width, max_size=n * width)),
                     dtype=float).reshape(n, width)
        unit = 2.0 ** -(53 - n.bit_length())
        g = np.array(data.draw(st.lists(st.sampled_from([-1.0, unit - 1.0, -unit, -0.0, 0.0, unit, 0.5,
                                                         1.0 - unit, 1.0]),
                                        min_size=n, max_size=n)))
        h = np.array(data.draw(st.lists(st.sampled_from([0.0, unit, 0.125, 0.25, 0.25]), min_size=n, max_size=n)))
        y = np.arange(n) % 2
        cfg = config(max_depth=max_depth)
        leaves, expected_leaves = np.empty(n), np.empty(n)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            booster = Booster(X, y, cfg)
            root = booster._grow(g, h, leaves)
            reference = PerFeatureScanBooster(X, y, cfg)
            expected = reference._grow(g, h, expected_leaves)
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
        X = np.column_stack([np.zeros(12), STEP_X, STEP_X])
        root = fit(X, STEP_Y, config()).trees[0].root
        assert root.feature == 1
        assert root.threshold == 0.0

    # the midpoint of adjacent values rounds to the lower one, and near the
    # float limit it overflows: the cut must still separate the two values
    @pytest.mark.parametrize("lo, hi", [(1.0, math.nextafter(1.0, 2.0)), (1e308, 1.5e308),
                                        (-1.5e308, -1e308)])
    def test_cut_separates_adjacent_and_huge_values(self, lo, hi):
        X = np.tile([lo, lo, hi, hi], 5)[:, None]
        y = np.tile([0, 0, 1, 1], 5)
        cfg = TrainConfig(learning_rate=0.3, num_rounds=1)
        model = fit(X, y, cfg)
        root = model.trees[0].root
        assert lo < root.threshold <= hi
        assert root.left.is_leaf and root.right.is_leaf
        np.testing.assert_array_equal(model.predict(X) > 0.5, y == 1)
        assert shapes_equal(tree_shape(root), first_tree_bruteforce(
            X, y, cfg.max_depth, L2_REG, GAMMA, MIN_CHILD_HESSIAN, model.base_score))
        scan = PerFeatureScanBooster(X, y, cfg).run(1)
        assert tree_shape(scan.trees[0].root) == tree_shape(root)

    def test_no_columns_grows_leaves(self):
        model = fit(np.zeros((4, 0)), np.array([0, 1, 0, 1]), config(num_rounds=2))
        assert all(tree.root.is_leaf for tree in model.trees)


def training_sample(data, n, width, nan=True):
    """n rows of small integers, NaN unless nan is False, and floats in [-4, 4],
    so columns hold ties and distinct values; labels hold both classes."""
    cells = st.one_of(st.sampled_from([0.0, 1.0, 2.0] + [math.nan] * nan), st.floats(-4.0, 4.0))
    X = np.array(data.draw(st.lists(cells, min_size=n * width, max_size=n * width))).reshape(n, width)
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[:2] = [0, 1]
    return X, y


def trees_of(model):
    return [repr(tree) for tree in model.trees]


class TestExactSums:
    """On step()'s grid every sum is exact: the fit depends on the set of rows only."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(8, 60), width=st.integers(1, 4),
           max_depth=st.integers(1, 4), num_rounds=st.integers(1, 5))
    def test_row_order_leaves_trees_and_predictions_unchanged(self, data, n, width, max_depth,
                                                             num_rounds):
        X, y = training_sample(data, n, width)
        perm = np.array(data.draw(st.permutations(range(n))))
        cfg = config(max_depth=max_depth, num_rounds=num_rounds)
        drawn, permuted = fit(X, y, cfg), fit(X[perm], y[perm], cfg)
        assert trees_of(drawn) == trees_of(permuted)
        assert drawn.predict(X).tobytes() == permuted.predict(X).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(8, 60), width=st.integers(1, 3),
           max_depth=st.integers(1, 4), num_rounds=st.integers(1, 5))
    def test_duplicated_column_never_beats_the_lower_copy(self, data, n, width, max_depth,
                                                          num_rounds):
        # appended copies of a column, as drawn and mirrored (-x: the same cuts
        # with the sides swapped, each gain summed in another order), tie with
        # it at every cut and lose every tie: the trees are the ones without them
        X, y = training_sample(data, n, width, nan=False)
        j = data.draw(st.integers(0, width - 1))
        cfg = config(max_depth=max_depth, num_rounds=num_rounds)
        with_copies = fit(np.column_stack([X, X[:, j], -X[:, j]]), y, cfg)
        assert trees_of(with_copies) == trees_of(fit(X, y, cfg))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(4, 40), width=st.integers(1, 4),
           max_depth=st.integers(1, 4), num_rounds=st.integers(1, 5))
    def test_counts_fit_equals_repeated_rows_fit(self, data, n, width, max_depth, num_rounds):
        X, y = training_sample(data, n, width)
        counts = np.array(data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
        cfg = config(max_depth=max_depth, num_rounds=num_rounds)
        weighted = fit(X, y, cfg, counts=counts)
        repeated = fit(np.repeat(X, counts, axis=0), np.repeat(y, counts), cfg)
        assert trees_of(weighted) == trees_of(repeated)
        assert weighted.base_score.hex() == repeated.base_score.hex()
        assert weighted.predict(X).tobytes() == repeated.predict(X).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(8, 60), width=st.integers(1, 4),
           max_depth=st.integers(1, 4), num_rounds=st.integers(1, 4))
    def test_carried_node_sums_are_the_exact_sums_of_node_rows(self, data, n, width, max_depth,
                                                               num_rounds):
        # each node searched for a split gets the (G, H) its parent handed down:
        # equal to math.fsum over the rows the tree routes to it, and each leaf
        # weighs -G/(H + 1) of those exact sums
        X, y = training_sample(data, n, width)
        counts = np.array(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
        cfg = config(max_depth=max_depth, num_rounds=num_rounds)
        grown, scanned = [], []

        class Recording(Booster):
            def _grow(self, g, h, leaf_values):
                grown.append((g, h))
                return super()._grow(g, h, leaf_values)

        def spy(values, gh, G, H):
            scanned.append((G, H))
            return best_split(values, gh, G, H)

        def expected_scans(node, rows, depth, g, h):
            G, H = math.fsum(g[rows]), math.fsum(h[rows])
            if node.is_leaf:
                assert node.weight == (0.0 - G) / (H + 1.0)
            scans = [(G, H)] if depth < max_depth and H >= 2 * MIN_CHILD_HESSIAN else []
            if not node.is_leaf:
                goes_left = X[rows, node.feature] < node.threshold
                scans += expected_scans(node.left, rows[goes_left], depth + 1, g, h)
                scans += expected_scans(node.right, rows[~goes_left], depth + 1, g, h)
            return scans

        booster, best_split = Recording(X, y, cfg, counts=counts), gbt._best_split
        with mock.patch.object(gbt, "_best_split", spy):
            for _ in range(num_rounds):
                scanned.clear()
                tree = booster.step()
                assert scanned == expected_scans(tree.root, np.arange(n), 0, *grown[-1])


class TestCounts:
    def test_count_length_mismatch_is_refused(self):
        with pytest.raises(WidthMismatch, match="counts of shape"):
            fit(STEP_X, STEP_Y, config(), counts=np.ones(len(STEP_Y) - 1))

    @pytest.mark.parametrize("bad", [0.0, -1.0, 1.5, math.nan, math.inf])
    def test_count_not_a_finite_integer_of_at_least_one_is_refused(self, bad):
        counts = np.ones(len(STEP_Y))
        counts[3] = bad
        with pytest.raises(SchemaError, match="counts must be finite integers >= 1"):
            fit(STEP_X, STEP_Y, config(), counts=counts)

    def test_count_total_below_2_to_the_51_trains(self):
        # a total of 2^51 - 1 split 2^50 : 2^50 - 1, so p = 1/2: k = 2, and the
        # grid of 1/4 keeps g = -+1/2 and h = 1/4, and the root splits the classes
        counts = [2 ** 50 - 4] + [1] * 4 + [2 ** 50 - 5] + [1] * 4
        X = np.arange(10.0)[:, None]
        model = fit(X, [0] * 5 + [1] * 5, config(num_rounds=1, max_depth=1), counts=counts)
        assert model.trees[0].root.threshold == 4.5
        p = model.predict(X)
        assert p[:5].max() < 0.5 < p[5:].min()

    @pytest.mark.parametrize("counts", [[2 ** 51 - 9] + [1] * 9, [2 ** 60] + [1] * 9],
                             ids=["2^51", "2^60"])
    def test_count_total_of_2_to_the_51_or_more_is_refused(self, counts):
        # from 2^51 the grid is coarser than 1/4 and rounds every hessian to 0;
        # from 2^53 every gradient too, and each tree was one leaf of weight 0
        with pytest.raises(SchemaError, match=r"^counts must sum below 2\^51"):
            fit(np.arange(10.0)[:, None], [0] * 5 + [1] * 5, config(), counts=counts)

    def test_no_counts_are_counts_of_one(self):
        cfg = config(num_rounds=3)
        assert trees_of(fit(STEP_X, STEP_Y, cfg)) == trees_of(fit(STEP_X, STEP_Y, cfg, counts=[1] * 12))

    def test_base_score_is_the_counted_prevalence(self):
        # 3 of 4 counted rows positive: log(3)
        model = fit(np.zeros((2, 1)), [0, 1], config(), counts=[1, 3])
        assert model.base_score == math.log(3.0)


class TestPredict:
    def test_no_trees_is_constant_base(self):
        m = Ensemble(base_score=0.4, learning_rate=0.1, trees=[], feature_names=("a",))
        expected = 1.0 / (1.0 + math.exp(-0.4))
        np.testing.assert_allclose(m.predict(np.zeros((5, 1))), expected)

    def test_single_leaf_closed_form(self, rng):
        X = rng.normal(size=(6, 2))
        y = np.r_[np.zeros(3), np.ones(3)].astype(int)
        # H = 6/4 < 2 * MIN_CHILD_HESSIAN: no cut is admitted, so the tree is one leaf
        model = fit(X, y, config(num_rounds=1))
        root = model.trees[0].root
        assert root.is_leaf
        expected = 1.0 / (1.0 + math.exp(-(model.base_score + 0.3 * root.weight)))
        np.testing.assert_allclose(model.predict(X), expected)

    def test_probabilities_strictly_inside_unit_interval(self, rng):
        X = rng.normal(size=(100, 3))
        y = (X[:, 0] > 0).astype(int)
        model = fit(X, y, config(learning_rate=1.0, num_rounds=60))
        p = model.predict(X)
        assert np.all(p > 0.0) and np.all(p < 1.0)

    @pytest.mark.parametrize("margin, expected", [(-800.0, 1e-15), (800.0, math.nextafter(1.0, 0.0))])
    def test_probabilities_clip_at_exact_bounds(self, margin, expected):
        m = Ensemble(base_score=margin, learning_rate=0.1, trees=[], feature_names=("a",))
        assert m.predict(np.zeros((2, 1))).tolist() == [expected, expected]

    def test_flat_input_has_unknown_width(self):
        m = Ensemble(base_score=0.0, learning_rate=0.1, trees=[], feature_names=("a", "b"))
        with pytest.raises(WidthMismatch, match=r"^rows have \? features, model expects 2$"):
            m.margins(np.zeros(2))

    def test_width_mismatch(self, rng):
        X = rng.normal(size=(20, 3))
        y = (X[:, 0] > 0).astype(int)
        model = fit(X, y, config())
        with pytest.raises(WidthMismatch):
            model.predict(np.zeros((4, 2)))

    def test_nan_routes_to_default_direction(self):
        model = fit(STEP_X, STEP_Y, config())
        assert not model.trees[0].root.is_leaf
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
        X = np.column_stack([STEP_X, np.full(12, 5.0)])
        model = fit(X, STEP_Y, config(num_rounds=3))
        section = importance_gain(model)
        assert not section["no_splits"]
        by_name = {e["name"]: e for e in section["features"]}
        assert by_name["f0"]["percent"] == pytest.approx(100.0)
        assert by_name["f1"]["percent"] == 0.0

    def test_no_splits_marker(self, rng):
        # H = 6/4 < 2 * MIN_CHILD_HESSIAN: no cut is admitted
        X = rng.normal(size=(6, 2))
        y = np.r_[np.zeros(3), np.ones(3)].astype(int)
        model = fit(X, y, config())
        assert importance_gain(model) == {"no_splits": True, "features": []}

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
        features = importance_gain(model)["features"]
        grand = totals[0] + totals[1]
        assert [e["name"] for e in features] == ["f0", "f1"]
        assert sum(e["percent"] for e in features) == pytest.approx(100.0, abs=1e-6)
        for j, e in enumerate(features):
            assert list(e) == ["name", "gain", "percent"]
            assert e["gain"] == pytest.approx(totals[j], rel=1e-12)
            assert e["percent"] == pytest.approx(100.0 * totals[j] / grand, rel=1e-12)

