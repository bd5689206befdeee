import dataclasses
import inspect
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecgtriage.cohort import GEH_COLUMNS, PatientRecord, mann_whitney
from ecgtriage.ecg_ingest import StandardEcgMeasures
from ecgtriage.errors import (
    ConfigError,
    NoPositives,
    SchemaError,
    SingleClass,
    TooFewPerClass,
    TooSmall,
    UndefinedStatistic,
    WidthMismatch,
)
from ecgtriage.gbt import TrainConfig
from ecgtriage import pipeline
from ecgtriage.geh import GehMeasures
from ecgtriage.pipeline import (
    STREAM_HOLDOUT,
    STREAM_INSTANCE,
    Confusion,
    ExperimentConfig,
    _tie_grouped_counts,
    _two_u,
    choose_threshold,
    cv_tune,
    derived_rng,
    evaluate_model,
    f2,
    pr_aucpr,
    rebalance,
    roc_auc,
    run_instance,
    split,
    train_representative,
)

from oracles import (
    auc_pair_counting,
    average_precision_bruteforce,
    mann_whitney_u_pairs,
    threshold_scan,
)


def toy_cohort(n_neg=223, n_pos=51, seed=3, signal=2.0):
    """Cohort whose first GEH column separates the classes."""
    rng = np.random.default_rng(seed)
    cohort = []
    for i in range(n_neg + n_pos):
        positive = i >= n_neg
        values = rng.normal(size=len(GEH_COLUMNS)) + (signal if positive else 0.0)
        geh = GehMeasures(**{name: abs(float(v)) + 0.1 if name.endswith(("_mv", "_mvms")) else float(v)
                             for name, v in zip(GEH_COLUMNS, values)})
        standard = StandardEcgMeasures(
            p_dur_ms=100.0, pr_ms=160.0, qrs_ms=float(rng.normal(92, 5)),
            qt_ms=386.0, qtc_ms=float(rng.normal(405, 10)), rr_ms=900.0)
        cohort.append(PatientRecord(
            id=f"p{i:04d}", sex="F" if rng.random() < 0.5 else "M",
            age_years=float(rng.uniform(40, 80)), bmi=float(rng.uniform(20, 35)),
            prev_cs=bool(rng.random() < 0.1), prev_mi=bool(rng.random() < (0.5 if positive else 0.2)),
            prev_pci=bool(rng.random() < 0.15), prev_stroke=bool(rng.random() < 0.06),
            htn=bool(rng.random() < 0.7), dm=bool(rng.random() < 0.3),
            outcome="positive" if positive else "negative",
            standard=standard, geh=geh))
    return cohort


FAST = ExperimentConfig(master_seed=9, eta_grid=(0.3,), k_folds=3, n_instances=4,
                        max_rounds=40, patience=8, max_depth=3)


class TestSplit:
    def test_cohort_scale_counts(self):
        cohort = toy_cohort()
        plan = split(cohort, seed=1)
        train_pos = sum(1 for pid in plan.train_ids if pid >= "p0223")
        test_pos = sum(1 for pid in plan.test_ids if pid >= "p0223")
        assert len(plan.train_ids) + len(plan.test_ids) == 274
        assert abs(len(plan.train_ids) - 0.7 * 274) <= 2
        assert abs(train_pos - 36) <= 1 and abs(test_pos - 15) <= 1
        assert (len(plan.train_ids) - train_pos, train_pos) == (156, 36)
        assert (len(plan.test_ids) - test_pos, test_pos) == (67, 15)

    def test_disjoint_and_exhaustive(self):
        cohort = toy_cohort(30, 10)
        plan = split(cohort, seed=4)
        assert set(plan.train_ids).isdisjoint(plan.test_ids)
        assert set(plan.train_ids) | set(plan.test_ids) == {r.id for r in cohort}

    def test_deterministic(self):
        cohort = toy_cohort(30, 10)
        assert split(cohort, seed=5) == split(cohort, seed=5)
        assert split(cohort, seed=5) != split(cohort, seed=6)

    def test_full_ratio_rejected(self):
        with pytest.raises(TooSmall):
            split(toy_cohort(30, 10), seed=1, ratio=1.0)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            split(toy_cohort(30, 0), seed=1)

    def test_class_of_two_splits_one_and_one(self):
        cohort = toy_cohort(30, 2)
        plan = split(cohort, seed=1)
        positives = {r.id for r in cohort if r.label == 1}
        assert len(positives & set(plan.train_ids)) == len(positives & set(plan.test_ids)) == 1

    def test_class_of_one_is_too_small(self):
        with pytest.raises(TooSmall, match="class 1"):
            split(toy_cohort(30, 1), seed=1)


class TestRebalance:
    def test_100_20_to_60_60(self):
        y = np.r_[np.zeros(100), np.ones(20)]
        idx = rebalance(y, random.Random(1))
        picked = y[idx]
        assert len(idx) == 120
        assert (picked == 0).sum() == 60 and (picked == 1).sum() == 60
        maj = idx[picked == 0]
        assert len(np.unique(maj)) == len(maj)

    def test_already_balanced_keeps_sizes(self):
        y = np.r_[np.zeros(25), np.ones(25)]
        idx = rebalance(y, random.Random(2))
        assert (y[idx] == 0).sum() == 25 and (y[idx] == 1).sum() == 25

    def test_five_to_one(self):
        y = np.r_[np.zeros(5), np.ones(1)]
        idx = rebalance(y, random.Random(3))
        picked = y[idx]
        assert (picked == 0).sum() == 3 and (picked == 1).sum() == 3
        assert np.all(idx[picked == 1] == 5)

    @settings(max_examples=60, deadline=None)
    @given(n_min=st.integers(1, 40), ratio=st.floats(1.0, 10.0), seed=st.integers(0, 999))
    def test_policy_properties(self, n_min, ratio, seed):
        n_maj = int(n_min * ratio)
        if n_maj < n_min:
            n_maj = n_min
        y = np.r_[np.zeros(n_maj), np.ones(n_min)]
        idx = rebalance(y, random.Random(seed))
        m = (n_maj + n_min) // 2
        picked = y[idx]
        assert len(idx) == 2 * m
        assert (picked == 0).sum() == m and (picked == 1).sum() == m
        maj_rows = idx[picked == 0]
        assert len(np.unique(maj_rows)) == len(maj_rows)

    def test_single_class(self):
        with pytest.raises(SingleClass):
            rebalance(np.zeros(10), random.Random(0))


class TestStreams:
    def test_same_draws_under_any_hash_seed(self):
        # a str seed goes through SHA-512, not hash(), which PYTHONHASHSEED moves
        script = ("from ecgtriage.pipeline import derived_rng; "
                  "print([derived_rng(7, 3, 11).random() for _ in range(4)])")
        outputs = set()
        for hash_seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=str(Path(pipeline.__file__).parents[1]))
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert outputs == {f"{[derived_rng(7, 3, 11).random() for _ in range(4)]}\n"}

    def test_distinct_keys_give_distinct_permutations(self):
        rows = np.arange(40)
        perms = {tuple(pipeline._permuted(rows, derived_rng(seed, stream, index)).tolist())
                 for seed in range(3) for stream in range(1, 5) for index in range(6)}
        assert len(perms) == 3 * 4 * 6
        assert all(sorted(p) == rows.tolist() for p in perms)

    def test_bootstrap_pick_stays_below_n(self):
        # the largest random() value, 1 - 2^-53, times n never rounds up to n
        u = math.nextafter(1.0, 0.0)
        assert u == 1 - 2 ** -53
        n = np.arange(1, 10 ** 6 + 1)
        assert ((u * n).astype(np.int64) < n).all()
        assert all(int(u * k) == k - 1 for k in (1, 2, 3, 2 ** 20 + 1, 10 ** 6))


class TestRocAuc:
    def test_perfect_ordering(self):
        _, auc = roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
        assert auc == 1.0

    def test_all_equal_scores(self):
        _, auc = roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5])
        assert auc == pytest.approx(0.5)

    def test_worked_example(self):
        _, auc = roc_auc([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1])
        assert auc == pytest.approx(0.75)

    def test_matches_pair_counting_with_ties(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 30))
            y = rng.integers(0, 2, size=n)
            if y.sum() in (0, n):
                continue
            s = rng.integers(0, 5, size=n).astype(float)
            _, auc = roc_auc(y, s)
            assert auc == pytest.approx(auc_pair_counting(y, s), abs=1e-12)

    def test_points_monotone(self, rng):
        y = rng.integers(0, 2, size=50)
        y[0], y[1] = 0, 1
        s = rng.integers(0, 8, size=50).astype(float)
        points, _ = roc_auc(y, s)
        fpr = [p[0] for p in points]
        tpr = [p[1] for p in points]
        assert fpr == sorted(fpr) and tpr == sorted(tpr)
        assert points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 5)),
                          min_size=1, max_size=30))
    def test_two_u_is_twice_pair_count_u(self, cells):
        y = np.array([label for label, _ in cells])
        s = np.array([score for _, score in cells], dtype=float)
        _, tp, fp = _tie_grouped_counts(y, s)
        assert _two_u(tp, fp) == 2 * mann_whitney_u_pairs(s[y == 1], s[y == 0])

    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 5)),
                          min_size=2, max_size=30))
    def test_auc_is_correctly_rounded_u_ratio(self, cells):
        y = np.array([label for label, _ in cells])
        s = np.array([score for _, score in cells], dtype=float)
        pos, neg = int(y.sum()), int((y == 0).sum())
        if pos == 0 or neg == 0:
            return
        two_u = int(2 * mann_whitney_u_pairs(s[y == 1], s[y == 0]))
        assert roc_auc(y, s)[1] == float(Fraction(two_u, 2 * pos * neg))

    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 5), st.integers(0, 5)),
                          min_size=2, max_size=30))
    # equal U of 13 of 24 pairs, where a trapezoid over the ROC points rounds one ulp apart
    @example(cells=list(zip([0] * 8 + [1] * 3, [1, 2, 2, 2, 0, 2, 4, 0, 0, 3, 2],
                            [0, 4, 1, 3, 3, 4, 1, 1, 3, 2, 2])))
    def test_auc_orders_as_two_u(self, cells):
        # one label vector, so both AUCs share the denominator 2 * pos * neg
        y, a, b = (np.array(column) for column in zip(*cells))
        if y.sum() in (0, len(y)):
            return
        two_u_a, two_u_b = (_two_u(*_tie_grouped_counts(y, s)[1:]) for s in (a, b))
        auc_a, auc_b = roc_auc(y, a)[1], roc_auc(y, b)[1]
        assert (auc_a > auc_b, auc_a == auc_b) == (two_u_a > two_u_b, two_u_a == two_u_b)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 9999))
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=20)
        y[:2] = [0, 1]
        s = rng.normal(size=20)
        _, a = roc_auc(y, s)
        _, b = roc_auc(y, np.exp(2.0 * s))
        assert a == pytest.approx(b, abs=1e-12)

    def test_single_class(self):
        with pytest.raises(SingleClass):
            roc_auc([1, 1], [0.1, 0.2])


class TestPrAucpr:
    def test_perfect(self):
        _, ap = pr_aucpr([0, 0, 1], [0.1, 0.2, 0.9])
        assert ap == 1.0

    def test_single_positive_ranked_last(self):
        y = [1] + [0] * 9
        s = [0.0] + [float(i + 1) for i in range(9)]
        _, ap = pr_aucpr(y, s)
        assert ap == pytest.approx(0.1)

    def test_matches_bruteforce(self, rng):
        for _ in range(60):
            n = int(rng.integers(3, 16))
            y = rng.integers(0, 2, size=n)
            if y.sum() == 0:
                continue
            s = rng.integers(0, 4, size=n).astype(float)
            _, ap = pr_aucpr(y, s)
            assert ap == average_precision_bruteforce(y.tolist(), s.tolist())

    def test_no_positives(self):
        with pytest.raises(NoPositives):
            pr_aucpr([0, 0], [0.1, 0.2])


class TestChooseThreshold:
    def test_seventeen_positives_min_compliant(self, rng):
        # 17 positives whose lowest-ranked one sits below many negatives, so
        # dropping exactly one positive maximizes specificity
        pos_scores = np.linspace(0.6, 0.95, 17)
        pos_scores[0] = 0.05
        neg_scores = np.linspace(0.1, 0.55, 60)
        y = np.r_[np.ones(17), np.zeros(60)].astype(int)
        s = np.r_[pos_scores, neg_scores]
        choice = choose_threshold(y, s, min_sens=0.90)
        assert choice.sensitivity == pytest.approx(16 / 17)
        assert f"{100 * choice.sensitivity:.2f}" == "94.12"
        assert choice.confusion.tp == 16 and choice.confusion.fn == 1

    def test_perfect_separation(self):
        y = [0] * 5 + [1] * 5
        s = [0.1, 0.2, 0.3, 0.35, 0.4, 0.6, 0.7, 0.8, 0.9, 1.0]
        choice = choose_threshold(y, s)
        assert choice.sensitivity == 1.0 and choice.specificity == 1.0

    @pytest.mark.parametrize("min_sens", [0.0, 0.5, 0.9, 1.0])
    def test_matches_scan_oracle(self, rng, min_sens):
        cases = [(y, rng.integers(0, 8, size=20) / 7.0)
                 for y in rng.integers(0, 2, size=(60, 20)) if 0 < y.sum() < 20]
        # an exact AUC of 1/2: a float AUC off by one ulp below it would flip
        # the orientation, which is decided on 2U in integers
        cases.append((np.array([1, 1, 1, 0, 0]), np.array([1, 0, 2, 2, 0]) / 3))
        for y, s in cases:
            choice = choose_threshold(y, s, min_sens=min_sens)
            assert (choice.threshold, choice.orientation, choice.sensitivity,
                    choice.specificity) == threshold_scan(y.tolist(), s.tolist(), min_sens)

    def test_confusion_reproduces_rates(self, rng):
        y = rng.integers(0, 2, size=40)
        y[:2] = [0, 1]
        s = rng.normal(size=40)
        c = choose_threshold(y, s)
        assert c.sensitivity == c.confusion.tp / (c.confusion.tp + c.confusion.fn)
        assert c.specificity == c.confusion.tn / (c.confusion.tn + c.confusion.fp)

    def test_inverted_scores_flip_orientation(self):
        y = [0] * 10 + [1] * 10
        s = [float(10 + i) for i in range(10)] + [float(i) for i in range(10)]
        choice = choose_threshold(y, s)
        assert choice.orientation == "<="
        assert choice.sensitivity >= 0.9

    @pytest.mark.parametrize("min_sens", [1.5, float("nan"), -0.1])
    def test_floor_outside_unit_interval_is_refused(self, min_sens):
        # argmax of an all-False mask once picked the first cut: 0.8 at sensitivity 2/3
        with pytest.raises(ConfigError, match="min_sens must be in"):
            choose_threshold([0, 1, 1, 0, 1], [0.1, 0.9, 0.4, 0.5, 0.8], min_sens=min_sens)

    @pytest.mark.parametrize("label", [0, 1])
    def test_single_class_is_refused(self, label):
        with pytest.raises(SingleClass):
            choose_threshold([label] * 4, [0.1, 0.2, 0.3, 0.4])

    def test_sensitivity_is_achievable_fraction(self, rng):
        for p_count in (5, 17, 23):
            y = np.r_[np.ones(p_count), np.zeros(30)].astype(int)
            s = rng.normal(size=len(y))
            c = choose_threshold(y, s, min_sens=0.9)
            k = round(c.sensitivity * p_count)
            assert k / p_count == pytest.approx(c.sensitivity)
            assert k >= np.ceil(0.9 * p_count)


class TestBinaryInputs:
    @pytest.mark.parametrize("metric", [roc_auc, pr_aucpr, choose_threshold])
    @pytest.mark.parametrize("labels", [[0, 0, 2, 1], [0, 0.5, 1, 1]])
    def test_labels_other_than_0_1_are_refused(self, metric, labels):
        # a 2 once gave an AUC of 1.333, and an int cast read 0.5 as a negative
        with pytest.raises(SchemaError, match="labels must be 0/1"):
            metric(labels, [0.1, 0.2, 0.3, 0.4])

    @pytest.mark.parametrize("metric", [roc_auc, pr_aucpr, choose_threshold])
    def test_nan_score_is_undefined(self, metric):
        # a NaN has no rank: sorted last, it once read as the lowest score
        with pytest.raises(UndefinedStatistic):
            metric([0, 1, 0, 1], [np.nan, 0.2, 0.1, 0.3])

    @pytest.mark.parametrize("metric", [roc_auc, pr_aucpr, choose_threshold])
    def test_unequal_lengths_are_a_width_mismatch(self, metric):
        with pytest.raises(WidthMismatch, match="3 labels but 2 scores"):
            metric([0, 1, 1], [0.2, 0.3])


class TestF2:
    def test_perfect(self):
        assert f2(Confusion(tp=10, fp=0, fn=0, tn=10)) == 1.0

    def test_half_precision_full_recall(self):
        assert f2(Confusion(tp=10, fp=10, fn=0, tn=0)) == pytest.approx(2.5 / 3.0)

    def test_worked_example(self):
        assert f2(Confusion(tp=16, fp=45, fn=1, tn=20)) == pytest.approx(0.6202, abs=1e-4)

    def test_zero_tp(self):
        assert f2(Confusion(tp=0, fp=3, fn=5, tn=2)) == 0.0

    def test_no_positives(self):
        with pytest.raises(NoPositives):
            f2(Confusion(tp=0, fp=1, fn=0, tn=1))

    @settings(max_examples=60, deadline=None)
    @given(tp=st.integers(1, 50), fp=st.integers(0, 50),
           fn=st.integers(0, 50), tn=st.integers(0, 50))
    def test_formula(self, tp, fp, fn, tn):
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        expected = 5 * precision * recall / (4 * precision + recall)
        assert f2(Confusion(tp, fp, fn, tn)) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(tp=st.integers(0, 500), fp=st.integers(0, 500),
           fn=st.integers(0, 500), tn=st.integers(0, 500))
    def test_correctly_rounded_ratio(self, tp, fp, fn, tn):
        if tp + fn == 0:
            return
        assert f2(Confusion(tp, fp, fn, tn)) == float(Fraction(5 * tp, 5 * tp + 4 * fn + fp))


class TestCvTune:
    def test_single_eta_selected(self):
        cohort = toy_cohort(40, 12, seed=5)
        from ecgtriage.cohort import assemble_features
        m = assemble_features(cohort, "G")
        result = cv_tune(m.X, m.y, FAST)
        assert result["chosen_eta"] == 0.3
        assert result["chosen_rounds"] >= 1

    def test_selection_recomputable_from_logs(self):
        cohort = toy_cohort(60, 18, seed=6)
        from ecgtriage.cohort import assemble_features
        m = assemble_features(cohort, "G")
        cfg = ExperimentConfig(master_seed=4, eta_grid=(0.1, 0.3), k_folds=3,
                               max_rounds=30, patience=6, max_depth=3)
        result = cv_tune(m.X, m.y, cfg)
        assert list(result) == ["chosen_eta", "chosen_rounds", "grid"]
        grid = result["grid"]
        assert [e["eta"] for e in grid] == [0.1, 0.3]
        best = max(grid, key=lambda e: (e["mean_aucpr"] - e["std_aucpr"], -e["eta"]))
        assert result["chosen_eta"] == best["eta"]
        fold_rounds = sorted(best["fold_rounds"])
        assert result["chosen_rounds"] == max(1, int(np.floor(np.median(fold_rounds) + 0.5)))
        for entry in grid:
            assert list(entry) == ["eta", "fold_aucprs", "fold_rounds", "mean_aucpr", "std_aucpr"]
            assert len(entry["fold_aucprs"]) == len(entry["fold_rounds"]) == cfg.k_folds
            assert entry["mean_aucpr"] == pytest.approx(float(np.mean(entry["fold_aucprs"])))
            assert entry["std_aucpr"] == pytest.approx(float(np.std(entry["fold_aucprs"])))

    def test_exactly_k_folds_positives(self):
        cohort = toy_cohort(30, 3, seed=7)
        from ecgtriage.cohort import assemble_features
        m = assemble_features(cohort, "G")
        assert int(m.y.sum()) == FAST.k_folds
        result = cv_tune(m.X, m.y, FAST)
        assert len(result["grid"][0]["fold_rounds"]) == FAST.k_folds

    def test_one_round_is_every_fold_best(self):
        cohort = toy_cohort(40, 12, seed=5)
        from ecgtriage.cohort import assemble_features
        m = assemble_features(cohort, "G")
        cfg = dataclasses.replace(FAST, eta_grid=(0.1, 0.3), max_rounds=1)
        result = cv_tune(m.X, m.y, cfg)
        assert all(e["fold_rounds"] == [1] * cfg.k_folds for e in result["grid"])
        assert result["chosen_rounds"] == 1

    def test_too_few_per_class(self):
        cohort = toy_cohort(30, 2, seed=7)
        from ecgtriage.cohort import assemble_features
        m = assemble_features(cohort, "G")
        with pytest.raises(TooFewPerClass):
            cv_tune(m.X, m.y, FAST)


class TestTrainRepresentative:
    def _data(self, seed=8, n=80):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 4))
        y = (X[:, 0] + 0.8 * rng.normal(size=n) > 0.8).astype(int)
        X_test = rng.normal(size=(40, 4))
        y_test = (X_test[:, 0] + 0.8 * rng.normal(size=40) > 0.8).astype(int)
        return X, y, X_test, y_test

    def test_single_instance_returned(self):
        X, y, Xt, yt = self._data()
        tc = TrainConfig(learning_rate=0.3, num_rounds=5, max_depth=3)
        _, selection = train_representative(X, y, Xt, yt, tc, n_instances=1, master_seed=1)
        assert list(selection) == ["on", "instance", "auc_log"]
        assert selection["on"] == "test" and selection["instance"] == 1
        assert [list(e) for e in selection["auc_log"]] == [["instance", "seed_key", "auc"]]
        assert selection["auc_log"][0]["seed_key"] == (1, STREAM_INSTANCE, 1)

    def test_ties_go_to_first_instance(self):
        # perfectly separable: every instance reaches AUC 1.0
        X = np.r_[np.zeros((30, 1)), np.ones((30, 1))]
        y = np.r_[np.zeros(30), np.ones(30)].astype(int)
        tc = TrainConfig(learning_rate=0.3, num_rounds=2, max_depth=2)
        _, selection = train_representative(X, y, X, y, tc, n_instances=6, master_seed=2)
        assert all(e["auc"] == 1.0 for e in selection["auc_log"])
        assert selection["instance"] == 1

    def test_selected_auc_is_max_of_log(self):
        X, y, Xt, yt = self._data(seed=9)
        tc = TrainConfig(learning_rate=0.3, num_rounds=8, max_depth=3)
        _, selection = train_representative(X, y, Xt, yt, tc, n_instances=10, master_seed=3)
        log = selection["auc_log"]
        assert [e["instance"] for e in log] == list(range(1, 11))
        best = max(e["auc"] for e in log)
        assert log[selection["instance"] - 1]["auc"] == best
        assert min(e["instance"] for e in log if e["auc"] == best) == selection["instance"]

    def test_equal_u_ties_go_to_first_whatever_the_float_order(self, monkeypatch):
        # U = 13 of 24 pairs for both score vectors, but a trapezoid over their
        # ROC points rounds one ulp apart, the later one up
        y = np.array([0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1])
        scores = {1: np.array([1.0, 2, 2, 2, 0, 2, 4, 0, 0, 3, 2]),
                  2: np.array([0.0, 4, 1, 3, 3, 4, 1, 1, 3, 2, 2])}
        trapezoid = [np.trapezoid(*np.array(roc_auc(y, s)[0]).T[::-1]) for s in scores.values()]
        assert trapezoid[1] == np.nextafter(trapezoid[0], 1.0)

        def scored(index):
            s = scores[index]
            return {"instance": index, "seed_key": (0, STREAM_INSTANCE, index),
                    "auc": roc_auc(y, s)[1]}

        first, second = scored(1), scored(2)
        assert first["auc"] == second["auc"] == 13 / 24
        monkeypatch.setattr(pipeline, "run_instance",
                            lambda *args: (f"model {args[6]}", scored(args[6])))
        tc = TrainConfig(learning_rate=0.3, num_rounds=1)
        X = np.zeros((len(y), 1))
        model, selection = train_representative(X, y, X, y, tc, n_instances=2, master_seed=0)
        assert selection["instance"] == 1 and model == "model 1"

    def test_instance_reproducible_in_isolation(self):
        X, y, Xt, yt = self._data(seed=10)
        tc = TrainConfig(learning_rate=0.3, num_rounds=8, max_depth=3)
        _, selection = train_representative(X, y, Xt, yt, tc, n_instances=7, master_seed=11)
        probe = selection["auc_log"][4]
        _, rerun = run_instance(X, y, Xt, yt, tc, master_seed=11, index=probe["instance"])
        assert rerun == probe

    def test_holdout_selection_mode(self):
        X, y, Xt, yt = self._data(seed=12, n=120)
        tc = TrainConfig(learning_rate=0.3, num_rounds=6, max_depth=3)
        _, selection = train_representative(X, y, Xt, yt, tc, n_instances=3, master_seed=5,
                                            holdout_selection=True)
        assert selection["on"] == "holdout" and len(selection["auc_log"]) == 3
        cohort = toy_cohort(60, 18, seed=12)
        config = dataclasses.replace(FAST, holdout_selection=True)
        report = evaluate_model("G", cohort, config, split(cohort, config.master_seed))
        assert report["selection"]["on"] == "holdout"

    def test_holdout_draw(self, monkeypatch):
        # row i's one feature is i, so each part's rows can be read back
        y = np.r_[np.zeros(47), np.ones(2)].astype(int)[np.random.default_rng(4).permutation(49)]
        X = np.arange(49, dtype=float)[:, None]
        parts = {}

        def record(fit_X, fit_y, sel_X, sel_y, tc, master_seed, index, feature_names):
            parts["fit"], parts["hold"] = fit_X[:, 0].astype(int), sel_X[:, 0].astype(int)
            assert np.array_equal(fit_y, y[parts["fit"]])
            assert np.array_equal(sel_y, y[parts["hold"]])
            return "model", {"instance": index, "seed_key": (master_seed, STREAM_INSTANCE, index),
                             "auc": 0.5}

        monkeypatch.setattr(pipeline, "run_instance", record)
        tc = TrainConfig(learning_rate=0.3, num_rounds=1)
        train_representative(X, y, X, y, tc, n_instances=1, master_seed=5, holdout_selection=True)
        fit, hold = parts["fit"], parts["hold"]
        # max(1, round_half_up(0.2 * n)) per class: 9 of 47, and 1 of 2 (not 0)
        assert [int((y[hold] == c).sum()) for c in (0, 1)] == [9, 1]
        assert np.all(np.diff(fit) > 0) and np.all(np.diff(hold) > 0)
        assert np.array_equal(np.sort(np.r_[fit, hold]), np.arange(49))
        # each class in turn: its members ordered by one random() key each, first k kept
        rng = derived_rng(5, STREAM_HOLDOUT)
        drawn = []
        for c, k in ((0, 9), (1, 1)):
            members = np.flatnonzero(y == c)
            keys = [rng.random() for _ in members]
            drawn.append(members[np.argsort(keys, kind="stable")][:k])
        assert np.array_equal(hold, np.sort(np.concatenate(drawn)))

    def test_holdout_needs_two_of_each_class(self):
        X, y, Xt, yt = self._data(seed=12, n=120)
        y = np.where(np.arange(120) == np.flatnonzero(y)[0], 1, 0)
        tc = TrainConfig(learning_rate=0.3, num_rounds=2)
        with pytest.raises(TooSmall, match="class 1"):
            train_representative(X, y, Xt, yt, tc, n_instances=1, master_seed=5,
                                 holdout_selection=True)


class TestEvaluateModel:
    def test_four_specs_share_split_and_sensitivity(self):
        cohort = toy_cohort(110, 30, seed=13, signal=1.5)
        plan = split(cohort, FAST.master_seed)
        reports = [evaluate_model(lbl, cohort, FAST, plan)
                   for lbl in ("S", "R", "G", "SRG")]
        assert len({r["data"]["n_test"] for r in reports}) == 1
        assert len({r["metrics"]["sensitivity"] for r in reports}) == 1
        assert all(r["metrics"]["sensitivity"] >= 0.9 for r in reports)

    def test_single_class_cohort_fails_before_training(self):
        # split is the first step of train-eval, before any model is evaluated
        with pytest.raises(SingleClass):
            split(toy_cohort(30, 0), FAST.master_seed)

    def test_unknown_label_raises_before_tuning(self, monkeypatch):
        def untouched(*args):
            raise AssertionError("cv_tune ran")

        monkeypatch.setattr(pipeline, "cv_tune", untouched)
        cohort = toy_cohort(60, 18, seed=14)
        with pytest.raises(SchemaError, match="unknown model label 'X'"):
            evaluate_model("X", cohort, FAST, split(cohort, FAST.master_seed))

    def test_deterministic_report(self):
        cohort = toy_cohort(60, 18, seed=14)
        a = evaluate_model("G", cohort, FAST, split(cohort, FAST.master_seed))
        b = evaluate_model("G", cohort, FAST, split(cohort, FAST.master_seed))
        assert json.dumps(a) == json.dumps(b)

    def test_auc_mann_whitney_bridge(self):
        cohort = toy_cohort(60, 18, seed=15)
        report = evaluate_model("G", cohort, FAST, split(cohort, FAST.master_seed))
        # reconstruct the test scores through the published log is indirect;
        # instead check the identity on freshly scored data
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, size=25)
        y[:2] = [0, 1]
        s = rng.integers(0, 6, size=25).astype(float)
        _, auc = roc_auc(y, s)
        u = mann_whitney(s[y == 1], s[y == 0]).u
        assert auc == pytest.approx(u / ((y == 1).sum() * (y == 0).sum()), abs=1e-12)
        assert 0.0 <= report["metrics"]["auc"] <= 1.0

    def test_report_document_shape(self):
        cohort = toy_cohort(60, 18, seed=16)
        report = evaluate_model("SRG", cohort, FAST, split(cohort, FAST.master_seed))
        doc = json.loads(json.dumps(report))
        assert doc["format"] == "eval-report/1"
        assert doc["model"] == "SRG"
        assert set(doc["metrics"]) == {"auc", "aucpr", "f2", "sensitivity", "specificity"}
        assert doc["confusion"]["tp"] + doc["confusion"]["fn"] > 0
        assert len(doc["selection"]["auc_log"]) == FAST.n_instances
        assert doc["selection"]["on"] == "test"
        total = sum(doc["confusion"][k] for k in ("tp", "fp", "fn", "tn"))
        assert total == doc["data"]["n_test"]


def test_protocol_defaults():
    # the paper's protocol as one set: a change to any default is a change of protocol
    defaults = (dataclasses.asdict(ExperimentConfig()),
                inspect.signature(choose_threshold).parameters["min_sens"].default,
                inspect.signature(split).parameters["ratio"].default)
    assert defaults == (
        {"master_seed": 0, "eta_grid": (0.01, 0.05, 0.1, 0.2, 0.3), "k_folds": 5,
         "n_instances": 50, "holdout_selection": False, "max_rounds": 500, "patience": 20,
         "max_depth": 6},
        0.90, 0.7)
