"""Experiment orchestration: split, rebalance, tune, train 50 instances, pick a
representative, and report sensitivity-constrained metrics.

Randomness is controlled by one master seed. Every consumer derives its own
stream from a counter-based key, derived_rng(master_seed, stream, index), so
any single piece (a CV fold, a training instance) can be reproduced in
isolation. A stream is the standard library's random.Random, which numpy
already imports, and a draw reads only random(), whose sequence Python keeps
for a given seed; numpy.random would load about 6 MB, OpenSSL included, for a
few dozen permutations and bootstrap samples per model.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import gbt
from .cohort import _tie_grouped_counts, _two_u, assemble_features
from .ecg_ingest import round_half_up
from .errors import (
    ConfigError,
    NoPositives,
    SchemaError,
    SingleClass,
    TooFewPerClass,
    TooSmall,
    UndefinedStatistic,
    WidthMismatch,
)
from .gbt import Booster, TrainConfig, importance_gain

try:  # CPython's built-in SHA-256, which needs no OpenSSL: _sha2 from 3.12
    from _sha2 import sha256
except ImportError:
    from _sha256 import sha256

STREAM_SPLIT = 1
STREAM_CV = 2
STREAM_INSTANCE = 3
STREAM_HOLDOUT = 4


def derived_rng(master_seed: int, stream: int, index: int = 0) -> random.Random:
    """The stream of key (master_seed, stream, index): random.Random seeded
    with the text "master_seed:stream:index". A str seed goes through SHA-512,
    never hash(), so PYTHONHASHSEED cannot move it, and distinct keys give
    independent streams (Salmon et al. 2011 key their streams the same way)."""
    return random.Random(f"{master_seed}:{stream}:{index}")


def _permuted(rows: np.ndarray, rng: random.Random) -> np.ndarray:
    """rows in random order: the stable argsort of one random() key per row."""
    return rows[np.argsort([rng.random() for _ in range(len(rows))], kind="stable")]


@dataclass(frozen=True)
class ExperimentConfig:
    master_seed: int = 0
    eta_grid: tuple[float, ...] = (0.01, 0.05, 0.1, 0.2, 0.3)
    k_folds: int = 5
    n_instances: int = 50
    holdout_selection: bool = False
    max_rounds: int = 500
    patience: int = 20
    max_depth: int = 6

    def __post_init__(self):
        for name, ok, rule in (("master_seed", self.master_seed >= 0, ">= 0"),
                               ("eta_grid", len(self.eta_grid) > 0, "non-empty"),
                               ("k_folds", self.k_folds >= 2, ">= 2"),
                               ("n_instances", self.n_instances >= 1, ">= 1"),
                               ("patience", self.patience >= 1, ">= 1")):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        # the booster's own checks cover the grid, max_rounds and max_depth
        for eta in self.eta_grid:
            self.train_config(eta, self.max_rounds)

    def train_config(self, learning_rate: float, num_rounds: int) -> TrainConfig:
        return TrainConfig(learning_rate=learning_rate, num_rounds=num_rounds,
                           max_depth=self.max_depth)

    def hash(self) -> str:
        text = json.dumps(
            {k: list(v) if isinstance(v, tuple) else v for k, v in sorted(vars(self).items())},
            sort_keys=True,
        )
        return sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SplitPlan:
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]


def split(cohort, seed: int, ratio: float = 0.7) -> SplitPlan:
    """Random train/test split of patient ids, always stratified by outcome:
    each class is split at the ratio, so the class ratio of each part stays
    within one patient of the cohort's.
    """
    labels = np.asarray([r.label for r in cohort])
    if len(set(labels.tolist())) < 2:
        raise SingleClass("cohort contains a single outcome class")
    if not 0.0 < ratio < 1.0:
        raise TooSmall(f"split ratio {ratio} leaves an empty train or test part")

    train = _stratified_draw(labels, lambda n: round_half_up(ratio * n), seed, STREAM_SPLIT)
    return SplitPlan(train_ids=tuple(r.id for r, t in zip(cohort, train) if t),
                     test_ids=tuple(r.id for r, t in zip(cohort, train) if not t))


def _stratified_draw(labels, size, seed: int, stream: int) -> np.ndarray:
    """Mask of the first size(n) rows of a permutation of each class's n
    members; both parts of a class non-empty."""
    rng = derived_rng(seed, stream)
    drawn = np.zeros(len(labels), dtype=bool)
    for c in (0, 1):
        members = np.flatnonzero(labels == c)
        k = size(len(members))
        if not 0 < k < len(members):
            raise TooSmall(f"class {c} would have an empty train or test part")
        drawn[_permuted(members, rng)[:k]] = True
    return drawn


def rebalance(labels, seed) -> np.ndarray:
    """Indices of a 1:1 rebalanced sample of the given rows.

    With M = floor(total/2): the majority class is undersampled without
    replacement to M and the minority class is bootstrap-oversampled with
    replacement to M, so the output has exactly 2M rows.

    seed is a random.Random, or an int that seeds one. Undersampling keeps the
    first M of the permuted majority rows (_permuted); then each bootstrap
    pick is minority row int(random() * n) of n, which is below n for every
    n < 2^53.
    """
    y = np.asarray(labels)
    counts = [(y == 0).sum(), (y == 1).sum()]
    if counts[0] == 0 or counts[1] == 0:
        raise SingleClass("rebalance needs both classes")
    majority = 0 if counts[0] >= counts[1] else 1
    m = (counts[0] + counts[1]) // 2
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    under = _permuted(np.flatnonzero(y == majority), rng)[:m]
    min_rows = np.flatnonzero(y == 1 - majority)
    n = len(min_rows)
    over = min_rows[[int(rng.random() * n) for _ in range(m)]]
    return np.concatenate([under, over])


# --- ranking metrics --------------------------------------------------------
# _tie_grouped_counts and _two_u live in cohort, beside the rank-sum test that
# reads U off the same counts.

def _check_binary(labels, scores):
    """Labels as 0/1 ints and scores as floats, aligned; unequal lengths are a
    WidthMismatch, a label other than 0 or 1 a SchemaError and a NaN score,
    which has no rank, UndefinedStatistic."""
    raw = np.asarray(labels)
    s = np.asarray(scores, dtype=float)
    if len(raw) != len(s):
        raise WidthMismatch(f"{len(raw)} labels but {len(s)} scores")
    if not ((raw == 0) | (raw == 1)).all():
        raise SchemaError(f"labels must be 0/1, got {np.unique(raw)}")
    if np.isnan(s).any():
        raise UndefinedStatistic("ranking metrics are undefined for NaN scores")
    return raw.astype(int), s


def roc_auc(labels, scores):
    """ROC points and AUC: 2U / (2 * pos * neg), the concordance with half credit
    for ties, as one correctly rounded division of exact integers."""
    y, s = _check_binary(labels, scores)
    pos = int(y.sum())
    neg = len(y) - pos
    if pos == 0 or neg == 0:
        raise SingleClass("ROC needs both classes")
    _, tp, fp = _tie_grouped_counts(y, s)
    tpr = np.r_[0.0, tp / pos]
    fpr = np.r_[0.0, fp / neg]
    points = [(float(x), float(t)) for x, t in zip(fpr, tpr)]
    return points, _two_u(tp, fp) / (2 * pos * neg)


def _precision_recall(y, s, pos):
    """Recall and precision at each distinct score, highest first, and the
    average precision: their stepwise sum over pos positives."""
    _, tp, fp = _tie_grouped_counts(y, s)
    recall = tp / pos
    precision = tp / (tp + fp)
    # sequential accumulation keeps the sum order-deterministic, so the value
    # is bit-identical to a stepwise reference evaluation
    return recall, precision, float(np.add.accumulate(np.diff(recall, prepend=0.0) * precision)[-1])


def pr_aucpr(labels, scores):
    """Precision-recall points and average precision (stepwise sum)."""
    y, s = _check_binary(labels, scores)
    pos = int(y.sum())
    if pos == 0:
        raise NoPositives("precision-recall needs at least one positive")
    recall, precision, aucpr = _precision_recall(y, s, pos)
    points = [(0.0, 1.0)] + [(float(r), float(p)) for r, p in zip(recall, precision)]
    return points, aucpr


class Confusion(NamedTuple):
    tp: int
    fp: int
    fn: int
    tn: int


@dataclass(frozen=True)
class ThresholdChoice:
    threshold: float
    orientation: str  # ">=" predicts positive at or above, "<=" at or below
    sensitivity: float
    specificity: float
    confusion: Confusion


def choose_threshold(labels, scores, min_sens: float = 0.90) -> ThresholdChoice:
    """Most specific threshold whose sensitivity is at least min_sens; ties on
    specificity go to the higher sensitivity.

    Scores are a floor (">=") when AUC >= 0.5 and a ceiling otherwise, decided
    in integers: AUC >= 0.5 iff 2U >= pos * neg.
    Cuts run from the most to the least conservative, so sensitivity never
    falls and specificity never rises: the first compliant cut has the fewest
    false positives, and the last cut with as many has the most true ones.
    A min_sens outside [0, 1], NaN included, is a ConfigError.
    """
    if not 0.0 <= min_sens <= 1.0:
        raise ConfigError(f"min_sens must be in [0, 1], got {min_sens}")
    y, s = _check_binary(labels, scores)
    pos = int(y.sum())
    neg = len(y) - pos
    if pos == 0 or neg == 0:
        raise SingleClass("threshold choice needs both classes")
    thresholds, tp, fp = _tie_grouped_counts(y, s)
    orientation = ">=" if _two_u(tp, fp) >= pos * neg else "<="
    if orientation == "<=":
        thresholds, tp, fp = _tie_grouped_counts(y, -s)
        thresholds = -thresholds

    first = int(np.argmax(tp / pos >= min_sens))
    k = int(np.searchsorted(fp, fp[first], "right")) - 1
    threshold, tp_k, fp_k = float(thresholds[k]), int(tp[k]), int(fp[k])
    confusion = Confusion(tp=tp_k, fp=fp_k, fn=pos - tp_k, tn=neg - fp_k)
    return ThresholdChoice(
        threshold=threshold,
        orientation=orientation,
        sensitivity=tp_k / pos,
        specificity=(neg - fp_k) / neg,
        confusion=confusion,
    )


def f2(confusion: Confusion) -> float:
    """Recall-weighted F-measure (beta = 2): 5tp / (5tp + 4fn + fp), correctly rounded."""
    tp, fp, fn, _ = confusion
    if tp + fn == 0:
        raise NoPositives("F2 needs at least one actual positive")
    return 5 * tp / (5 * tp + 4 * fn + fp)


# --- tuning -----------------------------------------------------------------

def _stratified_folds(y, k, rng) -> np.ndarray:
    """Each row's fold, 0 to k - 1: each class's permuted members are cut into
    k consecutive chunks of np.array_split's sizes."""
    fold_of = np.empty(len(y), dtype=int)
    for cls in (0, 1):
        for f, chunk in enumerate(np.array_split(_permuted(np.flatnonzero(y == cls), rng), k)):
            fold_of[chunk] = f
    return fold_of


def cv_tune(X, y, config: ExperimentConfig) -> dict:
    """Stratified k-fold search over the learning-rate grid; returns the tuning
    section of eval-report/1: chosen_eta, chosen_rounds and the grid, one entry
    {eta, fold_aucprs, fold_rounds, mean_aucpr, std_aucpr} per eta, smallest first.

    Each fold's training part is rebalanced and passed to the booster as its
    distinct rows with their counts. Boosting runs with early stopping on the
    fold-validation average precision, and the grid entry maximizing
    (mean - std) of the per-fold bests wins; the smallest eta wins a tie. The
    selected round count is the rounded median of that entry's per-fold best
    rounds, at least 1.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    k = config.k_folds
    if (y == 1).sum() < k or (y == 0).sum() < k:
        raise TooFewPerClass(f"{k}-fold tuning needs at least {k} patients per class")

    fold_of = _stratified_folds(y, k, derived_rng(config.master_seed, STREAM_CV))
    rebalanced = []
    for f in range(k):
        train_rows, val_rows = np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)
        fold_rng = derived_rng(config.master_seed, STREAM_CV, f + 1)
        pick, counts = np.unique(train_rows[rebalance(y[train_rows], fold_rng)], return_counts=True)
        # every fold holds at least one positive (k <= positives)
        rebalanced.append((X[pick], y[pick], counts, X[val_rows], y[val_rows], int(y[val_rows].sum())))

    grid = []
    for eta in sorted(set(config.eta_grid)):
        tc = config.train_config(eta, config.max_rounds)
        fold_aucprs, fold_rounds = [], []
        for X_train, y_train, counts, X_val, y_val, pos in rebalanced:
            booster = Booster(X_train, y_train, tc, counts=counts)
            margins_val = np.full(len(y_val), booster.ensemble.base_score)
            best_aucpr, best_round = -math.inf, 0
            for r in range(1, config.max_rounds + 1):
                tree = booster.step()
                margins_val += eta * tree.predict(X_val)
                aucpr = _precision_recall(y_val, margins_val, pos)[2]
                if aucpr > best_aucpr:
                    best_aucpr, best_round = aucpr, r
                elif r - best_round >= config.patience:
                    break
            fold_aucprs.append(best_aucpr)
            fold_rounds.append(best_round)
        grid.append({"eta": eta, "fold_aucprs": fold_aucprs, "fold_rounds": fold_rounds,
                     "mean_aucpr": float(np.mean(fold_aucprs)),
                     "std_aucpr": float(np.std(fold_aucprs))})

    # max keeps the first of equal entries, so the smallest eta wins a tie
    chosen = max(grid, key=lambda e: e["mean_aucpr"] - e["std_aucpr"])
    rounds = sorted(chosen["fold_rounds"])
    median = (rounds[(k - 1) // 2] + rounds[k // 2]) / 2  # np.median's value, exactly
    return {"chosen_eta": chosen["eta"],
            "chosen_rounds": max(1, round_half_up(median)),
            "grid": grid}


# --- representative training ------------------------------------------------

def run_instance(X_train, y_train, X_sel, y_sel, tc: TrainConfig, master_seed: int,
                 index: int, feature_names=None):
    """Train instance `index` on its own rebalanced sample, passed as its
    distinct rows with their counts; returns the model and its entry in the
    selection log, {instance, seed_key, auc}.

    The rebalance draws from derived_rng(*seed_key), seed_key = (master_seed,
    STREAM_INSTANCE, index), a stream of its own keyed by the instance's
    number and not by its place in a shared sequence, so one instance
    reproduces without the other 49, in any order or process.
    """
    key = (master_seed, STREAM_INSTANCE, index)
    pick, counts = np.unique(rebalance(y_train, derived_rng(*key)), return_counts=True)
    model = gbt.fit(np.asarray(X_train, dtype=float)[pick], np.asarray(y_train)[pick],
                    tc, feature_names, counts)
    _, auc = roc_auc(y_sel, model.predict(X_sel))
    return model, {"instance": index, "seed_key": key, "auc": auc}


def train_representative(X_train, y_train, X_test, y_test, tc: TrainConfig,
                         n_instances: int, master_seed: int,
                         holdout_selection: bool = False,
                         feature_names=None):
    """Train n instances on independently rebalanced samples and keep the one
    with the highest selection AUC; ties go to the lowest instance index. All
    AUCs are correctly rounded ratios over one denominator, 2 * pos * neg, so
    comparing them compares the exact U values.

    Returns the kept model and the selection section of eval-report/1: on
    ("test" or "holdout"), the kept instance, and auc_log, every instance's
    run_instance entry in index order.

    Selection AUC is measured on the test set by default, which mirrors the
    experiment protocol but leaks test information into model choice; pass
    holdout_selection=True to score selection on a carved-out fifth of the
    training part instead.
    """
    X_train = np.asarray(X_train, dtype=float)
    y_train = np.asarray(y_train)
    if holdout_selection:
        hold = _stratified_draw(y_train, lambda n: max(1, round_half_up(0.2 * n)),
                                master_seed, STREAM_HOLDOUT)
        fit_X, fit_y = X_train[~hold], y_train[~hold]
        sel_X, sel_y = X_train[hold], y_train[hold]
    else:
        fit_X, fit_y = X_train, y_train
        sel_X, sel_y = np.asarray(X_test, dtype=float), np.asarray(y_test)

    # a running best holds one model at a time, not all n
    best_model, best, auc_log = None, None, []
    for i in range(1, n_instances + 1):
        model, entry = run_instance(fit_X, fit_y, sel_X, sel_y, tc, master_seed, i, feature_names)
        auc_log.append(entry)
        if best is None or entry["auc"] > best["auc"]:
            best_model, best = model, entry
    return best_model, {"on": "holdout" if holdout_selection else "test",
                        "instance": best["instance"], "auc_log": auc_log}


# --- full evaluation --------------------------------------------------------

def evaluate_model(label: str, cohort, config: ExperimentConfig, split_plan: SplitPlan) -> dict:
    """Full protocol for one model label ("S", "R", "G" or "SRG") over split_plan;
    bit-reproducible for a fixed config on one machine, and independent of
    training-row order.

    Returns the eval-report/1 document, ready for json.dumps (tuples are its
    arrays): the model label; test-set metrics (auc, aucpr, f2, sensitivity,
    specificity); the threshold chosen at the sensitivity floor and its
    confusion counts; the selection and tuning sections just as
    train_representative and cv_tune return them; the representative's gain
    importance; train/test sizes and dropped ids; the master seed; the config
    hash; and the ROC and PR points.
    """
    matrix = assemble_features(cohort, label)
    train_m = matrix.rows_for(split_plan.train_ids)
    test_m = matrix.rows_for(split_plan.test_ids)
    for part, name in ((train_m, "train"), (test_m, "test")):
        if len(set(part.y.tolist())) < 2:
            raise SingleClass(f"{name} part lost a class after feature drops")

    tuning = cv_tune(train_m.X, train_m.y, config)
    tc = config.train_config(tuning["chosen_eta"], tuning["chosen_rounds"])
    model, selection = train_representative(
        train_m.X, train_m.y, test_m.X, test_m.y, tc,
        n_instances=config.n_instances, master_seed=config.master_seed,
        holdout_selection=config.holdout_selection, feature_names=matrix.columns,
    )

    scores = model.predict(test_m.X)
    roc_points, auc = roc_auc(test_m.y, scores)
    pr_points, aucpr = pr_aucpr(test_m.y, scores)
    choice = choose_threshold(test_m.y, scores)

    return {
        "format": "eval-report/1",
        "model": label,
        "metrics": {
            "auc": auc,
            "aucpr": aucpr,
            "f2": f2(choice.confusion),
            "sensitivity": choice.sensitivity,
            "specificity": choice.specificity,
        },
        "threshold": {"value": choice.threshold, "orientation": choice.orientation},
        "confusion": choice.confusion._asdict(),
        "selection": selection,
        "tuning": tuning,
        "importance": importance_gain(model),
        "data": {"n_train": len(train_m.ids), "n_test": len(test_m.ids),
                 "dropped_ids": matrix.dropped_ids},
        "seeds": {"master_seed": config.master_seed},
        "config_hash": config.hash(),
        "roc_points": roc_points,
        "pr_points": pr_points,
    }
