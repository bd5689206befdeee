"""Gradient-boosted decision trees for binary classification, written from
scratch with second-order (Newton) split gain.

Per boosting round, with current probabilities p: gradients g = p - y in
[-1, 1] and hessians h = p (1 - p) in [0, 1/4]; a tree is grown greedily,
scoring each candidate split

    gain = 1/2 * [GL^2/(HL + 1) + GR^2/(HR + 1) - G^2/(H + 1)]

over the exact midpoints between sorted distinct feature values, or the higher
value where the midpoint rounds to the lower one or overflows. Leaf weight is
-G/(H + 1). The regularisation is XGBoost's default, fixed (Chen & Guestrin
2016): lambda = L2_REG = 1, gamma = 0, and each child holds a hessian sum of at
least MIN_CHILD_HESSIAN = 1. No denominator is then below 1, and |GL|, |G| <= N,
so every gain is finite. The prediction is sigmoid(base_score + lr * sum of
tree outputs), with base_score the log-odds of the training prevalence.

A training row may stand for c >= 1 identical rows: its integer count c
multiplies its g and h, and the prevalence is sum(c y) / sum(c), so a fit on
distinct rows with counts is the fit on the rows repeated. Each round rounds g
and h to the grid 2^-k, k = 53 - bit_length(N) with N = sum(c), before the
counts multiply them. As |g| <= 1 and h <= 1/4, every partial sum is then a
multiple of 2^-k of magnitude at most N < 2^(53-k), which float addition gives
exactly in any order (the pre-rounding of Demmel & Nguyen 2013). So G, H, each
gain and each leaf depend only on a node's set of rows, not on the order of
the training rows, and a child takes its (G, H) from its parent's prefix sums
with no rounding: (GL, HL) at the chosen cut, or (G - GL, H - HL). Only the
root sums its rows. N must stay below 2^51, so that k >= 2: a grid coarser
than 1/4 rounds every hessian to 0. A larger total is refused; the pipeline's
totals are sample sizes, far below it.

The matrix never changes while a booster trains, so each column is sorted
once, stably (tied values keep row order, NaN last), and its sorted values are
gathered once, when the booster is built; every tree's root starts from both,
the column block of exact greedy XGBoost (Chen & Guestrin 2016, section 4.1). A
split hands each child its rows' order by a stable partition of the parent's.
A node then scores all columns in one pass: cumulative sums along each
column's order of g + i h, one complex array whose parts add separately. The
hessian tests and the gains are evaluated at value boundaries only. Tied gains
resolve to the lowest feature index and then the lowest threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyMatrix, SchemaError, SingleClass, WidthMismatch

# L2 penalty on leaf weights, and the least hessian sum a child may hold
L2_REG = 1.0
MIN_CHILD_HESSIAN = 1.0


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    num_rounds: int
    max_depth: int = 6

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if self.num_rounds < 1:
            raise ConfigError("num_rounds must be >= 1")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")


@dataclass
class TreeNode:
    """Internal split node or leaf. Leaves carry only a weight."""

    weight: float | None = None
    feature: int | None = None
    threshold: float | None = None
    gain: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class Tree:
    root: TreeNode

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Raw leaf weights for each row; a row goes left when its cell is below
        the threshold, so a NaN cell goes right, as it does in training."""
        out = np.empty(len(X))
        stack = [(self.root, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if len(idx) == 0:
                continue
            if node.is_leaf:
                out[idx] = node.weight
                continue
            goes_left = X[idx, node.feature] < node.threshold
            stack.append((node.left, idx[goes_left]))
            stack.append((node.right, idx[~goes_left]))
        return out


@dataclass
class Ensemble:
    base_score: float
    learning_rate: float
    trees: list[Tree]
    feature_names: tuple[str, ...]

    def margins(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise WidthMismatch(
                f"rows have {X.shape[1] if X.ndim == 2 else '?'} features, "
                f"model expects {len(self.feature_names)}"
            )
        m = np.full(len(X), self.base_score)
        for tree in self.trees:
            m += self.learning_rate * tree.predict(X)
        return m

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Probabilities, clipped into the open interval (0, 1)."""
        p = _sigmoid(self.margins(X))
        return np.clip(p, 1e-15, float(np.nextafter(1.0, 0.0)))


def _sigmoid(m: np.ndarray) -> np.ndarray:
    out = np.empty_like(m)
    pos = m >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-m[pos]))
    e = np.exp(m[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class Booster:
    """Incremental trainer: one call to step() grows and applies one tree."""

    def __init__(self, X, y, config: TrainConfig, feature_names=None, counts=None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        counts = np.ones(len(y)) if counts is None else np.asarray(counts, dtype=float)
        if X.ndim != 2 or len(X) == 0:
            raise EmptyMatrix("training matrix is empty")
        if len(X) != len(y):
            raise WidthMismatch(f"{len(X)} rows but {len(y)} labels")
        if counts.shape != y.shape:
            raise WidthMismatch(f"{len(y)} rows but counts of shape {counts.shape}")
        if not (np.isfinite(counts) & (counts >= 1.0) & (counts == np.floor(counts))).all():
            raise SchemaError("counts must be finite integers >= 1")
        total = int(counts.sum())
        if total >= 2 ** 51:
            raise SchemaError(f"counts must sum below 2^51 for a grid of 1/4 or finer, got {total}")
        classes = sorted(set(y.tolist()))
        if classes != [0.0, 1.0]:
            if len(classes) == 1:
                raise SingleClass(f"training labels contain only class {classes[0]:g}")
            raise SchemaError(f"labels must be 0/1, got {classes}")
        if feature_names is None:
            feature_names = tuple(f"f{j}" for j in range(X.shape[1]))
        if len(feature_names) != X.shape[1]:
            raise WidthMismatch("feature name manifest does not match matrix width")

        self.X, self.y, self.config = X, y, config
        # feature-major copy, its stable per-column presort and the sorted
        # values, all (F, n), built once: every tree's root starts from them
        self._XT = np.ascontiguousarray(X.T)
        self._order = np.argsort(self._XT, axis=1, kind="stable")
        self._sorted = np.take_along_axis(self._XT, self._order, axis=1)
        self._counts = counts
        prevalence = float((counts * y).sum()) / total
        base = math.log(prevalence / (1.0 - prevalence))
        self.ensemble = Ensemble(base_score=base, learning_rate=config.learning_rate, trees=[],
                                 feature_names=tuple(feature_names))
        self._margins = np.full(len(y), base)
        self._scale = 2.0 ** (53 - total.bit_length())

    def step(self) -> Tree:
        p, s = _sigmoid(self._margins), self._scale  # s = 2^k
        g = np.rint((p - self.y) * s) / s * self._counts
        h = np.rint(p * (1.0 - p) * s) / s * self._counts
        leaf_values = np.empty(len(self.y))
        tree = Tree(self._grow(g, h, leaf_values))
        self.ensemble.trees.append(tree)
        self._margins = self._margins + self.config.learning_rate * leaf_values
        return tree

    def run(self, num_rounds: int) -> Ensemble:
        for _ in range(num_rounds):
            self.step()
        return self.ensemble

    def _grow(self, g, h, leaf_values) -> TreeNode:
        """Grow one tree over all rows and write each row's leaf weight into
        leaf_values; g and h lie on step()'s grid, so the root's sums are exact."""
        XT, F = self._XT, len(self._XT)
        gh = np.empty(len(g), complex)  # g + i h, set part by part: each keeps its bits
        gh.real, gh.imag = g, h
        root = TreeNode()
        # nodes still to grow, with their rows and depth; keep, unless None,
        # selects a node's cells of its parent's (F, n) column orders and sorted
        # values: a stable partition keeps each column's (value, row index) order
        stack = [(root, np.arange(len(g)), 0, self._order, self._sorted, None,
                  float(g.sum()), float(h.sum()))]
        while stack:
            node, rows, depth, order, values, keep, G, H = stack.pop()
            split = None
            # With H < 2m no cut leaves m = MIN_CHILD_HESSIAN on both sides, as H - hl
            # is exact. One row or no feature leaves no cut either; the scan finds none.
            if depth < self.config.max_depth and H >= 2 * MIN_CHILD_HESSIAN:
                if keep is not None:
                    order = order.compress(keep).reshape(F, -1)
                    values = values.compress(keep).reshape(F, -1)
                split = _best_split(values, gh.take(order), G, H)
            if split is None:
                node.weight = (0.0 - G) / (H + L2_REG)  # +0.0 for either zero G
                leaf_values[rows] = node.weight
                continue
            node.gain, node.feature, node.threshold, gl, hl = split
            node.left, node.right = TreeNode(), TreeNode()
            goes = XT[node.feature] < node.threshold
            goes_left, keep = goes.take(rows), goes.take(order).ravel()
            stack.append((node.right, rows.compress(~goes_left), depth + 1, order, values, ~keep,
                          G - gl, H - hl))
            stack.append((node.left, rows.compress(goes_left), depth + 1, order, values, keep, gl, hl))
        return root


def _best_split(values, gh, G, H):
    """The first best split of a node as (gain, feature, threshold, gl, hl),
    with gl and hl the prefix sums left of the cut, or None.

    values holds the node's sorted column values, (F, n), and gh its (g, h)
    pairs in the same order. Cuts lie at value boundaries and leave at least
    MIN_CHILD_HESSIAN on both sides; of equal gains the lowest feature wins,
    then the lowest threshold. A cut across two columns has hr = H - hl = 0."""
    n = values.shape[1]
    flat = values.ravel()
    bounds = (flat[:-1] < flat[1:]).nonzero()[0]
    if bounds.size == 0:
        return None
    left = gh.cumsum(axis=1).take(bounds)
    gl, hl = left.real, left.imag
    hr = H - hl
    gains = 0.5 * (gl ** 2 / (hl + L2_REG) + (G - gl) ** 2 / (hr + L2_REG) - G * G / (H + L2_REG))
    gains = np.where(np.minimum(hl, hr) >= MIN_CHILD_HESSIAN, gains, -np.inf)
    best = gains.argmax()
    gain = float(gains[best])
    if gain <= 0.0:
        return None
    cut = int(bounds[best])
    lo, hi = flat.item(cut), flat.item(cut + 1)
    mid = (lo + hi) / 2.0  # rounds to lo between adjacent values, overflows near the limit
    return gain, cut // n, mid if lo < mid < math.inf else hi, gl.item(best), hl.item(best)


def fit(X, y, config: TrainConfig, feature_names=None, counts=None) -> Ensemble:
    """Train a boosted ensemble for config.num_rounds rounds."""
    return Booster(X, y, config, feature_names, counts).run(config.num_rounds)


def importance_gain(model: Ensemble) -> dict:
    """The importance section of eval-report/1: per feature, in order, its total
    split gain and that total's percent of all. Each tree adds its gains
    depth-first, right child first. A split's gain is positive; with no split
    in any tree, no_splits is true and features is empty."""
    totals: dict[int, float] = {}
    for tree in model.trees:
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                totals[node.feature] = totals.get(node.feature, 0.0) + node.gain
                stack += (node.left, node.right)
    if not totals:
        return {"no_splits": True, "features": []}
    grand = sum(totals.values())
    return {"no_splits": False, "features": [
        {"name": name, "gain": totals.get(j, 0.0), "percent": 100.0 * totals.get(j, 0.0) / grand}
        for j, name in enumerate(model.feature_names)]}
