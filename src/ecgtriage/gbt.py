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
least MIN_CHILD_HESSIAN = 1. No denominator is then below 1 by more than
rounding, and |GL|, |G| <= n, so every gain is finite. The prediction is
sigmoid(base_score + lr * sum of tree outputs), with base_score the log-odds of
the training prevalence.

The matrix never changes while a booster trains, so each column is sorted
once, stably (tied values keep row order, NaN last), when the booster is built;
every tree starts from that order, the column block of exact greedy XGBoost
(Chen & Guestrin 2016, section 4.1). A split hands each child its rows' order by
a stable partition of the parent's, which is the order a stable sort of the
child's rows would give. A node then scores all columns in one pass: cumulative
sums of g and h along each column's order. Each round pairs them as one complex
array g + i h, so a node gathers and sums once; complex addition adds the real
parts and the imaginary parts separately, in the same left-to-right order, so
GL and HL come out bit for bit as two real sums would give them. The hessian
tests and the gains are evaluated at value boundaries only. Tied gains resolve
to the lowest feature index and then the lowest threshold, so repeated fits
come out identical.
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

    def gain_by_feature(self, totals: dict[int, float]):
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            totals[node.feature] = totals.get(node.feature, 0.0) + node.gain
            stack.append(node.left)
            stack.append(node.right)


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


@dataclass(frozen=True)
class ImportanceEntry:
    name: str
    gain: float
    percent: float


@dataclass(frozen=True)
class ImportanceTable:
    entries: tuple[ImportanceEntry, ...]
    no_splits: bool


def _sigmoid(m: np.ndarray) -> np.ndarray:
    out = np.empty_like(m)
    pos = m >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-m[pos]))
    e = np.exp(m[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class Booster:
    """Incremental trainer: one call to step() grows and applies one tree."""

    def __init__(self, X, y, config: TrainConfig, feature_names=None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or len(X) == 0:
            raise EmptyMatrix("training matrix is empty")
        if len(X) != len(y):
            raise WidthMismatch(f"{len(X)} rows but {len(y)} labels")
        classes = np.unique(y)
        if not np.array_equal(classes, [0.0, 1.0]):
            if len(classes) == 1:
                raise SingleClass(f"training labels contain only class {classes[0]:g}")
            raise SchemaError(f"labels must be 0/1, got {classes}")
        if feature_names is None:
            feature_names = tuple(f"f{j}" for j in range(X.shape[1]))
        if len(feature_names) != X.shape[1]:
            raise WidthMismatch("feature name manifest does not match matrix width")

        self.X = X
        self.y = y
        self.config = config
        # feature-major copy and its stable per-column presort, both (F, n);
        # row i of column j sits at j * n + i of the flat copy
        self._XT = np.ascontiguousarray(X.T)
        self._order = np.argsort(self._XT, axis=1, kind="stable")
        self._offsets = np.arange(0, X.size, len(X))[:, None]
        prevalence = float(y.mean())
        base = math.log(prevalence / (1.0 - prevalence))
        self.ensemble = Ensemble(
            base_score=base,
            learning_rate=config.learning_rate,
            trees=[],
            feature_names=tuple(feature_names),
        )
        self._margins = np.full(len(y), base)

    def step(self) -> Tree:
        p = _sigmoid(self._margins)
        g = p - self.y
        h = p * (1.0 - p)
        leaf_values = np.empty(len(self.y))
        tree = Tree(self._grow(np.arange(len(self.y)), self._order, g, h, 0, leaf_values))
        self.ensemble.trees.append(tree)
        self._margins = self._margins + self.config.learning_rate * leaf_values
        return tree

    def run(self, num_rounds: int) -> Ensemble:
        for _ in range(num_rounds):
            self.step()
        return self.ensemble

    def _grow(self, idx, order, g, h, depth, leaf_values) -> TreeNode:
        """Grow the subtree of the rows idx (ascending); order is (F, len(idx)),
        each column's rows in (value, row index) order. g lies in [-1, 1] and h
        in [0, 1/4], as step() makes them."""
        XT, F = self._XT, len(self._XT)
        gh = np.empty(len(g), complex)  # g + i h, set part by part: each keeps its bits
        gh.real, gh.imag = g, h
        root = TreeNode()
        # nodes still to grow, with their rows and depth; keep, unless None,
        # selects a node's cells of its parent's (F, n) column orders and sorted
        # values: a stable partition keeps each column's (value, row index) order
        stack = [(root, idx, depth, order, XT.take(order + self._offsets), None)]
        while stack:
            node, rows, depth, order, values, keep = stack.pop()
            G, H = float(g.take(rows).sum()), float(h.take(rows).sum())
            split = None
            # No cut can leave m = MIN_CHILD_HESSIAN on both sides of a node with
            # H < 2m: such a cut has hl >= m > H/2 and fl(H - hl) >= m > 0, so
            # H/2 < hl < H, H - hl is exact (Sterbenz) and H >= 2m. A node with
            # one row or no feature has no cut either: the scan returns the same leaf.
            if depth < self.config.max_depth and H >= 2 * MIN_CHILD_HESSIAN:
                if keep is not None:
                    order = order.compress(keep).reshape(F, -1)
                    values = values.compress(keep).reshape(F, -1)
                split = _best_split(values, gh.take(order), G, H)
            if split is None:
                node.weight = -G / (H + L2_REG)
                leaf_values[rows] = node.weight
                continue
            node.gain, node.feature, node.threshold = split
            node.left, node.right = TreeNode(), TreeNode()
            goes = XT[node.feature] < node.threshold
            goes_left, keep = goes.take(rows), goes.take(order).ravel()
            stack.append((node.right, rows.compress(~goes_left), depth + 1, order, values, ~keep))
            stack.append((node.left, rows.compress(goes_left), depth + 1, order, values, keep))
        return root


def _best_split(values, gh, G, H):
    """The first best split of a node as (gain, feature, threshold), or None.

    values holds the node's sorted column values, (F, n), and gh its (g, h)
    pairs in the same order. Cuts lie at value boundaries and leave at least
    MIN_CHILD_HESSIAN on both sides; of equal gains the lowest feature wins,
    then the lowest threshold."""
    n = values.shape[1]
    flat = values.ravel()
    edge = flat[:-1] < flat[1:]
    edge[n - 1::n] = False  # no boundary from one column's last row to the next's first
    bounds = edge.nonzero()[0]
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
    return gain, cut // n, mid if lo < mid < math.inf else hi


def fit(X, y, config: TrainConfig, feature_names=None) -> Ensemble:
    """Train a boosted ensemble for config.num_rounds rounds."""
    return Booster(X, y, config, feature_names).run(config.num_rounds)


def importance_gain(model: Ensemble) -> ImportanceTable:
    """Total recorded split gain per feature, normalized to percentages."""
    totals: dict[int, float] = {}
    for tree in model.trees:
        tree.gain_by_feature(totals)
    grand = sum(totals.values())
    if not totals or grand <= 0:
        return ImportanceTable(entries=(), no_splits=True)
    entries = tuple(
        ImportanceEntry(
            name=model.feature_names[j],
            gain=totals.get(j, 0.0),
            percent=100.0 * totals.get(j, 0.0) / grand,
        )
        for j in range(len(model.feature_names))
    )
    return ImportanceTable(entries=entries, no_splits=False)
