"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way (loops,
enumeration, dense grids) and must not call into ecgtriage feature or metric
code. Two exceptions reuse package code around a reference core:
PerFeatureScanBooster subclasses gbt.Booster only to reuse its set-up and
boosting loop around a reference split search, and parse_ecg_per_cell reuses
the trace header parser and EcgRecord's checks around a per-cell conversion.
"""

import io
import itertools
import math
import re

import numpy as np

from ecgtriage.ecg_ingest import LEAD_NAMES, EcgRecord, _parse_header
from ecgtriage.errors import BadHeader, DataFormatError, LengthMismatch, MissingLead, SchemaError
from ecgtriage.gbt import Booster, TreeNode


def median_sort_and_pick(values):
    """Median of a 1-D sequence by sorting and picking the middle."""
    s = sorted(values)
    n = len(s)
    if n % 2 == 1:
        return s[n // 2]
    return (s[n // 2 - 1] + s[n // 2]) / 2.0


def peak_scan(x, y, z, onset, offset):
    """Exhaustive argmax of instantaneous magnitude over an inclusive window."""
    best_i, best_m = None, -1.0
    for i in range(onset, offset + 1):
        m = math.sqrt(x[i] ** 2 + y[i] ** 2 + z[i] ** 2)
        if m > best_m:
            best_i, best_m = i, m
    return best_i


def trapezoid_ref(series, dt):
    """Composite trapezoid written as an explicit loop."""
    total = 0.0
    for i in range(len(series) - 1):
        total += 0.5 * (series[i] + series[i + 1]) * dt
    return total


def mann_whitney_u_pairs(a, b):
    """U by direct pair counting: wins plus half ties."""
    u = 0.0
    for x in a:
        for y in b:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


def mann_whitney_exact_p(a, b):
    """Two-sided exact p by enumerating every assignment of the pooled values."""
    pooled = list(a) + list(b)
    n1 = len(a)
    mu = n1 * len(b) / 2.0
    observed = abs(mann_whitney_u_pairs(a, b) - mu)
    extreme = total = 0
    for combo in itertools.combinations(range(len(pooled)), n1):
        in_a = set(combo)
        ga = [pooled[i] for i in combo]
        gb = [pooled[i] for i in range(len(pooled)) if i not in in_a]
        total += 1
        if abs(mann_whitney_u_pairs(ga, gb) - mu) >= observed - 1e-12:
            extreme += 1
    return extreme / total


def auc_pair_counting(labels, scores):
    """Concordance probability with half credit for ties."""
    pos = [s for y, s in zip(labels, scores) if y == 1]
    neg = [s for y, s in zip(labels, scores) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def average_precision_bruteforce(labels, scores):
    """Stepwise average precision over descending distinct score thresholds."""
    labels = list(labels)
    scores = list(scores)
    n_pos = sum(labels)
    thresholds = sorted(set(scores), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        tp = sum(1 for y, s in zip(labels, scores) if s >= t and y == 1)
        fp = sum(1 for y, s in zip(labels, scores) if s >= t and y == 0)
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def threshold_scan(labels, scores, min_sens):
    """Exhaustive search matching the documented selection rule.

    Orientation from pair-counting AUC; among all distinct-score cuts with
    sensitivity >= min_sens, maximize specificity, then sensitivity, then take
    the more conservative cut.
    """
    labels = list(labels)
    scores = list(scores)
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    orientation = ">=" if auc_pair_counting(labels, scores) >= 0.5 else "<="
    best = None
    for t in sorted(set(scores)):
        if orientation == ">=":
            pred = [s >= t for s in scores]
            margin = t
        else:
            pred = [s <= t for s in scores]
            margin = -t
        tp = sum(1 for y, p in zip(labels, pred) if y == 1 and p)
        tn = sum(1 for y, p in zip(labels, pred) if y == 0 and not p)
        sens = tp / n_pos
        spec = tn / n_neg
        if sens < min_sens:
            continue
        key = (spec, sens, margin)
        if best is None or key > best[0]:
            best = (key, t, sens, spec)
    _, t, sens, spec = best
    return t, orientation, sens, spec


def cut_between(lo, hi):
    """The split threshold between distinct values lo < hi: their midpoint,
    or hi where the midpoint rounds to lo or overflows."""
    lo, hi = float(lo), float(hi)
    mid = (lo + hi) / 2.0
    return mid if lo < mid < math.inf else hi


def first_tree_bruteforce(X, y, max_depth, l2_reg, gamma, min_child_hessian, base_score):
    """Grow one Newton tree by exhaustively evaluating every candidate split.

    Returns nested tuples: ('leaf', weight) or
    ('split', feature, threshold, gain, left, right).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    p = 1.0 / (1.0 + math.exp(-base_score))
    g = np.full(len(y), p) - y
    h = np.full(len(y), p * (1.0 - p))

    def node_term(rows):
        gs = sum(g[i] for i in rows)
        hs = sum(h[i] for i in rows)
        return gs, hs

    def grow(rows, depth):
        gs, hs = node_term(rows)
        if depth >= max_depth or len(rows) < 2:
            return ("leaf", -gs / (hs + l2_reg))
        best = None
        for j in range(X.shape[1]):
            values = sorted(set(X[i, j] for i in rows))
            for lo, hi in zip(values, values[1:]):
                threshold = cut_between(lo, hi)
                left = [i for i in rows if X[i, j] < threshold]
                right = [i for i in rows if X[i, j] >= threshold]
                gl, hl = node_term(left)
                gr, hr = node_term(right)
                if hl < min_child_hessian or hr < min_child_hessian:
                    continue
                gain = 0.5 * (gl * gl / (hl + l2_reg) + gr * gr / (hr + l2_reg)
                              - (gs * gs) / (hs + l2_reg)) - gamma
                if best is None or gain > best[0]:
                    best = (gain, j, threshold, left, right)
        if best is None or best[0] <= 0.0:
            return ("leaf", -gs / (hs + l2_reg))
        gain, j, threshold, left, right = best
        return ("split", j, threshold, gain, grow(left, depth + 1), grow(right, depth + 1))

    return grow(list(range(len(y))), 0)


def first_tree_bruteforce_masked(X, y, max_depth, l2_reg, gamma, min_child_hessian,
                                 base_score):
    """Same exhaustive search as first_tree_bruteforce but with boolean-mask
    sums per candidate, fast enough for 200-row datasets."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    p = 1.0 / (1.0 + math.exp(-base_score))
    g = np.full(len(y), p) - y
    h = np.full(len(y), p * (1.0 - p))

    def grow(rows, depth):
        gs = float(g[rows].sum())
        hs = float(h[rows].sum())
        if depth >= max_depth or len(rows) < 2:
            return ("leaf", -gs / (hs + l2_reg))
        best = None
        for j in range(X.shape[1]):
            values = np.unique(X[rows, j])
            for lo, hi in zip(values, values[1:]):
                threshold = cut_between(lo, hi)
                mask = X[rows, j] < threshold
                gl = float(g[rows[mask]].sum())
                hl = float(h[rows[mask]].sum())
                gr, hr = gs - gl, hs - hl
                if hl < min_child_hessian or hr < min_child_hessian:
                    continue
                gain = 0.5 * (gl * gl / (hl + l2_reg) + gr * gr / (hr + l2_reg)
                              - gs * gs / (hs + l2_reg)) - gamma
                if best is None or gain > best[0]:
                    best = (gain, j, threshold, rows[mask], rows[~mask])
        if best is None or best[0] <= 0.0:
            return ("leaf", -gs / (hs + l2_reg))
        gain, j, threshold, left, right = best
        return ("split", j, threshold, gain, grow(left, depth + 1), grow(right, depth + 1))

    return grow(np.arange(len(y)), 0)


def mann_whitney_exact_p_pairmatrix(a, b):
    """Exact two-sided p via enumeration over a precomputed pair-score matrix."""
    pooled = np.asarray(list(a) + list(b), dtype=float)
    n1, n = len(a), len(pooled)
    # doubled pair score: 2 for a win, 1 for a tie
    score = (2 * (pooled[:, None] > pooled[None, :])
             + (pooled[:, None] == pooled[None, :])).astype(np.int64)
    mu2 = n1 * (n - n1)  # doubled mean of U
    observed = abs(int(score[:n1, n1:].sum()) - mu2)
    extreme = total = 0
    for combo in itertools.combinations(range(n), n1):
        rest = [i for i in range(n) if i not in combo]
        two_u = int(score[np.ix_(list(combo), rest)].sum())
        total += 1
        if abs(two_u - mu2) >= observed:
            extreme += 1
    return extreme / total


def yates_chi_square(table):
    """Yates statistic written out cell by cell."""
    (a, b), (c, d) = table
    n = a + b + c + d
    rows = (a + b, c + d)
    cols = (a + c, b + d)
    stat = 0.0
    for i, obs_row in enumerate(((a, b), (c, d))):
        for j, obs in enumerate(obs_row):
            expected = rows[i] * cols[j] / n
            stat += max(0.0, abs(obs - expected) - 0.5) ** 2 / expected
    return stat


# --- closed-form Gaussian-loop beat and its dense-grid feature oracle --------

def gaussian_loop_vcg(t_ms, bumps):
    """Sum of Gaussian bumps along fixed directions; (3, len(t)) in mV."""
    v = np.zeros((3, len(np.atleast_1d(t_ms))))
    for amp, width, center, direction in bumps:
        v += np.outer(direction, amp * np.exp(-0.5 * ((np.atleast_1d(t_ms) - center) / width) ** 2))
    return v


def dense_grid_geh(bumps, qrs_on_ms, qrs_off_ms, t_off_ms, baseline_ms=None, grid_points=60001):
    """All nine heterogeneity outputs from a dense grid over the closed form.

    Windows mirror the production definitions: depolarization
    [qrs_on, qrs_off], repolarization [qrs_off, t_off], QT [qrs_on, t_off].
    If baseline_ms is given, the closed form is shifted by its value there
    first (mirroring per-lead baseline subtraction, which commutes with any
    linear lead map).
    """
    offset = np.zeros((3, 1))
    if baseline_ms is not None:
        offset = gaussian_loop_vcg(np.array([baseline_ms]), bumps)

    def sample(lo, hi):
        t = np.linspace(lo, hi, grid_points)
        return t, gaussian_loop_vcg(t, bumps) - offset

    def peak(lo, hi):
        _, v = sample(lo, hi)
        mags = np.sqrt((v ** 2).sum(axis=0))
        return v[:, int(np.argmax(mags))]

    def area(lo, hi):
        t, v = sample(lo, hi)
        dt = t[1] - t[0]
        return np.array([np.trapezoid(v[i], dx=dt) for i in range(3)])

    def magnitude_integral(lo, hi):
        t, v = sample(lo, hi)
        return float(np.trapezoid(np.sqrt((v ** 2).sum(axis=0)), dx=t[1] - t[0]))

    def angle(u, w):
        c = float(np.dot(u, w) / (np.linalg.norm(u) * np.linalg.norm(w)))
        return math.degrees(math.acos(max(-1.0, min(1.0, c))))

    def direction(v):
        azimuth = math.degrees(math.atan2(v[2], v[0]))
        if azimuth <= -180.0:
            azimuth += 360.0
        elevation = math.degrees(math.acos(v[1] / np.linalg.norm(v)))
        return azimuth, elevation

    qrs_peak = peak(qrs_on_ms, qrs_off_ms)
    t_peak = peak(qrs_off_ms, t_off_ms)
    qrs_area = area(qrs_on_ms, qrs_off_ms)
    t_area = area(qrs_off_ms, t_off_ms)
    svg_area = area(qrs_on_ms, t_off_ms)
    svg_peak = qrs_peak + t_peak
    peak_az, peak_el = direction(svg_peak)
    area_az, area_el = direction(svg_area)
    return {
        "peak_qrst_angle_deg": angle(qrs_peak, t_peak),
        "area_qrst_angle_deg": angle(qrs_area, t_area),
        "peak_svg_azimuth_deg": peak_az,
        "area_svg_azimuth_deg": area_az,
        "peak_svg_elevation_deg": peak_el,
        "area_svg_elevation_deg": area_el,
        "peak_svg_mv": float(np.linalg.norm(svg_peak)),
        "vm_qti_mvms": magnitude_integral(qrs_on_ms, t_off_ms),
        "svg_mvms": float(np.linalg.norm(svg_area)),
    }


class PerFeatureScanBooster(Booster):
    """Booster whose split search is the earlier exact-greedy layout: presorted
    column orders, a membership mask, and one cumsum scan per feature, keeping
    a feature's best only when it strictly beats the lower features' best."""

    def __init__(self, X, y, config, feature_names=None):
        super().__init__(X, y, config, feature_names)
        self._order = np.argsort(self.X, axis=0, kind="stable")

    def _grow(self, idx, order, g, h, depth, leaf_values):
        # order is the package's presorted row order; the reference ignores it.
        # L2 penalty 1.0 and least child hessian 1.0, as the package fixes them
        G = float(g[idx].sum())
        H = float(h[idx].sum())

        def leaf():
            weight = -G / (H + 1.0)
            leaf_values[idx] = weight
            return TreeNode(weight=weight)

        if depth >= self.config.max_depth or len(idx) < 2:
            return leaf()

        best_gain, best_feature, best_threshold = -math.inf, -1, math.nan
        parent_term = G * G / (H + 1.0)
        member = np.zeros(len(self.y), dtype=bool)
        member[idx] = True
        for j in range(self.X.shape[1]):
            ordered = self._order[:, j][member[self._order[:, j]]]
            values = self.X[ordered, j]
            if values[0] == values[-1]:
                continue
            gl = np.cumsum(g[ordered])[:-1]
            hl = np.cumsum(h[ordered])[:-1]
            gr = G - gl
            hr = H - hl
            boundary = values[:-1] < values[1:]
            feasible = np.flatnonzero(boundary & (hl >= 1.0) & (hr >= 1.0))
            if feasible.size == 0:
                continue
            gains = 0.5 * (gl[feasible] ** 2 / (hl[feasible] + 1.0)
                           + gr[feasible] ** 2 / (hr[feasible] + 1.0)
                           - parent_term)
            k = int(feasible[np.argmax(gains)])
            top = float(np.max(gains))
            if top > best_gain:
                best_gain = top
                best_feature = j
                best_threshold = cut_between(values[k], values[k + 1])

        if best_feature < 0 or best_gain <= 0.0:
            return leaf()

        col = self.X[idx, best_feature]
        return TreeNode(
            feature=best_feature,
            threshold=best_threshold,
            gain=best_gain,
            left=self._grow(idx[col < best_threshold], None, g, h, depth + 1, leaf_values),
            right=self._grow(idx[~(col < best_threshold)], None, g, h, depth + 1, leaf_values),
        )


# A trace cell: float()'s syntax in ASCII digits and letters, without "_", padded
# by Unicode whitespace other than the separators U+001C-U+001F.
_PAD = r"(?:(?![\x1c-\x1f])\s)*"
_TRACE_CELL = re.compile(
    _PAD + r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
    r"|[iI][nN][fF](?:[iI][nN][iI][tT][yY])?|[nN][aA][nN])" + _PAD)


def parse_ecg_per_cell(path):
    """ecg_ingest.parse_ecg converting one cell at a time with float(), after
    matching it against _TRACE_CELL. The second line names the columns when
    one of its stripped cells is a lead name."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: unreadable trace ({exc})") from None
    if not lines:
        raise BadHeader(f"{path}: empty file")
    rate, gain_uv = _parse_header(lines[0], path)

    body = lines[1:]
    names = [c.strip() for c in body[0].split(",")] if body else []
    if any(name in LEAD_NAMES for name in names):
        for want in LEAD_NAMES:
            if want not in names:
                raise MissingLead(want)
        if len(names) != len(LEAD_NAMES):
            raise BadHeader(f"{path}: unexpected column names {names}")
        order = [names.index(want) for want in LEAD_NAMES]
        body = body[1:]
    else:
        order = list(range(len(LEAD_NAMES)))

    rows = np.empty((len(body), len(LEAD_NAMES)))
    for i, line in enumerate(body):
        cells = line.split(",")
        if len(cells) != len(LEAD_NAMES):
            raise LengthMismatch(f"{path}: row {i} has {len(cells)} columns, expected 12")
        if not all(_TRACE_CELL.fullmatch(cell) for cell in cells):
            raise SchemaError(f"{path}: non-numeric value", row=i)
        rows[i] = [float(cells[j]) for j in order]

    rows *= gain_uv / 1000.0
    return EcgRecord(leads=np.ascontiguousarray(rows.T), sampling_rate_hz=rate)


def savetxt_text(cells):
    """A trace body as np.savetxt writes it: "%.3f" cells, "," between, "\n" after each row."""
    buf = io.StringIO()
    np.savetxt(buf, cells, fmt="%.3f", delimiter=",", newline="\n")
    return buf.getvalue()


def per_beat_vcg(bumps, t_ms, centers):
    """A record's VCG summed one beat at a time, each beat its own pass of
    (amp, width_ms, center_ms, direction) Gaussian bumps over the whole record:
    0 + beat 1 + beat 2 + ..., each beat 0 + its bumps in order."""
    v = np.zeros((3, len(t_ms)))
    for c in centers:
        t_rel = t_ms - t_ms[c]
        beat = np.zeros((3, len(t_ms)))
        for amp, width, center, direction in bumps:
            beat += np.outer(direction, amp * np.exp(-0.5 * ((t_rel - center) / width) ** 2))
        v += beat
    return v
