"""Patient cohort: records, feature-set assembly, and descriptive statistics.

The cohort table is a comma-separated file with one header row. Columns, in
order: id, sex, age_years, bmi, prev_cs, prev_mi, prev_pci, prev_stroke, htn,
dm, outcome, the six standard interval measures, then the nine heterogeneity
measures. Booleans are 0/1, sex is F/M, outcome is positive/negative, feature
cells may be empty when extraction failed for that patient. An id names the
patient's trace and annotation files and keys its extract_log.txt line: it is
non-empty, holds no control character, line or paragraph separator (U+2028,
U+2029), "/" or "\\", and is not "." or "..".

The measure columns are the fields, in order, of the record dataclasses
ecg_ingest.StandardEcgMeasures and geh.GehMeasures (less its degenerate flags).
A measure block loads when every cell of a plain float field is filled. A numeric
cell follows the numeral rule of trace files (ecg_ingest.plain_float): it is
written in ASCII without "_", apart from the whitespace around it.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import logging
import math
import re
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .ecg_ingest import StandardEcgMeasures, plain_float
from .errors import (
    DegenerateTable,
    DuplicateId,
    EmptyGroup,
    MissingFeature,
    SchemaError,
    UndefinedStatistic,
)
from .geh import GehMeasures

log = logging.getLogger(__name__)

# an id character that would split a log line or leave the trace directory
_UNSAFE_ID_CHAR = re.compile(r"[\x00-\x1f\x7f-\x9f\u2028\u2029/\\]")

STANDARD_COLUMNS, GEH_COLUMNS = (
    tuple(f.name for f in dataclasses.fields(cls) if f.name != "degenerate")
    for cls in (StandardEcgMeasures, GehMeasures))
BOOL_COLUMNS = ("prev_cs", "prev_mi", "prev_pci", "prev_stroke", "htn", "dm")
RISK_COLUMNS = ("sex_f", "age_years", "bmi") + BOOL_COLUMNS
COHORT_COLUMNS = (
    ("id", "sex", "age_years", "bmi") + BOOL_COLUMNS + ("outcome",)
    + STANDARD_COLUMNS + GEH_COLUMNS
)
# each model label and the feature columns it trains on
MODEL_COLUMNS = {"S": STANDARD_COLUMNS, "R": RISK_COLUMNS, "G": GEH_COLUMNS,
                 "SRG": STANDARD_COLUMNS + RISK_COLUMNS + GEH_COLUMNS}
# the attribute of a PatientRecord that holds each feature column; None: the record itself
_OWNER = {**dict.fromkeys(RISK_COLUMNS), **dict.fromkeys(STANDARD_COLUMNS, "standard"),
          **dict.fromkeys(GEH_COLUMNS, "geh")}
# each measure block: its class, its columns, and those whose field is a plain float
_MEASURE_BLOCKS = tuple(
    (cls, columns, [c for c in columns if typing.get_type_hints(cls)[c] is float])
    for cls, columns in ((StandardEcgMeasures, STANDARD_COLUMNS), (GehMeasures, GEH_COLUMNS)))

# exact enumeration below this pooled size, normal approximation above
EXACT_RANK_TEST_MAX_N = 16
# modified Lentz: floor for vanishing denominators, relative stop, term cap
_CF_TINY = 1e-300
_CF_EPS = 1e-16
_CF_MAX_TERMS = 10_000


@dataclass(frozen=True)
class PatientRecord:
    id: str
    sex: str
    age_years: float
    bmi: float
    prev_cs: bool
    prev_mi: bool
    prev_pci: bool
    prev_stroke: bool
    htn: bool
    dm: bool
    outcome: str
    standard: StandardEcgMeasures | None = None
    geh: GehMeasures | None = None

    def __post_init__(self):
        if self.sex not in ("F", "M"):
            raise SchemaError(f"sex must be F or M, got {self.sex!r}")
        if self.outcome not in ("positive", "negative"):
            raise SchemaError(f"outcome must be positive or negative, got {self.outcome!r}")
        if not self.age_years > 0:
            raise SchemaError(f"age_years must be positive, got {self.age_years}")
        if not self.bmi > 0:
            raise SchemaError(f"bmi must be positive, got {self.bmi}")

    @property
    def label(self) -> int:
        return 1 if self.outcome == "positive" else 0

    def feature_value(self, column: str) -> float | None:
        if column == "sex_f":
            return 1.0 if self.sex == "F" else 0.0
        owner = self if _OWNER[column] is None else getattr(self, _OWNER[column])
        value = None if owner is None else getattr(owner, column)
        return None if value is None else float(value)


@dataclass(frozen=True)
class ModelSpec:
    """One of the four feature sets: S, R, G or their union SRG."""

    label: str

    def __post_init__(self):
        if self.label not in MODEL_COLUMNS:
            raise SchemaError(f"unknown model label {self.label!r}")

    @property
    def features(self) -> tuple[str, ...]:
        return MODEL_COLUMNS[self.label]


@dataclass(frozen=True)
class FeatureMatrix:
    X: np.ndarray
    y: np.ndarray
    columns: tuple[str, ...]
    ids: tuple[str, ...]
    dropped_ids: tuple[str, ...] = ()

    def rows_for(self, ids) -> "FeatureMatrix":
        """Submatrix for the given patient ids (ids absent from the matrix are skipped)."""
        index = {pid: i for i, pid in enumerate(self.ids)}
        keep = [index[pid] for pid in ids if pid in index]
        return FeatureMatrix(
            X=self.X[keep],
            y=self.y[keep],
            columns=self.columns,
            ids=tuple(self.ids[i] for i in keep),
            dropped_ids=self.dropped_ids,
        )


def _parse_float_cell(cell: str, row: int, column: str) -> float | None:
    if cell == "":
        return None
    try:
        value = plain_float(cell)
    except ValueError:
        raise SchemaError("non-numeric cell", row=row, column=column) from None
    if not math.isfinite(value):
        raise SchemaError("non-finite cell", row=row, column=column)
    return value


def _parse_bool_cell(cell: str, row: int, column: str) -> bool:
    if cell not in ("0", "1"):
        raise SchemaError("boolean cell must be 0 or 1", row=row, column=column)
    return cell == "1"


def load_cohort(path) -> list[PatientRecord]:
    """Read and validate a cohort table."""
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise SchemaError(f"{path}: unreadable cohort table ({exc})") from None
    if not rows:
        raise SchemaError(f"{path}: empty cohort table")
    if tuple(rows[0]) != COHORT_COLUMNS:
        raise SchemaError(f"{path}: header does not match the cohort schema")

    records: list[PatientRecord] = []
    seen: set[str] = set()
    for i, cells in enumerate(rows[1:], start=1):
        if len(cells) != len(COHORT_COLUMNS):
            raise SchemaError("wrong column count", row=i)
        cell = dict(zip(COHORT_COLUMNS, cells))
        if cell["id"] == "":
            raise SchemaError("empty id", row=i, column="id")
        if _UNSAFE_ID_CHAR.search(cell["id"]) or cell["id"] in (".", ".."):
            raise SchemaError(f"id {cell['id']!r} is not a plain file name", row=i, column="id")
        if cell["id"] in seen:
            raise DuplicateId(f"duplicate patient id {cell['id']!r} (row {i})")
        seen.add(cell["id"])

        def req(column):
            value = _parse_float_cell(cell[column], i, column)
            if value is None:
                raise SchemaError("required cell is empty", row=i, column=column)
            return value

        measure = {c: _parse_float_cell(cell[c], i, c) for c in STANDARD_COLUMNS + GEH_COLUMNS}
        standard, geh = (
            None if any(measure[c] is None for c in required) else cls(**{c: measure[c] for c in columns})
            for cls, columns, required in _MEASURE_BLOCKS)

        # cell errors name their row and column; only PatientRecord's own checks need the row
        age_years, bmi = req("age_years"), req("bmi")
        flags = {c: _parse_bool_cell(cell[c], i, c) for c in BOOL_COLUMNS}
        try:
            record = PatientRecord(id=cell["id"], sex=cell["sex"], age_years=age_years, bmi=bmi,
                                   outcome=cell["outcome"], standard=standard, geh=geh, **flags)
        except SchemaError as exc:
            raise SchemaError(str(exc), row=i) from None
        records.append(record)

    n_pos = sum(r.label for r in records)
    log.info("loaded %d patients (%d negative / %d positive) from %s",
             len(records), len(records) - n_pos, n_pos, path)
    return records


def _cell_str(value: float | None) -> str:
    if value is None:
        return ""
    return repr(float(value))


def save_cohort(records, path):
    """Write a cohort table in the canonical schema."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COHORT_COLUMNS)
        for r in records:
            row = [r.id, r.sex, _cell_str(r.age_years), _cell_str(r.bmi)]
            row += ["1" if getattr(r, c) else "0" for c in BOOL_COLUMNS]
            row.append(r.outcome)
            row += [_cell_str(r.feature_value(c)) for c in STANDARD_COLUMNS + GEH_COLUMNS]
            writer.writerow(row)


def assemble_features(cohort, spec: ModelSpec) -> FeatureMatrix:
    """Feature matrix for one model spec; patients missing any feature are dropped."""
    columns = spec.features
    kept_rows, kept_y, kept_ids, dropped = [], [], [], []
    for record in cohort:
        values = [record.feature_value(c) for c in columns]
        if any(v is None for v in values):
            dropped.append(record.id)
            continue
        kept_rows.append(values)
        kept_y.append(record.label)
        kept_ids.append(record.id)
    if dropped:
        log.info("model %s: dropped %d of %d patients with incomplete features",
                 spec.label, len(dropped), len(cohort))
    if not kept_rows:
        raise MissingFeature(f"no patient has complete features for model {spec.label}")
    return FeatureMatrix(
        X=np.asarray(kept_rows, dtype=float),
        y=np.asarray(kept_y, dtype=int),
        columns=columns,
        ids=tuple(kept_ids),
        dropped_ids=tuple(dropped),
    )


# --- hypothesis tests -------------------------------------------------------

class MannWhitneyResult(NamedTuple):
    u: float
    p: float


def _tie_grouped_counts(y, s):
    """Cumulative TP/FP at each distinct score, descending; ties grouped."""
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    group_end = np.flatnonzero(np.r_[s_sorted[:-1] != s_sorted[1:], True])
    tp = np.cumsum(y_sorted)[group_end]
    fp = np.cumsum(1 - y_sorted)[group_end]
    thresholds = s_sorted[group_end]
    return thresholds, tp, fp


def _two_u(tp, fp) -> int:
    """Twice the Mann-Whitney U from the tie-grouped counts: sum(dfp * (tp + previous tp)).
    AUC = 2U / (2 * pos * neg) (Hanley & McNeil 1982)."""
    return int((np.diff(fp, prepend=0) * (tp + np.r_[0, tp[:-1]])).sum())


def mann_whitney(group_a, group_b) -> MannWhitneyResult:
    """Rank-sum test. U counts pairs where a beats b, ties worth one half.

    Two-sided p: exact enumeration of group assignments when the pooled size
    is at most 16, otherwise the normal approximation with tie correction
    (no continuity correction). 2U, the tie sizes and the midranks the exact
    null enumerates all come from the tie-grouped counts of the pooled values
    labelled 1 for group a. A NaN in either group has no rank and raises
    UndefinedStatistic; an infinity ranks as the largest or smallest value.
    """
    a = np.asarray(group_a, dtype=float)
    b = np.asarray(group_b, dtype=float)
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise EmptyGroup("both groups must be non-empty")
    pooled = np.concatenate([a, b])
    if np.isnan(pooled).any():
        raise UndefinedStatistic("mann_whitney is undefined for NaN values")
    n = n1 + n2
    _, tp, fp = _tie_grouped_counts((np.arange(n) < n1).astype(int), pooled)
    two_u = _two_u(tp, fp)
    u = two_u / 2.0
    # size of each tie group, highest values first
    ties = np.diff(tp + fp, prepend=0)

    if n <= EXACT_RANK_TEST_MAX_N:
        # 2x the midrank of each pooled value; the enumeration visits every
        # subset, so only the multiset of ranks matters
        doubled = np.repeat(2 * (n - tp - fp) + ties + 1, ties).tolist()
        observed_dev = abs(two_u - n1 * n2)
        extreme = total = 0
        for combo in itertools.combinations(range(n), n1):
            two_u_perm = sum(doubled[k] for k in combo) - n1 * (n1 + 1)
            total += 1
            if abs(two_u_perm - n1 * n2) >= observed_dev:
                extreme += 1
        return MannWhitneyResult(u, extreme / total)

    tie_term = float(np.sum(ties ** 3 - ties))
    variance = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0:
        return MannWhitneyResult(u, 1.0)
    z = (u - n1 * n2 / 2.0) / math.sqrt(variance)
    return MannWhitneyResult(u, math.erfc(abs(z) / math.sqrt(2.0)))


def chi_square_2x2(table) -> tuple[float, float]:
    """Yates-corrected chi-square for a 2x2 count table, 1 degree of freedom."""
    t = np.asarray(table, dtype=float)
    if t.shape != (2, 2) or np.any(t < 0):
        raise DegenerateTable(f"need a 2x2 table of non-negative counts, got {table}")
    n = t.sum()
    rows, cols = t.sum(axis=1), t.sum(axis=0)
    if np.any(rows == 0) or np.any(cols == 0):
        raise DegenerateTable("a row or column of the 2x2 table is empty")
    expected = np.outer(rows, cols) / n
    adjusted = np.maximum(np.abs(t - expected) - 0.5, 0.0)
    stat = float(np.sum(adjusted ** 2 / expected))
    return stat, math.erfc(math.sqrt(stat / 2.0))


def fisher_exact_2x2(table) -> float:
    """Two-sided Fisher exact p for a 2x2 count table.

    Sums the probabilities of all tables (with the observed margins) that are
    no more probable than the observed one; exact integer arithmetic.
    """
    t = np.asarray(table, dtype=int)
    if t.shape != (2, 2) or np.any(t < 0):
        raise DegenerateTable(f"need a 2x2 table of non-negative counts, got {table}")
    r1, r2 = int(t[0].sum()), int(t[1].sum())
    c1 = int(t[:, 0].sum())
    n = r1 + r2
    if r1 == 0 or r2 == 0 or c1 == 0 or c1 == n:
        raise DegenerateTable("a row or column of the 2x2 table is empty")
    observed = math.comb(r1, int(t[0, 0])) * math.comb(r2, int(t[1, 0]))
    numerator = 0
    for a in range(max(0, c1 - r2), min(r1, c1) + 1):
        weight = math.comb(r1, a) * math.comb(r2, c1 - a)
        if weight <= observed:
            numerator += weight
    return numerator / math.comb(n, c1)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) (Numerical Recipes eq. 6.4.5), modified Lentz."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_TERMS):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            h *= c * d
        if abs(c * d - 1.0) < _CF_EPS:
            return h
    raise UndefinedStatistic(f"incomplete beta continued fraction did not converge (a={a}, b={b})")


def _t_two_sided(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t: I_x(df/2, 1/2) at x = df/(df + t^2)."""
    t2 = t * t
    if t2 == math.inf:
        return 0.0
    a = 0.5 * df
    # y = 1 - x, formed from t^2 so that a small |t| keeps its bits
    x, y = df / (df + t2), t2 / (df + t2)
    if y == 0.0:
        return 1.0
    if a < 50.0:
        log_beta = math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    else:  # ln B(a, 1/2) by its asymptotic series: the lgamma difference cancels
        log_beta = 0.5 * math.log(math.pi / a) + 1 / (8 * a) - 1 / (192 * a ** 3) + 1 / (640 * a ** 5)
    front = math.exp(-a * math.log1p(t2 / df) + 0.5 * math.log(y) - log_beta)
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_cf(a, 0.5, x) / a
    return 1.0 - 2.0 * front * _beta_cf(0.5, a, y)


def welch_t(group_a, group_b) -> tuple[float, float]:
    """Welch's unequal-variance t-test, two-sided.

    p = I_x(df/2, 1/2) at x = df/(df + t^2), the regularized incomplete beta
    by the modified-Lentz continued fraction of Press et al., Numerical
    Recipes, 2nd ed., section 6.4, taken in the complement form
    1 - I_y(1/2, df/2) at y = t^2/(df + t^2) when x >= (df/2 + 1)/(df/2 + 5/2).
    Its relative error was at most 5e-13 against scipy.special.stdtr over
    200k draws (df 1.5 to 400, |t| 1e-3 to 12) and 7e-13 against an
    arbitrary-precision incomplete beta for df up to 1e4; above that it grows
    about in proportion to df (8e-12 at 1e5, 8e-9 at 1e8). Welch's df is
    below the pooled sample size. A t^2 that overflows gives p = 0, as stdtr
    does. Zero variance in both groups gives (0.0, 1.0); moments that are not
    finite raise UndefinedStatistic.
    """
    a = np.asarray(group_a, dtype=float)
    b = np.asarray(group_b, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise EmptyGroup("welch_t needs at least two values per group")
    with np.errstate(all="ignore"):
        va, vb = a.var(ddof=1) / len(a), b.var(ddof=1) / len(b)
        if va + vb == 0:
            return 0.0, 1.0
        t = float((a.mean() - b.mean()) / math.sqrt(va + vb))
        df = float((va + vb) ** 2 / (va ** 2 / (len(a) - 1) + vb ** 2 / (len(b) - 1)))
    if math.isnan(t) or not 0.0 < df < math.inf:
        raise UndefinedStatistic(f"welch_t is undefined for t={t}, df={df}")
    return t, _t_two_sided(t, df)


# --- table one --------------------------------------------------------------

def _format_p(p: float | None) -> str:
    if p is None:
        return "NA"
    if p < 0.001:
        return "<0.001"
    return f"{p:.3f}"


def _median_iqr(values) -> str:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return f"{med:.1f} [{q1:.1f}, {q3:.1f}]"


def _mean_sd(values) -> str:
    v = np.asarray(values, dtype=float)
    # scaled by a power of two into (-1, 1): exact, and the squares cannot overflow
    e = math.frexp(float(np.max(np.abs(v))))[1]
    w = np.ldexp(v, -e)
    with np.errstate(over="ignore"):
        sd = np.ldexp(w.std(ddof=1), e) if len(v) > 1 else 0.0
        return f"{np.ldexp(w.mean(), e):.1f} ({sd:.1f})"


class _Variable(NamedTuple):
    name: str
    section: str
    column: str
    kind: str  # a key of _KINDS


TABLE_ONE_VARIABLES = (
    _Variable("Sex = F", "Demographics", "sex_f", "categorical"),
    _Variable("Age, y", "Demographics", "age_years", "median_iqr"),
    _Variable("BMI, kg/m2", "Demographics", "bmi", "median_iqr"),
    _Variable("Previous cardiac surgery", "Risk factors", "prev_cs", "categorical"),
    _Variable("Previous MI", "Risk factors", "prev_mi", "categorical"),
    _Variable("Previous PCI", "Risk factors", "prev_pci", "categorical"),
    _Variable("Previous stroke", "Risk factors", "prev_stroke", "categorical"),
    _Variable("Hypertension", "Risk factors", "htn", "categorical"),
    _Variable("Diabetes", "Risk factors", "dm", "categorical"),
    _Variable("P-wave interval, ms", "Standard ECG parameters", "p_dur_ms", "median_iqr"),
    _Variable("PR segment interval, ms", "Standard ECG parameters", "pr_ms", "median_iqr"),
    _Variable("QRS interval, ms", "Standard ECG parameters", "qrs_ms", "median_iqr"),
    _Variable("QT interval, ms", "Standard ECG parameters", "qt_ms", "median_iqr"),
    _Variable("Corrected QTi, ms", "Standard ECG parameters", "qtc_ms", "mean_sd"),
    _Variable("RR interval, ms", "Standard ECG parameters", "rr_ms", "median_iqr"),
    _Variable("Peak QRST angle, deg", "GEH parameters", "peak_qrst_angle_deg", "median_iqr"),
    _Variable("Area QRST angle, deg", "GEH parameters", "area_qrst_angle_deg", "median_iqr"),
    _Variable("Peak SVG azimuth, deg", "GEH parameters", "peak_svg_azimuth_deg", "median_iqr"),
    _Variable("Area SVG azimuth, deg", "GEH parameters", "area_svg_azimuth_deg", "median_iqr"),
    _Variable("Peak SVG elevation, deg", "GEH parameters", "peak_svg_elevation_deg", "median_iqr"),
    _Variable("Area SVG elevation, deg", "GEH parameters", "area_svg_elevation_deg", "median_iqr"),
    _Variable("Peak SVG, mV", "GEH parameters", "peak_svg_mv", "median_iqr"),
    _Variable("VmQTI, mV*ms", "GEH parameters", "vm_qti_mvms", "median_iqr"),
    _Variable("SVG, mV*ms", "GEH parameters", "svg_mvms", "median_iqr"),
)


def _categorical_p(neg, pos) -> float | None:
    if not neg or not pos:
        return None
    table = np.array([
        [sum(1 for v in neg if v == 1.0), sum(1 for v in neg if v == 0.0)],
        [sum(1 for v in pos if v == 1.0), sum(1 for v in pos if v == 0.0)],
    ])
    n = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    try:
        if np.any(expected < 5):
            return fisher_exact_2x2(table)
        return chi_square_2x2(table)[1]
    except DegenerateTable:
        return None


def _share(values) -> str:
    k = sum(1 for v in values if v == 1.0)
    return f"{k} ({100.0 * k / len(values):.1f})"


def _welch_p(neg, pos) -> float | None:
    try:
        return welch_t(neg, pos)[1]
    except (EmptyGroup, UndefinedStatistic):
        return None


# each variable kind: the summary of one group's values, and the p between the
# negative and the positive group (None: NA); the rank-sum entry looks
# mann_whitney up when it is called, so a substitute set on the module is used
_KINDS = {
    "categorical": (_share, _categorical_p),
    "median_iqr": (_median_iqr, lambda neg, pos: mann_whitney(neg, pos).p),
    "mean_sd": (_mean_sd, _welch_p),
}


def summarize_table_one(cohort) -> dict:
    """Descriptive statistics by outcome with a test per variable.

    Categorical variables use Yates chi-square (Fisher exact when any expected
    cell is below 5), the normally-shaped corrected QT uses Welch's t-test and
    every other continuous variable uses the rank-sum test. Patients missing a
    variable are excluded from that row only.
    """
    groups = {"total": cohort, "negative": [r for r in cohort if r.label == 0],
              "positive": [r for r in cohort if r.label == 1]}
    rows = [{"variable": "N", "section": "", **{key: str(len(g)) for key, g in groups.items()},
             "p_value": ""}]
    for var in TABLE_ONE_VARIABLES:
        summary, test = _KINDS[var.kind]
        values = {key: [v for v in (r.feature_value(var.column) for r in g) if v is not None]
                  for key, g in groups.items()}
        neg, pos = values["negative"], values["positive"]
        rows.append({"variable": var.name, "section": var.section,
                     **{key: summary(v) if v else "NA" for key, v in values.items()},
                     "p_value": _format_p(test(neg, pos) if neg and pos else None)})

    return {
        "format": "table-one/1",
        "groups": {key: len(g) for key, g in groups.items()},
        "rows": rows,
    }
