import csv
import json
import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ecgtriage.cohort import (
    COHORT_COLUMNS,
    GEH_COLUMNS,
    RISK_COLUMNS,
    STANDARD_COLUMNS,
    FeatureMatrix,
    PatientRecord,
    assemble_features,
    chi_square_2x2,
    fisher_exact_2x2,
    load_cohort,
    mann_whitney,
    save_cohort,
    summarize_table_one,
    welch_t,
)
from ecgtriage import cohort as cohort_module
from ecgtriage.cohort import _format_p, _quartiles, _t_two_sided
from ecgtriage.ecg_ingest import StandardEcgMeasures
from ecgtriage.errors import (
    DegenerateTable,
    DuplicateId,
    EmptyGroup,
    MissingFeature,
    SchemaError,
    UndefinedStatistic,
)
from ecgtriage.geh import GehMeasures

from oracles import mann_whitney_exact_p, mann_whitney_u_pairs, yates_chi_square


def make_patient(pid, outcome="negative", sex="M", age=60.0, with_features=True, **kw):
    standard = geh = None
    if with_features:
        base = float(kw.pop("feature_base", 1.0))
        standard = StandardEcgMeasures(
            p_dur_ms=100.0 + base, pr_ms=160.0 + base, qrs_ms=90.0 + base,
            qt_ms=380.0 + base, qtc_ms=400.0 + base, rr_ms=900.0 + base)
        geh = GehMeasures(**{name: 10.0 * i + base for i, name in enumerate(GEH_COLUMNS)})
    defaults = dict(prev_cs=False, prev_mi=False, prev_pci=False,
                    prev_stroke=False, htn=False, dm=False)
    defaults.update(kw)
    return PatientRecord(id=pid, sex=sex, age_years=age, bmi=26.0, outcome=outcome,
                         standard=standard, geh=geh, **defaults)


class TestLoadCohort:
    def test_counts_by_outcome(self, tmp_path):
        records = [make_patient(f"p{i:04d}", "negative") for i in range(223)]
        records += [make_patient(f"q{i:04d}", "positive") for i in range(51)]
        save_cohort(records, tmp_path / "c.csv")
        loaded = load_cohort(tmp_path / "c.csv")
        assert len(loaded) == 274
        assert sum(1 for r in loaded if r.outcome == "negative") == 223
        assert sum(1 for r in loaded if r.outcome == "positive") == 51

    def test_empty_file(self, tmp_path):
        (tmp_path / "c.csv").write_text("")
        with pytest.raises(SchemaError):
            load_cohort(tmp_path / "c.csv")

    def test_negative_age_names_row(self, tmp_path):
        records = [make_patient("p1"), make_patient("p2"), make_patient("p3")]
        save_cohort(records, tmp_path / "c.csv")
        rows = (tmp_path / "c.csv").read_text().splitlines()
        rows[2] = rows[2].replace("60.0", "-1.0", 1)
        (tmp_path / "c.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(SchemaError, match="row 2"):
            load_cohort(tmp_path / "c.csv")

    def write_one_row(self, path, **cells):
        save_cohort([make_patient("p1")], path)
        header, row = path.read_text().splitlines()
        values = dict(zip(header.split(","), row.split(",")), **cells)
        path.write_text(header + "\n" + ",".join(values.values()) + "\n")

    def test_bad_bool_cell_names_row_and_column_once(self, tmp_path):
        self.write_one_row(tmp_path / "c.csv", prev_mi="2")
        with pytest.raises(SchemaError) as info:
            load_cohort(tmp_path / "c.csv")
        assert str(info.value) == "boolean cell must be 0 or 1 (row 1, column prev_mi)"
        assert (info.value.row, info.value.column) == (1, "prev_mi")

    # float() alone reads both as 57.0; a trace body refuses them too
    @pytest.mark.parametrize("age", ["5_7", "٥٧"])
    def test_numeral_float_alone_reads_is_refused(self, tmp_path, age):
        self.write_one_row(tmp_path / "c.csv", age_years=age)
        with pytest.raises(SchemaError) as info:
            load_cohort(tmp_path / "c.csv")
        assert str(info.value) == "non-numeric cell (row 1, column age_years)"

    def test_padded_numeral_loads(self, tmp_path):
        self.write_one_row(tmp_path / "c.csv", age_years=" 57 ")
        assert load_cohort(tmp_path / "c.csv")[0].age_years == 57.0

    def test_bad_sex_names_row(self, tmp_path):
        self.write_one_row(tmp_path / "c.csv", sex="X")
        with pytest.raises(SchemaError) as info:
            load_cohort(tmp_path / "c.csv")
        assert str(info.value) == "sex must be F or M, got 'X' (row 1)"
        assert (info.value.row, info.value.column) == (1, None)

    # an id names trace files and keys a line of extract_log.txt
    @pytest.mark.parametrize("pid", ["p0001\tok\tforged\np9999", "../p0001", "a/b", "a\\b",
                                     ".", "..", "p\x00", "p\x7f", "p\x85",
                                     # str.splitlines() ends a line at these too
                                     "p\u2028x", "p\u2029x"])
    def test_id_that_is_not_a_plain_file_name(self, tmp_path, pid):
        save_cohort([make_patient("p0"), make_patient(pid)], tmp_path / "c.csv")
        with pytest.raises(SchemaError) as info:
            load_cohort(tmp_path / "c.csv")
        assert (info.value.row, info.value.column) == (2, "id")

    def test_plain_file_name_ids_load(self, tmp_path):
        ids = ["p.1", "...", "a b", "ü-1", "x..y"]
        save_cohort([make_patient(pid) for pid in ids], tmp_path / "c.csv")
        assert [r.id for r in load_cohort(tmp_path / "c.csv")] == ids

    def test_duplicate_id(self, tmp_path):
        save_cohort([make_patient("p1"), make_patient("p1")], tmp_path / "c.csv")
        with pytest.raises(DuplicateId):
            load_cohort(tmp_path / "c.csv")

    def test_wrong_header(self, tmp_path):
        (tmp_path / "c.csv").write_text("id,sex\npx,M\n")
        with pytest.raises(SchemaError):
            load_cohort(tmp_path / "c.csv")

    def test_empty_feature_cells_roundtrip(self, tmp_path):
        records = [make_patient("p1", with_features=False),
                   make_patient("p2"), make_patient("p3")]
        save_cohort(records, tmp_path / "c.csv")
        loaded = load_cohort(tmp_path / "c.csv")
        assert loaded[0].standard is None and loaded[0].geh is None
        assert loaded[1].standard is not None
        assert loaded[1].feature_value("qt_ms") == 381.0

    def test_schema_column_order(self):
        assert COHORT_COLUMNS[:4] == ("id", "sex", "age_years", "bmi")
        assert COHORT_COLUMNS[10] == "outcome"
        assert COHORT_COLUMNS[11:17] == STANDARD_COLUMNS
        assert COHORT_COLUMNS[17:] == GEH_COLUMNS


class TestAssembleFeatures:
    def test_g_spec_has_table_order(self):
        cohort = [make_patient("p1"), make_patient("p2", "positive")]
        m = assemble_features(cohort, "G")
        assert m.columns == GEH_COLUMNS
        assert m.X.shape == (2, 9)

    def test_srg_toy_matrix(self):
        cohort = [make_patient("p1", sex="F", htn=True),
                  make_patient("p2", "positive", dm=True)]
        m = assemble_features(cohort, "SRG")
        assert m.X.shape == (2, 24)
        assert m.columns == STANDARD_COLUMNS + RISK_COLUMNS + GEH_COLUMNS
        sex_col = m.columns.index("sex_f")
        htn_col = m.columns.index("htn")
        assert m.X[0, sex_col] == 1.0 and m.X[1, sex_col] == 0.0
        assert m.X[0, htn_col] == 1.0 and m.X[1, htn_col] == 0.0
        np.testing.assert_array_equal(m.y, [0, 1])

    def test_deterministic(self):
        cohort = [make_patient(f"p{i}", feature_base=float(i)) for i in range(8)]
        a = assemble_features(cohort, "SRG")
        b = assemble_features(cohort, "SRG")
        np.testing.assert_array_equal(a.X, b.X)
        assert a.ids == b.ids

    def test_missing_features_drop_patient(self):
        cohort = [make_patient("p1"), make_patient("p2", with_features=False),
                  make_patient("p3", "positive")]
        m = assemble_features(cohort, "G")
        assert m.ids == ("p1", "p3")
        assert m.dropped_ids == ("p2",)
        # risk-only spec keeps everyone
        r = assemble_features(cohort, "R")
        assert r.ids == ("p1", "p2", "p3")

    def test_all_dropped_raises(self):
        cohort = [make_patient("p1", with_features=False)]
        with pytest.raises(MissingFeature):
            assemble_features(cohort, "S")

    def test_unknown_label_raises(self):
        cohort = [make_patient("p1"), make_patient("p2", "positive")]
        with pytest.raises(SchemaError, match="unknown model label 'X'"):
            assemble_features(cohort, "X")


class TestMannWhitney:
    def test_identical_multisets_small(self):
        r = mann_whitney([1.0, 2.0, 2.0], [1.0, 2.0, 2.0])
        assert r.u == pytest.approx(4.5)
        assert r.p >= 0.99

    def test_identical_multisets_large(self):
        group = list(range(20)) * 2
        r = mann_whitney(group, group)
        assert r.u == pytest.approx(len(group) ** 2 / 2)
        assert r.p >= 0.99

    def test_fully_separated_exact(self):
        r = mann_whitney([1.0, 2.0, 3.0], [10.0, 11.0, 12.0])
        assert r.u == 0.0
        assert r.p == pytest.approx(0.1, abs=1e-12)

    def test_random_small_groups_match_enumeration(self, rng):
        for _ in range(25):
            a = rng.integers(0, 6, size=6).astype(float).tolist()
            b = rng.integers(0, 6, size=6).astype(float).tolist()
            r = mann_whitney(a, b)
            assert r.u == pytest.approx(mann_whitney_u_pairs(a, b), abs=0)
            assert r.p == pytest.approx(mann_whitney_exact_p(a, b), abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(a=st.lists(st.integers(0, 8), min_size=1, max_size=12),
           b=st.lists(st.integers(0, 8), min_size=1, max_size=12))
    def test_u_complement_identity(self, a, b):
        ua = mann_whitney(a, b).u
        ub = mann_whitney(b, a).u
        assert ua + ub == pytest.approx(len(a) * len(b), abs=0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), big=st.booleans())
    def test_p_invariant_under_monotone_transform(self, seed, big):
        rng = np.random.default_rng(seed)
        n = 12 if big else 5
        a = rng.integers(0, 10, size=n).astype(float)
        b = rng.integers(0, 10, size=n).astype(float)
        base = mann_whitney(a, b)
        trans = mann_whitney(np.exp(a / 3.0), np.exp(b / 3.0))
        assert trans.p == pytest.approx(base.p, rel=1e-12, abs=1e-12)

    def test_empty_group(self):
        with pytest.raises(EmptyGroup):
            mann_whitney([], [1.0])

    @pytest.mark.parametrize("size", [3, 12])
    @pytest.mark.parametrize("nan_in", ["a", "b"])
    def test_nan_is_undefined(self, size, nan_in):
        # pooled size 6 takes the exact path, 24 the normal approximation
        a, b = [float(v) for v in range(size)], [float(v) for v in range(size)]
        (a if nan_in == "a" else b)[1] = math.nan
        with pytest.raises(UndefinedStatistic):
            mann_whitney(a, b)

    def test_infinities_keep_their_rank(self):
        r = mann_whitney([math.inf, 1.0, 2.0], [-math.inf, 0.5, math.inf])
        assert r.u == mann_whitney_u_pairs([math.inf, 1.0, 2.0], [-math.inf, 0.5, math.inf])
        assert r.p == pytest.approx(mann_whitney_exact_p([math.inf, 1.0, 2.0],
                                                         [-math.inf, 0.5, math.inf]), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(a=st.lists(st.integers(0, 6), min_size=9, max_size=40),
           b=st.lists(st.integers(0, 6), min_size=9, max_size=40))
    def test_normal_path_matches_scipy(self, a, b):
        r = mann_whitney(a, b)
        ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided", use_continuity=False,
                                       method="asymptotic")
        assert r.u == ref.statistic
        if len(set(a + b)) == 1:  # zero variance: p = 1 where scipy gives NaN
            assert r.p == 1.0
        else:
            assert r.p == pytest.approx(ref.pvalue, rel=1e-12, abs=0)


class TestChiSquare:
    def test_equal_proportions(self):
        stat, p = chi_square_2x2([[50, 50], [50, 50]])
        assert stat == 0.0
        assert p == pytest.approx(1.0)

    def test_hand_computed_yates(self):
        table = [[20, 20], [20, 0]]
        stat, p = chi_square_2x2(table)
        assert stat == pytest.approx(yates_chi_square(table), rel=1e-12)
        assert stat == pytest.approx(12.834375, rel=1e-9)
        assert p == pytest.approx(math.erfc(math.sqrt(stat / 2.0)), rel=1e-12)

    def test_prior_infarction_split_is_significant(self):
        # 51/172 events-free vs 26/25 with events
        stat, p = chi_square_2x2([[51, 172], [26, 25]])
        assert p < 0.001

    def test_degenerate(self):
        with pytest.raises(DegenerateTable):
            chi_square_2x2([[0, 0], [1, 2]])


class TestFisherWelch:
    def test_fisher_matches_scipy(self, rng):
        for _ in range(30):
            table = rng.integers(0, 12, size=(2, 2))
            if min(table.sum(axis=0)) == 0 or min(table.sum(axis=1)) == 0:
                continue
            _, expected = scipy.stats.fisher_exact(table)
            assert fisher_exact_2x2(table) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_welch_matches_scipy(self, rng):
        for _ in range(20):
            a = rng.normal(size=rng.integers(3, 30))
            b = rng.normal(loc=0.4, size=rng.integers(3, 30))
            t, p = welch_t(a, b)
            ref = scipy.stats.ttest_ind(a, b, equal_var=False)
            assert t == pytest.approx(ref.statistic, rel=1e-10)
            assert p == pytest.approx(ref.pvalue, rel=1e-10)

    def test_welch_non_finite_moments_are_undefined(self):
        # the variance of +-1e200 overflows, so df is inf/inf
        with pytest.raises(UndefinedStatistic):
            welch_t([1e200, -1e200, 400.0], [400.0, 410.0, 420.0])

    def test_welch_zero_variance(self):
        assert welch_t([3.0, 3.0], [3.0, 3.0, 3.0]) == (0.0, 1.0)


class TestStudentTail:
    """_t_two_sided(t, df) = P(|T| >= |t|), checked without scipy where a closed form exists."""

    # near t = 0 the closed forms, not scipy, are the reference: 2 * stdtr(1, -1e-8) is 3e-9 off
    T_GRID = np.concatenate([[1e-12, 1e-10, 1e-8, 1e-6], np.geomspace(1e-4, 1e6, 400)])

    def test_df1_closed_form(self):
        # 1 - (2/pi) atan|t| == (2/pi) atan(1/|t|), the form without cancellation at large |t|
        for t in self.T_GRID:
            expected = 2.0 / math.pi * math.atan(1.0 / t)
            assert _t_two_sided(t, 1.0) == pytest.approx(expected, rel=1e-14)
            assert _t_two_sided(-t, 1.0) == _t_two_sided(t, 1.0)

    def test_df2_closed_form(self):
        # 1 - |t|/sqrt(2+t^2) == 2/(s (s + |t|)) with s = sqrt(2+t^2), without cancellation
        for t in self.T_GRID:
            s = math.sqrt(2.0 + t * t)
            assert _t_two_sided(t, 2.0) == pytest.approx(2.0 / (s * (s + t)), rel=1e-14)

    @pytest.mark.parametrize("df", [1.0, 1.5, 2.0, 7.3, 80.0, 1e4])
    def test_ends(self, df):
        assert _t_two_sided(0.0, df) == 1.0
        assert _t_two_sided(math.inf, df) == 0.0
        assert _t_two_sided(-math.inf, df) == 0.0

    def test_grid_matches_scipy_down_to_1e_300(self):
        df = np.geomspace(1.0, 1e4, 40)[:, None]
        t = np.geomspace(1e-3, 1e150, 300)[None, :]
        ref = 2.0 * scipy.special.stdtr(df, -t)
        rows, cols = np.nonzero(ref >= 1e-300)
        assert ref[rows, cols].min() < 1e-290
        for i, j in zip(rows, cols):
            assert _t_two_sided(float(t[0, j]), float(df[i, 0])) == pytest.approx(ref[i, j], rel=1e-10)

    def test_large_df_keeps_the_docstring_accuracy(self):
        # ln B(df/2, 1/2) as a difference of lgamma values would be 6e-11 off here
        df = np.geomspace(100.0, 1e4, 30)[:, None]
        t = np.geomspace(1e-3, 12.0, 200)[None, :]
        ref = 2.0 * scipy.special.stdtr(df, -t)
        for i, j in np.ndindex(ref.shape):
            assert _t_two_sided(float(t[0, j]), float(df[i, 0])) == pytest.approx(ref[i, j], rel=2e-12)

    def test_no_convergence_is_typed(self):
        with pytest.raises(UndefinedStatistic):
            _t_two_sided(4.6e10, 1e15)


def test_percentile_worked_examples():
    # linear-interpolation (type 7) quantiles, the definition used everywhere
    np.testing.assert_allclose(
        np.percentile([1.0, 2.0, 3.0, 4.0], [25, 50, 75]), [1.75, 2.5, 3.25])
    np.testing.assert_allclose(
        np.percentile([10.0, 20.0, 30.0], [25, 50, 75]), [15.0, 20.0, 25.0])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e300, -1e300, 1.7e308])),
                min_size=1, max_size=40))
def test_quartiles_are_np_percentile_bit_for_bit(values):
    # -0.0 ties +0.0, so where both occur np.percentile's partition may put
    # either at an interpolation point; no sorted copy can follow that order
    assume(len({math.copysign(1.0, v) for v in values if v == 0.0}) < 2)
    with np.errstate(over="ignore", invalid="ignore"):  # b - a overflows near the float limit
        expected = np.percentile(values, [25, 50, 75])
    assert np.array(_quartiles(values)).tobytes() == expected.tobytes()


class TestTableOne:
    def build_toy(self):
        # 4 negatives, 2 positives with hand-friendly values
        ages = [50.0, 60.0, 70.0, 80.0, 55.0, 65.0]
        cohort = []
        for i, age in enumerate(ages):
            positive = i >= 4
            cohort.append(make_patient(
                f"p{i}", "positive" if positive else "negative",
                sex="F" if i % 2 == 0 else "M", age=age,
                htn=positive, feature_base=float(i)))
        return cohort

    def test_structure(self):
        doc = summarize_table_one(self.build_toy())
        assert doc["rows"][0]["variable"] == "N"
        assert len(doc["rows"]) == 25
        sections = [r["section"] for r in doc["rows"][1:]]
        assert sections.count("Risk factors") == 6
        assert sections.count("Standard ECG parameters") == 6
        assert sections.count("GEH parameters") == 9

    def test_hand_computed_cells(self):
        doc = summarize_table_one(self.build_toy())
        rows = {r["variable"]: r for r in doc["rows"]}
        assert rows["N"]["total"] == "6"
        assert rows["N"]["negative"] == "4"
        assert rows["N"]["positive"] == "2"
        # ages: total median 62.5, q1/q3 by linear interpolation
        assert rows["Age, y"]["total"] == "62.5 [56.2, 68.8]"
        assert rows["Age, y"]["negative"] == "65.0 [57.5, 72.5]"
        assert rows["Age, y"]["positive"] == "60.0 [57.5, 62.5]"
        expected_age_p = mann_whitney_exact_p([50.0, 60.0, 70.0, 80.0], [55.0, 65.0])
        assert rows["Age, y"]["p_value"] == f"{expected_age_p:.3f}"
        # sex: 3 of 6 female, 2 of 4 negative, 1 of 2 positive
        assert rows["Sex = F"]["total"] == "3 (50.0)"
        assert rows["Sex = F"]["negative"] == "2 (50.0)"
        assert rows["Sex = F"]["positive"] == "1 (50.0)"
        # hypertension only in positives; expected cells < 5 so Fisher applies
        assert rows["Hypertension"]["positive"] == "2 (100.0)"
        assert rows["Hypertension"]["p_value"] == f"{fisher_exact_2x2([[0, 4], [2, 0]]):.3f}"
        # qtc is mean (sd): negatives 400+{0,1,2,3}
        assert rows["Corrected QTi, ms"]["negative"] == "401.5 (1.3)"

    def test_cell_format_style(self):
        doc = summarize_table_one(self.build_toy())
        age = next(r for r in doc["rows"] if r["variable"] == "Age, y")
        import re
        assert re.fullmatch(r"\d+\.\d \[\d+\.\d, \d+\.\d\]", age["total"])

    def test_single_class_gives_na(self):
        cohort = [make_patient(f"p{i}") for i in range(5)]
        doc = summarize_table_one(cohort)
        for row in doc["rows"][1:]:
            assert row["p_value"] == "NA"
            assert row["positive"] == "NA"

    def test_permutation_invariance(self):
        cohort = self.build_toy()
        a = summarize_table_one(cohort)
        b = summarize_table_one(list(reversed(cohort)))
        assert json.dumps(a) == json.dumps(b)

    def test_missing_block_excluded_rowwise(self):
        cohort = self.build_toy() + [make_patient("px", with_features=False)]
        doc = summarize_table_one(cohort)
        rows = {r["variable"]: r for r in doc["rows"]}
        assert rows["N"]["total"] == "7"
        # feature rows unchanged because the extra patient has no measurements
        assert rows["Age, y"]["total"] != "NA"
        base = summarize_table_one(self.build_toy())
        base_rows = {r["variable"]: r for r in base["rows"]}
        assert rows["QT interval, ms"] == base_rows["QT interval, ms"]

    def test_categorical_with_large_cells_uses_chi_square(self):
        # sex F in 12 of 20 negatives and 6 of 20 positives: every expected cell is at least 5
        cohort = [make_patient(f"n{i}", sex="F" if i < 12 else "M") for i in range(20)]
        cohort += [make_patient(f"q{i}", "positive", sex="F" if i < 6 else "M") for i in range(20)]
        rows = {r["variable"]: r for r in summarize_table_one(cohort)["rows"]}
        table = [[12, 8], [6, 14]]
        assert rows["Sex = F"]["p_value"] == _format_p(chi_square_2x2(table)[1])
        assert _format_p(chi_square_2x2(table)[1]) != _format_p(fisher_exact_2x2(table))

    def test_qtc_uses_welch(self):
        rows = {r["variable"]: r for r in summarize_table_one(self.build_toy())["rows"]}
        p = welch_t([400.0, 401.0, 402.0, 403.0], [404.0, 405.0])[1]
        assert rows["Corrected QTi, ms"]["p_value"] == _format_p(p)

    def test_qtc_with_one_positive_value_gives_na(self):
        cohort = self.build_toy()
        cohort[5] = make_patient("p5", "positive", with_features=False)
        rows = {r["variable"]: r for r in summarize_table_one(cohort)["rows"]}
        assert rows["Corrected QTi, ms"]["positive"] == "404.0 (0.0)"
        assert rows["Corrected QTi, ms"]["p_value"] == "NA"
        assert rows["QT interval, ms"]["p_value"] != "NA"

    def test_rank_sum_rows_call_the_module_test(self, monkeypatch):
        calls = []

        def fake(a, b):
            calls.append((list(a), list(b)))
            return cohort_module.MannWhitneyResult(0.0, 0.5)

        monkeypatch.setattr(cohort_module, "mann_whitney", fake)
        doc = summarize_table_one(self.build_toy())
        rank_sum = [v.name for v in cohort_module.TABLE_ONE_VARIABLES if v.kind == "median_iqr"]
        assert len(calls) == len(rank_sum) == 16
        assert calls[0] == ([50.0, 60.0, 70.0, 80.0], [55.0, 65.0])  # age
        rows = {r["variable"]: r for r in doc["rows"]}
        assert all(rows[name]["p_value"] == "0.500" for name in rank_sum)
