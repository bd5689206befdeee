"""Whole commands run as shipped and again with one part swapped for an
independent reference must write the same bytes; the demo's reports check
their own arithmetic; perfbench's fault probe and tracer see the package."""

import json
import math
import shutil
import statistics
from unittest import mock

import numpy as np
import scipy.stats

from ecgtriage import cli, cohort, ecg_ingest, gbt, pipeline, synth

import faults
import oracles
from conftest import SEED1_COHORT, assert_same_bytes, call_count, counted, extract, run_python


def test_demo_reports_check_themselves(demo_dir):
    # a report checks its own pick and its F2: both are exact ratios of counts;
    # its tuning choice checks against its grid, and its importance section
    # against itself and the tables written from it
    reports_dir = demo_dir / "models" / "reports"
    reports = sorted(reports_dir.glob("report_*.json"))
    assert len(reports) == 4, reports

    def table(name):
        lines = (reports_dir / name).read_text().splitlines()
        assert lines[0] == "name,gain,percent", name
        return lines[1:]

    def rows(features):
        return [f"{e['name']},{e['gain']},{e['percent']}" for e in features]

    for path in reports:
        report = json.loads(path.read_text())
        auc_log = report["selection"]["auc_log"]
        aucs = [entry["auc"] for entry in auc_log]
        assert report["selection"]["instance"] == auc_log[aucs.index(max(aucs))]["instance"], path
        c = report["confusion"]
        assert report["metrics"]["f2"] == 5 * c["tp"] / (5 * c["tp"] + 4 * c["fn"] + c["fp"]), path
        tuning = report["tuning"]
        margins = [e["mean_aucpr"] - e["std_aucpr"] for e in tuning["grid"]]
        chosen = tuning["grid"][margins.index(max(margins))]  # the first of equal entries
        assert tuning["chosen_eta"] == chosen["eta"], path
        median = statistics.median(chosen["fold_rounds"])
        assert tuning["chosen_rounds"] == max(1, math.floor(median + 0.5)), path
        importance = report["importance"]
        if importance["no_splits"]:
            assert importance["features"] == [], path
        else:
            assert abs(sum(e["percent"] for e in importance["features"]) - 100.0) <= 1e-9, path
        assert table(f"importance_{report['model']}.txt") == rows(importance["features"]), path
    winner = json.loads((reports_dir / "summary.json").read_text())["winner"]
    features = json.loads((reports_dir / f"report_{winner}.json").read_text())["importance"]["features"]
    assert table("winner_importance.txt") == rows(sorted(features, key=lambda e: -e["gain"]))


def test_table_one_matches_scipy_rank_sum(demo_dir, tmp_path, monkeypatch):
    def scipy_mann_whitney(a, b):
        assert len(a) + len(b) > cohort.EXACT_RANK_TEST_MAX_N  # the normal approximation
        r = scipy.stats.mannwhitneyu(a, b, alternative="two-sided", use_continuity=False,
                                     method="asymptotic")
        return cohort.MannWhitneyResult(float(r.statistic), float(r.pvalue))

    substitute = mock.Mock(wraps=scipy_mann_whitney)
    monkeypatch.setattr(cohort, "mann_whitney", substitute)
    assert cli.main(["table-one", "--config", str(demo_dir / "run.cfg"), "--out", str(tmp_path)]) == 0
    assert substitute.call_count == 16  # one per rank-sum row: the substitute ran
    assert_same_bytes(demo_dir / "tables", tmp_path, ["table_one.json"])


def test_holdout_selection_is_deterministic(demo_dir, tmp_path):
    # each run in its own process under its own hash seed: a draw keyed on
    # hash(), set order or id() differs between them
    cfg = tmp_path / "holdout.cfg"
    cfg.write_text((demo_dir / "run.cfg").read_text() + "holdout_selection=true\n")
    main = "import sys; from ecgtriage import cli; sys.exit(cli.main(sys.argv[1:]))"
    for run, hash_seed in (("a", "0"), ("b", "4242")):
        run_python(["-c", main, "train-eval", "--config", str(cfg), "--out", str(tmp_path / run)],
                   PYTHONHASHSEED=hash_seed)
    assert '"on": "holdout"' in (tmp_path / "a" / "reports" / "report_SRG.json").read_text()
    assert_same_bytes(tmp_path / "a" / "reports", tmp_path / "b" / "reports")


def test_distinct_rows_match_repeated_rows(demo_dir, tmp_path, monkeypatch):
    repeated = []

    class RepeatedRows(gbt.Booster):
        # each distinct row repeated count times, as rebalance drew it; no counts passed
        def __init__(self, X, y, config, feature_names=None, counts=None):
            repeated.append(int(np.sum(counts)) - len(counts))
            super().__init__(np.repeat(X, counts, axis=0), np.repeat(y, counts), config, feature_names)

    monkeypatch.setattr(gbt, "Booster", RepeatedRows)
    monkeypatch.setattr(pipeline, "Booster", RepeatedRows)
    assert cli.main(["train-eval", "--config", str(demo_dir / "run.cfg"), "--out", str(tmp_path)]) == 0
    assert len(repeated) == 4 * (2 * 5 + 2)  # per spec: 2 etas x 5 folds, 2 instances
    assert all(extra > 0 for extra in repeated), repeated  # the substitute ran on duplicated rows
    assert_same_bytes(demo_dir / "models" / "reports", tmp_path / "reports")


def test_fault_probe_logs_each_kind_as_expected(tmp_path):
    rows = faults.probe(tmp_path)
    assert rows and all(r["actual"] == r["expected"] for r in rows), faults.format_probe(rows)


def test_traced_names_resolve():
    # in a child process: install rebinds package attributes for the rest of the process
    run_python(["-c", "import time, tracer; "
                "tracer.install_node_counter({'trees': 0, 'nodes': 0, 'split_scans': 0}); "
                "tracer.install(tracer.Recorder(time.perf_counter))"])


def test_synth_writer_matches_savetxt(seed1_cohort, tmp_path, monkeypatch):
    savetxt = counted(lambda fh, cells, work: fh.write(oracles.savetxt_text(cells)), tmp_path / "calls")
    monkeypatch.setattr(synth, "write_trace_cells", savetxt)
    synth.generate(SEED1_COHORT, tmp_path / "oracle")
    assert call_count(tmp_path / "calls") == 300  # one per trace: the substitute ran
    assert_same_bytes(seed1_cohort.data, tmp_path / "oracle")


def test_trace_kernel_matches_row_reader(seed1_cohort, tmp_path, monkeypatch):
    crlf = tmp_path / "crlf"
    shutil.copytree(seed1_cohort.data, crlf)
    for trace in (crlf / "ecg").glob("*.csv"):
        trace.write_bytes(trace.read_bytes().replace(b"\n", b"\r\n"))
    # rows read by float(): none on LF or CRLF, the one odd row of each faulted trace
    assert seed1_cohort.rows_read == {"data": 0, "faulted": 75}
    assert extract(crlf, tmp_path / "crlf-out") == 0

    def refuse_all(data, start, ends, starts):
        return np.empty((12, len(ends) // 12)), np.ones(len(ends) // 12, bool)

    monkeypatch.setattr(ecg_ingest, "_swar_cells", refuse_all)
    assert extract(seed1_cohort.data, tmp_path / "rows") == 300 * 1680
    for out in ("crlf-out", "rows"):
        assert_same_bytes(seed1_cohort.features, tmp_path / out, ["features.csv", "extract_log.txt"])


def test_error_paths_match_per_cell_oracle(seed1_cohort, tmp_path, monkeypatch):
    monkeypatch.setattr(ecg_ingest, "parse_ecg", oracles.parse_ecg_per_cell)
    extract(seed1_cohort.faulted, tmp_path / "oracle")
    assert_same_bytes(seed1_cohort.faulted_features, tmp_path / "oracle",
                      ["features.csv", "extract_log.txt"])


def test_split_search_matches_per_feature_oracle(seed1_cohort, tmp_path, monkeypatch):
    cfg = tmp_path / "train.cfg"  # criterion 9 settings, master seed 1
    cfg.write_text(f"cohort_table={seed1_cohort.features / 'features.csv'}\nspecs=SRG,R\n"
                   "master_seed=1\neta_grid=0.1,0.3\nk_folds=5\nn_instances=50\nmax_rounds=150\n"
                   "patience=15\nmax_depth=4\n")
    train = ["train-eval", "--config", str(cfg), "--out"]
    assert cli.main(train + [str(tmp_path / "shipped")]) == 0
    oracle = mock.Mock(wraps=oracles.PerFeatureScanBooster)
    monkeypatch.setattr(gbt, "Booster", oracle)
    monkeypatch.setattr(pipeline, "Booster", oracle)
    assert cli.main(train + [str(tmp_path / "oracle")]) == 0
    assert oracle.call_count == 2 * (2 * 5 + 50)  # per spec: 2 etas x 5 folds, 50 instances
    assert_same_bytes(tmp_path / "shipped" / "reports", tmp_path / "oracle" / "reports")
