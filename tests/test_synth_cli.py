import contextlib
import csv
import dataclasses
import io
import json
import logging
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecgtriage import cli, synth
from ecgtriage.cohort import COHORT_COLUMNS, GEH_COLUMNS, STANDARD_COLUMNS, load_cohort
from ecgtriage.ecg_ingest import parse_ecg, parse_fiducials, round_half_up
from ecgtriage.errors import ConfigError, SchemaError
from ecgtriage.pipeline import ExperimentConfig
from ecgtriage.synth import SynthConfig, generate, synth_matrix
from ecgtriage.vcg import KORS_MATRIX

from conftest import assert_same_bytes, call_count, counted
from oracles import dense_grid_geh, gaussian_loop_vcg, per_beat_vcg, savetxt_text


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestSynthGenerator:
    def test_synthesis_matrix_is_right_inverse(self):
        np.testing.assert_allclose(KORS_MATRIX @ synth_matrix(), np.eye(3), atol=1e-12)

    def test_class_counts_deterministic_rounding(self, tmp_path):
        assert round_half_up(300 * 0.186) == 56
        out = generate(SynthConfig(n_patients=50, positive_fraction=0.186, seed=1),
                       tmp_path / "s")
        assert out["n_positive"] == round_half_up(50 * 0.186) == 9
        assert out["n_negative"] == 41

    def test_outputs_parse_and_validate(self, tmp_path):
        out = generate(SynthConfig(n_patients=12, seed=2), tmp_path / "s")
        cohort = load_cohort(out["cohort_table"])
        assert len(cohort) == 12
        rec = parse_ecg(tmp_path / "s" / "ecg" / "p0003.csv")
        assert rec.sampling_rate_hz == 240.0
        assert rec.n_samples / rec.sampling_rate_hz == pytest.approx(7.0)
        fids = parse_fiducials(tmp_path / "s" / "fiducials" / "p0003.json")
        assert len(fids.beats) >= 3
        fids.validate_against(rec)

    def test_header_rate_parses_back_exactly(self, tmp_path):
        generate(SynthConfig(n_patients=10, seed=2), tmp_path / "default")
        header = (tmp_path / "default" / "ecg" / "p0001.csv").read_text().splitlines()[0]
        assert header == "sample_rate_hz=240 gain_uv_per_unit=1.0"

    def test_deterministic_bytes(self, tmp_path):
        generate(SynthConfig(n_patients=10, seed=3), tmp_path / "a")
        generate(SynthConfig(n_patients=10, seed=3), tmp_path / "b")
        for rel in ("cohort.csv", "truth.csv", "ecg/p0007.csv", "fiducials/p0007.json"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_patients=5)
        with pytest.raises(ConfigError):
            SynthConfig(positive_fraction=1.5)
        with pytest.raises(ConfigError):
            SynthConfig(noise_sd_mv=-0.1)

    def test_r_peak_spacing_capped_at_longest_rr(self, tmp_path, monkeypatch):
        # RR draws near 1400 ms sit above the 1200 ms ceiling
        monkeypatch.setitem(synth.BEAT_TEMPLATE, "rr_ms", (1400.0, synth.BEAT_TEMPLATE["rr_ms"][1]))
        generate(SynthConfig(n_patients=20), tmp_path)
        for path in sorted((tmp_path / "fiducials").glob("*.json")):
            peaks = [beat.qrs.peak for beat in parse_fiducials(path).beats]
            assert len(peaks) >= 3
            assert max(np.diff(peaks)) * 1000.0 / synth.SAMPLING_RATE_HZ <= 1200.0, path.name

    def test_angle_shift_separates_truth(self, tmp_path):
        out = generate(SynthConfig(n_patients=60, seed=4, positive_fraction=0.4,
                                   qrst_angle_shift_deg=30.0), tmp_path / "s")
        rows = read_rows(out["truth_table"])
        pos = [float(r["qrst_angle_deg"]) for r in rows if r["outcome"] == "positive"]
        neg = [float(r["qrst_angle_deg"]) for r in rows if r["outcome"] == "negative"]
        assert np.median(pos) - np.median(neg) > 15.0

    def test_extracted_features_in_adult_cohort_bands(self, synth_cohort_dir):
        # sanity corridor, not equality: medians of the default generator fall
        # inside ranges typical of a referred adult cohort
        rows = read_rows(synth_cohort_dir / "extract" / "features.csv")
        svg = np.median([float(r["svg_mvms"]) for r in rows])
        angle = np.median([float(r["peak_qrst_angle_deg"]) for r in rows])
        assert 40.3 <= svg <= 83.7
        assert 25.7 <= angle <= 90.2

    def test_injected_effect_survives_extraction(self, synth_cohort_dir):
        rows = read_rows(synth_cohort_dir / "extract" / "features.csv")
        truth = {r["id"]: r for r in read_rows(synth_cohort_dir / "data" / "truth.csv")}
        pos, neg, recovery = [], [], []
        for r in rows:
            angle = float(r["peak_qrst_angle_deg"])
            (pos if r["outcome"] == "positive" else neg).append(angle)
            recovery.append(abs(angle - float(truth[r["id"]]["qrst_angle_deg"])))
        # default +30 degree shift for positives, allowing clipping and noise
        assert np.median(pos) - np.median(neg) > 15.0
        assert np.median(recovery) < 5.0

    def test_no_signal_gives_no_skill(self, tmp_path):
        from ecgtriage.cohort import load_cohort
        from ecgtriage.pipeline import ExperimentConfig, evaluate_model, split

        data = generate(SynthConfig(n_patients=80, seed=8, positive_fraction=0.3,
                                    qrst_angle_shift_deg=0.0, svg_scale=1.0,
                                    risk_effect=0.0), tmp_path / "d")
        cfg = write_cfg(tmp_path / "c.cfg", ecg_dir=tmp_path / "d" / "ecg",
                        fiducial_dir=tmp_path / "d" / "fiducials",
                        cohort_table=data["cohort_table"], out_dir=tmp_path / "o")
        assert cli.main(["extract", "--config", cfg]) == 0
        cohort = load_cohort(tmp_path / "o" / "features.csv")
        aucs = []
        for seed in range(1, 5):
            ec = ExperimentConfig(master_seed=seed, eta_grid=(0.3,), k_folds=3,
                                  n_instances=3, max_rounds=25, patience=6, max_depth=3)
            aucs.append(evaluate_model("SRG", cohort, ec, split(cohort, seed))["metrics"]["auc"])
        assert 0.25 <= float(np.mean(aucs)) <= 0.75


class TestBeatSum:
    # the template's RR draws, and draws near 1400 ms that the 1200 ms ceiling caps
    @pytest.mark.parametrize("rr_ms", [None, 1400.0])
    def test_generate_matches_per_beat_loop(self, tmp_path, monkeypatch, rr_ms):
        if rr_ms is not None:
            monkeypatch.setitem(synth.BEAT_TEMPLATE, "rr_ms", (rr_ms, synth.BEAT_TEMPLATE["rr_ms"][1]))
        patient_vcg = synth._patient_vcg

        def checked(bumps, t_axis_ms, centers):
            # in whichever process writes the patient; a failure ends generate
            v = patient_vcg(bumps, t_axis_ms, centers)
            # tobytes: a -0.0 where the loop gives +0.0 counts as a difference
            assert v.tobytes() == per_beat_vcg(bumps, t_axis_ms, centers).tobytes()
            return v

        monkeypatch.setattr(synth, "_patient_vcg", counted(checked, tmp_path / "calls"))
        generate(SynthConfig(n_patients=20, seed=6, positive_fraction=0.3), tmp_path / "s")
        assert call_count(tmp_path / "calls") == 20

    def test_underflowed_s_bump_sums_to_positive_zero(self):
        # away from its center a narrow S bump's exp underflows and each of its
        # terms is -0.0; the zero starts of the beat and of the record make it +0.0
        bumps, _, _, _ = synth._draw_shape(SynthConfig(), np.random.default_rng(3), False)
        amp, _, center, direction = bumps[2]
        assert amp < 0
        narrow_s = ((amp, 0.5, center, np.abs(direction)),)
        t_axis_ms = np.arange(1680) * 1000.0 / 240.0
        centers = [96, 305, 514, 723]
        v = synth._patient_vcg(narrow_s, t_axis_ms, centers)
        assert v.tobytes() == per_beat_vcg(narrow_s, t_axis_ms, centers).tobytes()
        assert (v == 0).any() and not np.signbit(v[v == 0]).any()


_LIMIT = 2.0 ** 31 / 1000.0  # uV; at or above it the trace writer hands over to np.savetxt
_HALF_WAY = st.integers(-2_000_000_000, 2_000_000_000).map(lambda k: k / 1000 + 0.0005)
_CELLS = st.one_of(
    _HALF_WAY,
    st.tuples(_HALF_WAY, st.sampled_from([-math.inf, math.inf])).map(lambda v: float(np.nextafter(*v))),
    st.integers(-34_000_000, 34_000_000).map(lambda k: k / 16),  # exact binary ties
    st.just(-0.0),
    st.floats(min_value=-0.0005, max_value=0.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=-_LIMIT, max_value=_LIMIT, exclude_min=True, exclude_max=True),
    st.floats(min_value=-1e4, max_value=1e4),
)
_PAST_LIMIT = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, _LIMIT, -_LIMIT]),
    st.floats(min_value=_LIMIT, max_value=1e300),
    st.floats(min_value=-1e300, max_value=-_LIMIT),
)


def write_cells(cells):
    buf = io.StringIO()
    synth.write_trace_cells(buf, cells, synth.TraceWork(cells.size))
    return buf.getvalue()


class TestTraceWriter:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 12))
    def test_matches_savetxt(self, data, rows, cols):
        cells = np.array(data.draw(st.lists(_CELLS, min_size=rows * cols, max_size=rows * cols)))
        past = data.draw(st.none() | st.tuples(st.integers(0, cells.size - 1), _PAST_LIMIT))
        if past is not None:
            cells[past[0]] = past[1]
        cells = cells.reshape(rows, cols)
        expected = savetxt_text(cells)
        # the arithmetic writes every in-range array, np.savetxt none
        no_savetxt = mock.patch.object(np, "savetxt", side_effect=AssertionError("savetxt called"))
        with no_savetxt if past is None else contextlib.nullcontext():
            assert write_cells(cells) == expected

    def test_signs_ties_and_limit(self):
        cells = np.array([[0.0, -0.0, -1e-7, -1e-300, 0.0005, -0.0005, 1 / 16, -2.5e-3],
                          [_LIMIT / 2, -np.nextafter(_LIMIT, 0), 999.9995, 1e-3, -1e6, 7.0, 0.5, -0.5]])
        assert write_cells(cells) == savetxt_text(cells)
        assert write_cells(cells).startswith("0.000,-0.000,-0.000,-0.000,0.001,-0.001,0.062,-0.003\n")

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1), n_edge=st.integers(0, 120),
           column_major=st.booleans())
    def test_full_trace_with_edge_cells(self, data, seed, n_edge, column_major):
        # a synth-sized trace, laid out as generate hands it over or row by row
        rng = np.random.default_rng(seed)
        cells = rng.normal(0.0, 800.0, size=(1680, 12))
        cells.ravel()[rng.choice(cells.size, size=n_edge, replace=False)] = data.draw(
            st.lists(_CELLS, min_size=n_edge, max_size=n_edge))
        cells = np.asfortranarray(cells) if column_major else cells
        assert write_cells(cells) == savetxt_text(cells)

    @pytest.mark.parametrize("shape", [(1, 12), (2, 1), (255, 12), (257, 7), (1023, 12), (1681, 12),
                                       (4099, 3)])
    def test_row_counts(self, shape):
        rng = np.random.default_rng(shape[0])
        cells = rng.normal(0.0, 1500.0, size=shape)
        assert write_cells(cells) == savetxt_text(cells)

    def test_reused_work_arrays_reset_between_traces(self):
        # 7 integer digits, then 1, then 7 again, through the same work arrays
        rng = np.random.default_rng(7)
        wide = rng.uniform(-2_000_000.0, 2_000_000.0, size=(1680, 12))
        narrow = rng.uniform(-9.9, 9.9, size=(1680, 12))
        work = synth.TraceWork(wide.size)
        for cells in (wide, narrow, wide):
            buf = io.StringIO()
            synth.write_trace_cells(buf, cells, work)
            assert buf.getvalue() == savetxt_text(cells)

    @pytest.mark.parametrize("keys", [{"noise_sd_mv": 0.0}, {"svg_scale": 1e6}])
    def test_cohort_bytes_match_savetxt(self, tmp_path, monkeypatch, keys):
        cfg = SynthConfig(n_patients=12, seed=9, **keys)
        generate(cfg, tmp_path / "shipped")
        savetxt_cells = counted(lambda fh, cells, work: fh.write(savetxt_text(cells)), tmp_path / "calls")
        monkeypatch.setattr(synth, "write_trace_cells", savetxt_cells)
        generate(cfg, tmp_path / "oracle")
        assert call_count(tmp_path / "calls") == 12  # one per trace: the substitute ran
        files = sorted(p.relative_to(tmp_path / "oracle") for p in (tmp_path / "oracle").rglob("*.*"))
        assert len(files) == 2 * 12 + 2
        for rel in files:
            assert (tmp_path / "shipped" / rel).read_bytes() == (tmp_path / "oracle" / rel).read_bytes()


class TestWorkers:
    def test_bytes_do_not_depend_on_worker_count(self, tmp_path, monkeypatch):
        cfg = SynthConfig(n_patients=40, seed=11, positive_fraction=0.3)
        for workers in (1, 2, 3):
            monkeypatch.setattr(synth, "usable_cpus", lambda n=workers: n)
            generate(cfg, tmp_path / str(workers))
        for workers in (2, 3):
            assert_same_bytes(tmp_path / "1", tmp_path / str(workers))
        assert multiprocessing.active_children() == []

    def test_blocked_trace_path_exits_2_under_any_worker_count(self, tmp_path, monkeypatch, caplog):
        cfg = write_cfg(tmp_path / "c.cfg", synth_n_patients=40, synth_positive_fraction=0.3)
        out = tmp_path / "s"
        messages = []
        for workers in (1, 2):
            monkeypatch.setattr(synth, "usable_cpus", lambda n=workers: n)
            shutil.rmtree(out, ignore_errors=True)
            (out / "ecg" / "p0007.csv").mkdir(parents=True)
            caplog.clear()
            with caplog.at_level(logging.ERROR, logger="ecgtriage"):
                assert cli.main(["synth", "--config", cfg, "--out", str(out), "--seed", "11"]) == 2
            messages += [r.getMessage() for r in caplog.records]
            assert multiprocessing.active_children() == []
        assert len(messages) == 2 and messages[0] == messages[1]
        assert messages[0].startswith(f"config error: cannot write output {out}: ")
        assert str(out / "ecg" / "p0007.csv") in messages[0]


def write_cfg(path, **keys):
    path.write_text("".join(f"{k}={v}\n" for k, v in keys.items()), encoding="utf-8")
    return str(path)


class TestCliBasics:
    def test_version(self, capsys):
        assert cli.main(["version"]) == 0
        assert "ecgtriage" in capsys.readouterr().out

    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", bogus="1")
        assert cli.main(["table-one", "--config", cfg]) == 2

    def test_missing_table_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", cohort_table=tmp_path / "nope.csv")
        assert cli.main(["table-one", "--config", cfg]) == 2

    def test_bad_schema_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,sex\np1,M\n")
        cfg = write_cfg(tmp_path / "c.cfg", cohort_table=bad, out_dir=tmp_path / "o")
        assert cli.main(["table-one", "--config", cfg]) == 3

    @pytest.mark.parametrize("column,text", [("p_dur_ms", "abc"), ("pr_ms", "inf")])
    def test_bad_p_wave_cell_without_core_intervals(self, tmp_path, synth_cohort_dir, column, text):
        rows = read_rows(synth_cohort_dir / "extract" / "features.csv")
        rows[0].update(qrs_ms="", qt_ms="", qtc_ms="", rr_ms="")
        rows[0][column] = text
        table = tmp_path / "bad.csv"
        with open(table, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=COHORT_COLUMNS, lineterminator="\n")
            w.writeheader()
            w.writerows(rows)
        with pytest.raises(SchemaError) as info:
            load_cohort(table)
        assert info.value.column == column
        cfg = write_cfg(tmp_path / "c.cfg", cohort_table=table, out_dir=tmp_path / "o")
        assert cli.main(["table-one", "--config", cfg]) == 3

    @pytest.mark.parametrize("kind", ["non_utf8", "directory"])
    def test_unreadable_cohort_table_is_data_error(self, tmp_path, caplog, kind):
        bad = tmp_path / "bad.csv"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(",".join(COHORT_COLUMNS).encode() + b"\np\xff1\n")
        cfg = write_cfg(tmp_path / "c.cfg", cohort_table=bad, out_dir=tmp_path / "o")
        with caplog.at_level(logging.ERROR, logger="ecgtriage"):
            assert cli.main(["table-one", "--config", cfg]) == 3
        assert caplog.records[-1].getMessage().startswith("data error:")

    def test_single_class_train_is_degenerate_error(self, tmp_path, synth_cohort_dir):
        rows = read_rows(synth_cohort_dir / "extract" / "features.csv")
        single = tmp_path / "single.csv"
        with open(single, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=COHORT_COLUMNS, lineterminator="\n")
            w.writeheader()
            for r in rows:
                if r["outcome"] == "negative":
                    w.writerow(r)
        cfg = write_cfg(tmp_path / "c.cfg", cohort_table=single, out_dir=tmp_path / "o")
        assert cli.main(["train-eval", "--config", cfg]) == 4

    @pytest.mark.parametrize("line", [
        "eta_grid=", "specs=", "specs=X", "eta_grid=2.0", "eta_grid=0.1,abc",
        "k_folds=0", "k_folds=1", "k_folds=2.5", "max_rounds=0", "max_depth=0", "master_seed=-1",
        "n_instances=0", "patience=0", "holdout_selection=maybe", "beat_aggregation=mode",
        "beat_aggregation=mean", "synth_seed=3", "experiment=1", "specs=s,S,r", "eta_grid=0.1,0.1",
    ])
    def test_bad_value_exits_2(self, tmp_path, synth_cohort_dir, caplog, line):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"cohort_table={synth_cohort_dir / 'extract' / 'features.csv'}\n"
                       f"out_dir={tmp_path / 'o'}\n{line}\n", encoding="utf-8")
        with caplog.at_level(logging.ERROR, logger="ecgtriage"):
            assert cli.main(["train-eval", "--config", str(cfg)]) == 2
        assert [r.getMessage().split(":")[0] for r in caplog.records] == ["config error"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["extract", "table-one", "train-eval", "synth"])
    def test_out_naming_a_file_exits_2(self, tmp_path, synth_cohort_dir, caplog, command):
        (tmp_path / "o").write_text("")
        cfg = write_cfg(tmp_path / "c.cfg", ecg_dir=synth_cohort_dir / "data" / "ecg",
                        fiducial_dir=synth_cohort_dir / "data" / "fiducials",
                        cohort_table=synth_cohort_dir / "extract" / "features.csv")
        with caplog.at_level(logging.ERROR, logger="ecgtriage"):
            assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        [record] = caplog.records
        assert record.getMessage().startswith("config error: cannot create output directory")
        assert (tmp_path / "o").read_text() == ""

    @pytest.mark.parametrize("command,blocked", [
        ("synth", "ecg"), ("extract", "features.csv"), ("train-eval", "reports/report_SRG.json"),
    ])
    def test_blocked_output_path_exits_2(self, tmp_path, synth_cohort_dir, caplog, command, blocked):
        out = tmp_path / "o"
        (out / blocked).parent.mkdir(parents=True)
        if command == "synth":
            (out / blocked).write_text("")
        else:
            (out / blocked).mkdir()
        cfg = write_cfg(tmp_path / "c.cfg", ecg_dir=synth_cohort_dir / "data" / "ecg",
                        fiducial_dir=synth_cohort_dir / "data" / "fiducials",
                        cohort_table=synth_cohort_dir / "extract" / "features.csv",
                        specs="SRG", n_instances=1, max_rounds=5, k_folds=2)
        with caplog.at_level(logging.ERROR, logger="ecgtriage"):
            assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        [record] = caplog.records
        assert record.getMessage().startswith(f"config error: cannot write output {out}")

    @pytest.mark.parametrize("content", [None, b"master_seed=1\n\xff\n"])
    def test_unreadable_config_file_exits_2(self, tmp_path, caplog, content):
        cfg = tmp_path / "c.cfg"
        if content is not None:
            cfg.write_bytes(content)
        with caplog.at_level(logging.ERROR, logger="ecgtriage"):
            assert cli.main(["table-one", "--config", str(cfg)]) == 2
        assert caplog.records[-1].getMessage().startswith("config error: cannot read config file")

    def test_repeated_config_key_exits_2(self, tmp_path, synth_cohort_dir, caplog):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"master_seed=1\ncohort_table={synth_cohort_dir / 'extract' / 'features.csv'}\n"
                       f"# a comment\n\n master_seed = 2\n", encoding="utf-8")
        with caplog.at_level(logging.ERROR, logger="ecgtriage"):
            assert cli.main(["table-one", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        [record] = caplog.records
        assert record.getMessage() == f"config error: {cfg}:5: key 'master_seed' repeats line 1"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key,value", [
        ("master_seed", "1_0"), ("n_instances", "٥"), ("k_folds", "５"), ("max_depth", " 4_0 "),
        ("eta_grid", "0.1,0_3"), ("synth_risk_effect", "1_0.5"), ("synth_positive_fraction", "0.９"),
        ("patience", "٣٠"), ("synth_n_patients", "1_00"), ("synth_noise_sd_mv", "0.0２"),
    ])
    def test_config_numerals_follow_the_numeral_rule(self, tmp_path, synth_cohort_dir, caplog,
                                                     key, value):
        cfg = write_cfg(tmp_path / "c.cfg", cohort_table=synth_cohort_dir / "extract" / "features.csv",
                        **{key: value})
        command = "synth" if key.startswith("synth_") else "table-one"
        with caplog.at_level(logging.ERROR, logger="ecgtriage"):
            assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        [record] = caplog.records
        assert record.getMessage() == f"config error: {key}: cannot parse {value.strip()!r}"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["extract", "table-one", "train-eval"])
    @pytest.mark.parametrize("key,value,message", [
        ("synth_n_patients", "abc", "synth_n_patients: cannot parse 'abc'"),
        ("synth_svg_scale", "-1", "svg_scale must be finite and positive"),
    ])
    def test_every_command_refuses_a_bad_synth_value(self, tmp_path, synth_cohort_dir, caplog,
                                                     command, key, value, message):
        # inputs that the command would run on: only the synth_ key is wrong
        cfg = write_cfg(tmp_path / "c.cfg", ecg_dir=synth_cohort_dir / "data" / "ecg",
                        fiducial_dir=synth_cohort_dir / "data" / "fiducials",
                        cohort_table=synth_cohort_dir / "extract" / "features.csv",
                        specs="SRG", n_instances=1, max_rounds=5, k_folds=2, **{key: value})
        with caplog.at_level(logging.ERROR, logger="ecgtriage"):
            assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        [record] = caplog.records
        assert record.getMessage() == f"config error: {message}"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_only_lf_cr_and_crlf_end_a_config_line(self, tmp_path, separator):
        # str.splitlines would end the line here and set master_seed to 9
        path = tmp_path / "c.cfg"
        path.write_text(f"cohort_table=data/cohort.csv{separator}master_seed=9\n", encoding="utf-8")
        cfg, _ = load(["table-one", "--config", str(path)])
        assert cfg.cohort_table == Path(f"data/cohort.csv{separator}master_seed=9")
        assert cfg.experiment.master_seed == 0

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_config_files(self, tmp_path, end):
        path = tmp_path / "c.cfg"
        path.write_bytes(end.join(["# a comment", "master_seed=9", "", "k_folds=3", ""]).encode())
        cfg, _ = load(["table-one", "--config", str(path)])
        assert (cfg.experiment.master_seed, cfg.experiment.k_folds) == (9, 3)
        path.write_bytes(end.join(["master_seed=9", "", "master_seed=8", ""]).encode())
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:3: key 'master_seed' repeats line 1$"):
            load(["table-one", "--config", str(path)])


def load(argv):
    return cli.load_config(cli.build_parser().parse_args(argv))


class TestConfigPath:
    def test_every_field_round_trips(self, tmp_path):
        run = {"ecg_dir": Path("e"), "fiducial_dir": Path("f"), "cohort_table": Path("c.csv"),
               "out_dir": Path("o"), "specs": ("SRG", "G")}
        experiment = {"master_seed": 12, "eta_grid": (0.05, 0.2), "k_folds": 4,
                      "n_instances": 7, "holdout_selection": True, "max_rounds": 90,
                      "patience": 9, "max_depth": 5}
        synth = {f.name: f.default + (1 if f.type == "int" else 0.125)
                 for f in dataclasses.fields(SynthConfig) if f.name != "seed"}
        assert set(run) | {"experiment"} == {f.name for f in dataclasses.fields(cli.RunConfig)}
        assert set(experiment) == {f.name for f in dataclasses.fields(ExperimentConfig)}

        def text(v):
            return ",".join(map(str, v)) if isinstance(v, tuple) else str(v)

        lines = [f"{k}={text(v)}" for k, v in (run | experiment).items()]
        lines += [f"synth_{k}={v!r}" for k, v in synth.items()]
        assert len(lines) == 19
        lines[lines.index("specs=SRG,G")] = "specs=srg, g"
        (tmp_path / "c.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg, sc = load(["synth", "--config", str(tmp_path / "c.cfg")])

        assert cfg == cli.RunConfig(**run, experiment=ExperimentConfig(**experiment))
        assert sc == SynthConfig(**synth, seed=experiment["master_seed"])
        for obj in (cfg, cfg.experiment, sc):
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                if not dataclasses.is_dataclass(value):
                    assert type(value).__name__ in f.type or isinstance(value, Path), f.name

    def test_flags_override_file_keys(self, tmp_path):
        cfg_path = write_cfg(tmp_path / "c.cfg", master_seed=3, out_dir="a", specs="r,srg",
                             holdout_selection="yes")
        cfg, _ = load(["train-eval", "--config", cfg_path, "--seed", "4", "--out", "b"])
        assert cfg.out_dir == Path("b")
        assert cfg.specs == ("R", "SRG")
        assert cfg.experiment == ExperimentConfig(master_seed=4, holdout_selection=True)

    def test_docstring_names_exactly_the_keys_and_flags(self, capsys):
        doc = cli.__doc__

        def listed(after):
            return {k.strip() for k in re.search(after + r"\s+\(([^)]*)\)", doc)[1].split(",")}

        keys = (listed("RunConfig") | listed("ExperimentConfig")
                | {"synth_" + k for k in listed("which is master_seed")})
        accepted = {f.name for cls in (cli.RunConfig, ExperimentConfig) for f in dataclasses.fields(cls)}
        accepted |= {"synth_" + f.name for f in dataclasses.fields(SynthConfig)}
        assert keys == accepted - {"experiment", "synth_seed"}
        assert len(keys) == 19
        with pytest.raises(SystemExit):
            cli.main(["train-eval", "--help"])
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
        assert set(re.findall(r"--[a-z-]+", doc)) == flags
        assert len(flags) == 3

    @pytest.mark.parametrize("removed", [
        "--no-stratify", "--min-sens=0.5", "min_sensitivity", "stratify", "split_ratio",
        "min_child_hessian", "l2_reg", "gamma", "pre_ms", "post_ms",
        "synth_sampling_rate_hz", "synth_duration_s", "--specs", "--holdout-selection",
    ])
    def test_removed_keys_and_flags_exit_2(self, tmp_path, caplog, removed):
        if removed.startswith("--"):
            with pytest.raises(SystemExit) as exit_:
                cli.main(["table-one", removed])
            assert exit_.value.code == 2
            return
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{removed}=1\n", encoding="utf-8")
        with caplog.at_level(logging.ERROR, logger="ecgtriage"):
            assert cli.main(["table-one", "--config", str(cfg)]) == 2
        [record] = caplog.records
        assert record.getMessage() == f"config error: unknown config key {removed!r}"

    @pytest.mark.parametrize("command,key,flags", [
        ("extract", "ecg_dir", []), ("extract", "fiducial_dir", []),
        ("table-one", "cohort_table", []), ("table-one", "out_dir", []),
        ("table-one", None, ["--out", ""]),
    ])
    def test_empty_path_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, caplog,
                                                   synth_cohort_dir, command, key, flags):
        # Path("") is the working directory: an empty cohort_table was read as
        # one (exit 3), an empty out_dir got table_one.json (exit 0)
        data = synth_cohort_dir / "data"
        table = data / "cohort.csv" if command == "extract" else synth_cohort_dir / "extract" / "features.csv"
        keys = {"ecg_dir": data / "ecg", "fiducial_dir": data / "fiducials",
                "cohort_table": table, "out_dir": "out"}
        if key is not None:
            keys[key] = ""
        cfg = write_cfg(tmp_path / "c.cfg", **keys)
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        with caplog.at_level(logging.ERROR, logger="ecgtriage"):
            assert cli.main([command, "--config", cfg, *flags]) == 2
        [record] = caplog.records
        assert record.getMessage() == f"config error: {key or 'out_dir'}: cannot parse ''"
        assert list((tmp_path / "cwd").iterdir()) == []

    def test_defaults_without_config_file(self):
        cfg, sc = load(["table-one"])
        assert sc == SynthConfig()
        assert cfg == cli.RunConfig()
        assert cfg.specs == ("S", "R", "G", "SRG")

    def test_unknown_spec_message(self):
        with pytest.raises(ConfigError, match=r"^specs must list models among S, R, G, SRG, got \('X',\)$"):
            cli.RunConfig(specs=("x",))


class TestExtractCommand:
    def test_three_patient_fixture_counts(self, tmp_path):
        data = generate(SynthConfig(n_patients=10, seed=5, positive_fraction=0.3),
                        tmp_path / "d")
        keep = ("p0001", "p0002", "p0003")
        rows = [r for r in read_rows(data["cohort_table"]) if r["id"] in keep]
        small = tmp_path / "three.csv"
        with open(small, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=COHORT_COLUMNS, lineterminator="\n")
            w.writeheader()
            w.writerows(rows)
        cfg = write_cfg(tmp_path / "c.cfg", ecg_dir=tmp_path / "d" / "ecg",
                        fiducial_dir=tmp_path / "d" / "fiducials",
                        cohort_table=small, out_dir=tmp_path / "o")
        assert cli.main(["extract", "--config", cfg]) == 0
        out = read_rows(tmp_path / "o" / "features.csv")
        assert len(out) == 3
        assert len(COHORT_COLUMNS) == 26  # id + outcome + 24 covariate/feature columns
        for row in out:
            for col in COHORT_COLUMNS:
                assert row[col] != "", col

    def test_bad_patient_is_isolated(self, tmp_path):
        data = generate(SynthConfig(n_patients=10, seed=6, positive_fraction=0.4),
                        tmp_path / "d")
        # corrupt one trace: drop a column in row 7
        ecg_path = tmp_path / "d" / "ecg" / "p0004.csv"
        lines = ecg_path.read_text().splitlines()
        lines[9] = ",".join(lines[9].split(",")[:11])
        ecg_path.write_text("\n".join(lines) + "\n")
        cfg = write_cfg(tmp_path / "c.cfg", ecg_dir=tmp_path / "d" / "ecg",
                        fiducial_dir=tmp_path / "d" / "fiducials",
                        cohort_table=data["cohort_table"], out_dir=tmp_path / "o")
        assert cli.main(["extract", "--config", cfg]) == 0
        log = (tmp_path / "o" / "extract_log.txt").read_text().splitlines()
        statuses = {ln.split("\t")[0]: ln.split("\t")[1] for ln in log}
        assert statuses["p0004"] == "failed"
        assert sum(1 for s in statuses.values() if s != "ok") == 1
        out = {r["id"]: r for r in read_rows(tmp_path / "o" / "features.csv")}
        assert out["p0004"]["svg_mvms"] == ""
        assert out["p0005"]["svg_mvms"] != ""

    def test_failed_patient_drops_measures_it_came_with(self, tmp_path):
        data = generate(SynthConfig(n_patients=10, seed=6, positive_fraction=0.4), tmp_path / "d")
        dirs = dict(ecg_dir=tmp_path / "d" / "ecg", fiducial_dir=tmp_path / "d" / "fiducials")
        first = write_cfg(tmp_path / "a.cfg", **dirs, cohort_table=data["cohort_table"],
                          out_dir=tmp_path / "a")
        assert cli.main(["extract", "--config", first]) == 0
        (tmp_path / "d" / "ecg" / "p0002.csv").write_text("not a trace\n")
        again = write_cfg(tmp_path / "b.cfg", **dirs, cohort_table=tmp_path / "a" / "features.csv",
                          out_dir=tmp_path / "b")
        assert cli.main(["extract", "--config", again]) == 0
        log = (tmp_path / "b" / "extract_log.txt").read_text().splitlines()
        assert log[1].startswith("p0002\tfailed\t")
        measures = STANDARD_COLUMNS + GEH_COLUMNS
        assert len(measures) == 15
        first_rows = {r["id"]: r for r in read_rows(tmp_path / "a" / "features.csv")}
        for row in read_rows(tmp_path / "b" / "features.csv"):
            if row["id"] == "p0002":
                assert [row[c] for c in measures] == [""] * 15
                assert first_rows["p0002"]["svg_mvms"] != ""
            else:
                assert row == first_rows[row["id"]]

    def test_empty_cohort_writes_empty_log(self, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text(",".join(COHORT_COLUMNS) + "\n")
        cfg = write_cfg(tmp_path / "c.cfg", ecg_dir=tmp_path, fiducial_dir=tmp_path,
                        cohort_table=table, out_dir=tmp_path / "o")
        assert cli.main(["extract", "--config", cfg]) == 0
        assert (tmp_path / "o" / "extract_log.txt").read_bytes() == b""
        assert read_rows(tmp_path / "o" / "features.csv") == []

    def test_undecodable_files_are_isolated(self, tmp_path):
        data = generate(SynthConfig(n_patients=10, seed=6, positive_fraction=0.4),
                        tmp_path / "d")
        trace = tmp_path / "d" / "ecg" / "p0004.csv"
        trace.write_bytes(trace.read_bytes().replace(b",", b",\xff", 1))
        (tmp_path / "d" / "fiducials" / "p0007.json").write_bytes(b"\xfe\xff{")
        cfg = write_cfg(tmp_path / "c.cfg", ecg_dir=tmp_path / "d" / "ecg",
                        fiducial_dir=tmp_path / "d" / "fiducials",
                        cohort_table=data["cohort_table"], out_dir=tmp_path / "o")
        assert cli.main(["extract", "--config", cfg]) == 0
        log = (tmp_path / "o" / "extract_log.txt").read_text().splitlines()
        statuses = {ln.split("\t")[0]: ln.split("\t")[1] for ln in log}
        assert {pid for pid, s in statuses.items() if s != "ok"} == {"p0004", "p0007"}
        assert statuses["p0004"] == statuses["p0007"] == "failed"

    def test_huge_amplitude_trace_fails_its_patient(self, tmp_path):
        # the squares of samples this large overflow in geh: the patient fails, no inf is written
        data = generate(SynthConfig(n_patients=10, seed=6, positive_fraction=0.4), tmp_path / "d")
        trace = tmp_path / "d" / "ecg" / "p0003.csv"
        trace.write_text(trace.read_text().replace("gain_uv_per_unit=1.0", "gain_uv_per_unit=1e160", 1))
        cfg = write_cfg(tmp_path / "c.cfg", ecg_dir=tmp_path / "d" / "ecg",
                        fiducial_dir=tmp_path / "d" / "fiducials",
                        cohort_table=data["cohort_table"], out_dir=tmp_path / "o")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["extract", "--config", cfg]) == 0
        log = (tmp_path / "o" / "extract_log.txt").read_text().splitlines()
        assert [ln.split("\t")[:2] for ln in log if "\tok\t" not in ln] == [["p0003", "failed"]]
        assert "mV or more in magnitude" in log[2]
        table = write_cfg(tmp_path / "t.cfg", cohort_table=tmp_path / "o" / "features.csv")
        assert cli.main(["table-one", "--config", table, "--out", str(tmp_path / "t")]) == 0

    # landmarks annotated past the beat window, 300 ms before R to 500 ms after
    # (72 + 120 samples at 240 Hz): every consolidated beat has one outside it
    @pytest.mark.parametrize("wave, mark, offset", [("p", "onset", -73), ("t", "offset", 121)])
    def test_landmark_outside_window_fails_every_patient(self, tmp_path, wave, mark, offset):
        data = generate(SynthConfig(n_patients=10, seed=3, positive_fraction=0.3), tmp_path / "d")
        for path in (tmp_path / "d" / "fiducials").glob("*.json"):
            doc = json.loads(path.read_text())
            for beat in doc["beats"]:
                beat[wave][mark] = beat["qrs"]["peak"] + offset
            path.write_text(json.dumps(doc))
        cfg = write_cfg(tmp_path / "c.cfg", ecg_dir=tmp_path / "d" / "ecg",
                        fiducial_dir=tmp_path / "d" / "fiducials",
                        cohort_table=data["cohort_table"], out_dir=tmp_path / "o")
        assert cli.main(["extract", "--config", cfg]) == 0
        assert (tmp_path / "o" / "extract_log.txt").read_text().splitlines() == [
            f"p{k:04d}\tfailed\tconsolidated landmark at window index {72 + offset} outside [0, 193)"
            for k in range(1, 11)]

    # a window too wide to count in samples fails the patient it meets, and the run goes on
    def test_window_too_wide_to_count_fails_its_patient(self, tmp_path):
        data = generate(SynthConfig(n_patients=10, seed=3, positive_fraction=0.3), tmp_path / "d")
        trace = tmp_path / "d" / "ecg" / "p0004.csv"
        body = trace.read_text().split("\n", 1)[1]
        trace.write_text(f"sample_rate_hz=1e307 gain_uv_per_unit=1.0\n{body}")
        cfg = write_cfg(tmp_path / "c.cfg", ecg_dir=tmp_path / "d" / "ecg",
                        fiducial_dir=tmp_path / "d" / "fiducials",
                        cohort_table=data["cohort_table"], out_dir=tmp_path / "o")
        assert cli.main(["extract", "--config", cfg]) == 0
        log = [ln.split("\t") for ln in (tmp_path / "o" / "extract_log.txt").read_text().splitlines()]
        assert len(log) == len(read_rows(tmp_path / "o" / "features.csv")) == 10
        assert [(pid, status) for pid, status, _ in log if status != "ok"] == [("p0004", "failed")]
        assert log[3][2].endswith("has no finite width")

    def test_forged_id_is_data_error(self, tmp_path):
        data = generate(SynthConfig(n_patients=10, seed=6, positive_fraction=0.4), tmp_path / "d")
        rows = read_rows(data["cohort_table"])
        rows[0]["id"] = "p0001\tok\tforged\np9999"
        with open(tmp_path / "forged.csv", "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=COHORT_COLUMNS, lineterminator="\n")
            w.writeheader()
            w.writerows(rows)
        cfg = write_cfg(tmp_path / "c.cfg", ecg_dir=tmp_path / "d" / "ecg",
                        fiducial_dir=tmp_path / "d" / "fiducials",
                        cohort_table=tmp_path / "forged.csv", out_dir=tmp_path / "o")
        assert cli.main(["extract", "--config", cfg]) == 3
        assert not (tmp_path / "o" / "extract_log.txt").exists()

    def test_failed_count_comes_from_statuses(self, tmp_path, caplog):
        # a failure message names its file, and this directory name holds "\tok\t"
        d = tmp_path / "a\tok\tb"
        data = generate(SynthConfig(n_patients=10, seed=6, positive_fraction=0.4), d)
        (d / "fiducials" / "p0002.json").unlink()
        cfg = write_cfg(tmp_path / "c.cfg", ecg_dir=d / "ecg", fiducial_dir=d / "fiducials",
                        cohort_table=data["cohort_table"], out_dir=tmp_path / "o")
        with caplog.at_level(logging.INFO, logger="ecgtriage"):
            assert cli.main(["extract", "--config", cfg]) == 0
        assert "\tok\t" in (tmp_path / "o" / "extract_log.txt").read_text().splitlines()[1]
        assert "extracted 10 patients (1 failed)" in caplog.records[-1].getMessage()

    def test_zero_t_wave_flagged_degenerate(self, tmp_path):
        # handcrafted patient: depolarization bump only, flat repolarization
        fs, n = 240.0, 1680
        traces = np.zeros((12, n))
        centers = [300, 600, 900]
        idx = np.arange(n)
        for c in centers:
            bump = np.exp(-0.5 * ((idx - c) / 4.0) ** 2) * (np.abs(idx - c) < 12)
            traces[0] += bump  # lead I only
        ecg_dir = tmp_path / "ecg"
        fid_dir = tmp_path / "fid"
        ecg_dir.mkdir()
        fid_dir.mkdir()
        lines = ["sample_rate_hz=240 gain_uv_per_unit=1000.0",
                 "I,II,III,aVR,aVL,aVF,V1,V2,V3,V4,V5,V6"]
        lines += [",".join(repr(float(v)) for v in traces[:, i]) for i in range(n)]
        (ecg_dir / "z1.csv").write_text("\n".join(lines) + "\n")
        beats = [{"baseline": c - 40,
                  "p": None,
                  "qrs": {"onset": c - 15, "peak": c, "offset": c + 15},
                  "t": {"onset": c + 40, "peak": c + 60, "offset": c + 90}}
                 for c in centers]
        (fid_dir / "z1.json").write_text(json.dumps({"beats": beats}))
        table = tmp_path / "t.csv"
        table.write_text(",".join(COHORT_COLUMNS) + "\n"
                         + "z1,M,60.0,25.0,0,0,0,0,0,0,negative" + "," * 15 + "\n")
        cfg = write_cfg(tmp_path / "c.cfg", ecg_dir=ecg_dir, fiducial_dir=fid_dir,
                        cohort_table=table, out_dir=tmp_path / "o")
        assert cli.main(["extract", "--config", cfg]) == 0
        log = (tmp_path / "o" / "extract_log.txt").read_text()
        assert "z1\tdegenerate" in log
        out = read_rows(tmp_path / "o" / "features.csv")
        assert out[0]["peak_qrst_angle_deg"] == ""

    def test_closed_form_patient_matches_dense_oracle(self, tmp_path):
        fs = 240.0
        dt = 1000.0 / fs
        u_q = np.array([0.55, 0.62, 0.45])
        u_q = u_q / np.linalg.norm(u_q)
        u_t = np.array([0.10, 0.70, 0.55])
        u_t = u_t / np.linalg.norm(u_t)
        # relative landmark samples; windows cover at least 3 sigma of every
        # bump they own and bumps sit 3 sigma apart, so the sampled peak is
        # the true continuous peak and truncation flanks stay negligible
        qrs_on, qrs_off, t_off, baseline = -12, 17, 85, -24
        bumps = ((1.4, 16.0, 0.0, u_q),
                 (-0.5, 10.0, 9 * dt, u_q),
                 (0.32, 42.0, (t_off - 30) * dt, u_t))
        centers = [400, 640, 880, 1120]
        n = 1680
        t_axis = np.arange(n) * dt
        v = np.zeros((3, n))
        for c in centers:
            v += gaussian_loop_vcg(t_axis - c * dt, bumps)
        leads8 = synth_matrix() @ v
        traces = np.vstack([
            leads8[0], leads8[1], leads8[1] - leads8[0],
            -(leads8[0] + leads8[1]) / 2, leads8[0] - leads8[1] / 2,
            leads8[1] - leads8[0] / 2, *leads8[2:],
        ])
        ecg_dir = tmp_path / "ecg"
        fid_dir = tmp_path / "fid"
        ecg_dir.mkdir()
        fid_dir.mkdir()
        lines = ["sample_rate_hz=240 gain_uv_per_unit=1.0",
                 "I,II,III,aVR,aVL,aVF,V1,V2,V3,V4,V5,V6"]
        lines += [",".join(repr(float(x) * 1000.0) for x in traces[:, i]) for i in range(n)]
        (ecg_dir / "cf1.csv").write_text("\n".join(lines) + "\n")
        beats = [{"baseline": c + baseline, "p": None,
                  "qrs": {"onset": c + qrs_on, "peak": c, "offset": c + qrs_off},
                  "t": {"onset": c + 35, "peak": c + t_off - 30, "offset": c + t_off}}
                 for c in centers]
        (fid_dir / "cf1.json").write_text(json.dumps({"beats": beats}))
        table = tmp_path / "t.csv"
        table.write_text(",".join(COHORT_COLUMNS) + "\n"
                         + "cf1,F,55.0,24.0,0,0,0,0,0,0,negative" + "," * 15 + "\n")
        cfg = write_cfg(tmp_path / "c.cfg", ecg_dir=ecg_dir, fiducial_dir=fid_dir,
                        cohort_table=table, out_dir=tmp_path / "o")
        assert cli.main(["extract", "--config", cfg]) == 0
        row = read_rows(tmp_path / "o" / "features.csv")[0]
        # neighbouring beats are ~1 s away; their tails are far below 0.1%,
        # so the single-beat closed form is a valid oracle for the median beat
        expected = dense_grid_geh(bumps, qrs_on * dt, qrs_off * dt, t_off * dt,
                                  baseline_ms=baseline * dt)
        for name in GEH_COLUMNS:
            assert float(row[name]) == pytest.approx(expected[name], rel=1e-3), name
        assert float(row["qrs_ms"]) == pytest.approx((qrs_off - qrs_on) * dt)
        assert float(row["qt_ms"]) == pytest.approx((t_off - qrs_on) * dt)

    def test_noise_free_cohort_recovers_all_nine_outputs(self, tmp_path):
        """The whole path from trace to GEH (parse, median beat, baseline, Kors,
        windows) on a noise-free synth cohort, against the dense-grid oracle of
        each patient's beat redrawn from its own seed, at the sample-rounded
        landmarks and baseline. Sampling alone leaves at most ~0.13 deg and 1%."""
        cfg = SynthConfig(n_patients=20, seed=7, noise_sd_mv=0.0)
        generate(cfg, tmp_path / "d")
        run = write_cfg(tmp_path / "c.cfg", ecg_dir=tmp_path / "d" / "ecg",
                        fiducial_dir=tmp_path / "d" / "fiducials",
                        cohort_table=tmp_path / "d" / "cohort.csv", out_dir=tmp_path / "o")
        assert cli.main(["extract", "--config", run]) == 0
        rows = read_rows(tmp_path / "o" / "features.csv")
        assert len(rows) == 20 and all(row["peak_qrst_angle_deg"] for row in rows)
        fs = synth.SAMPLING_RATE_HZ
        for i, row in enumerate(rows):
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1, i)))
            bumps, landmarks_ms, _, _ = synth._draw_shape(cfg, rng, row["outcome"] == "positive")
            at = {k: round_half_up(ms * fs / 1000.0) * 1000.0 / fs
                  for k, ms in landmarks_ms.items()}
            expected = dense_grid_geh(bumps, at["qrs_on"], at["qrs_off"], at["t_off"],
                                      baseline_ms=at["baseline"])
            for name in GEH_COLUMNS:
                got, want = float(row[name]), expected[name]
                if name.endswith("_deg"):
                    assert abs((got - want + 180.0) % 360.0 - 180.0) <= 0.25, (row["id"], name)
                else:
                    assert got == pytest.approx(want, rel=0.02), (row["id"], name)

    def test_rerun_is_byte_identical(self, tmp_path, synth_cohort_dir):
        cfg = write_cfg(tmp_path / "c.cfg",
                        ecg_dir=synth_cohort_dir / "data" / "ecg",
                        fiducial_dir=synth_cohort_dir / "data" / "fiducials",
                        cohort_table=synth_cohort_dir / "data" / "cohort.csv")
        assert cli.main(["extract", "--config", cfg, "--out", str(tmp_path / "o1")]) == 0
        assert cli.main(["extract", "--config", cfg, "--out", str(tmp_path / "o2")]) == 0
        assert (tmp_path / "o1" / "features.csv").read_bytes() == \
            (tmp_path / "o2" / "features.csv").read_bytes()


class TestTableOneCommand:
    def test_rows_and_determinism(self, tmp_path, synth_cohort_dir):
        cfg = write_cfg(tmp_path / "c.cfg",
                        cohort_table=synth_cohort_dir / "extract" / "features.csv")
        assert cli.main(["table-one", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["table-one", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        doc = json.loads((tmp_path / "a" / "table_one.json").read_text())
        assert len(doc["rows"]) == 25
        assert doc["rows"][0]["variable"] == "N"
        assert (tmp_path / "a" / "table_one.json").read_bytes() == \
            (tmp_path / "b" / "table_one.json").read_bytes()

    def test_non_finite_welch_moments_give_na(self, tmp_path, synth_cohort_dir, capfd):
        rows = read_rows(synth_cohort_dir / "extract" / "features.csv")
        negatives = [r for r in rows if r["outcome"] == "negative"]
        negatives[0]["qtc_ms"], negatives[1]["qtc_ms"] = "1e200", "-1e200"
        table = tmp_path / "huge.csv"
        with open(table, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=COHORT_COLUMNS, lineterminator="\n")
            w.writeheader()
            w.writerows(rows)
        cfg = write_cfg(tmp_path / "c.cfg", cohort_table=table, out_dir=tmp_path / "o")
        capfd.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["table-one", "--config", cfg]) == 0
        assert capfd.readouterr().err == ""
        doc = json.loads((tmp_path / "o" / "table_one.json").read_text())
        [row] = [r for r in doc["rows"] if r["variable"] == "Corrected QTi, ms"]
        assert row["p_value"] == "NA"
        assert not any("inf" in row[k] for k in ("total", "negative", "positive")), row


class TestTrainEvalCommand:
    def run_cfg(self, tmp_path, synth_cohort_dir, out, **extra):
        keys = dict(cohort_table=synth_cohort_dir / "extract" / "features.csv",
                    out_dir=out, master_seed=17, eta_grid="0.3", k_folds=3,
                    n_instances=4, max_rounds=30, patience=6, max_depth=3)
        keys.update(extra)
        return write_cfg(tmp_path / f"{out.name}.cfg", **keys)

    def test_four_reports_and_uniform_sensitivity(self, tmp_path, synth_cohort_dir):
        cfg = self.run_cfg(tmp_path, synth_cohort_dir, tmp_path / "o")
        assert cli.main(["train-eval", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "o" / "reports" / "summary.json").read_text())
        assert [r["model"] for r in summary["rows"]] == ["S", "R", "G", "SRG"]
        assert len({r["sensitivity_pct"] for r in summary["rows"]}) == 1
        for label in ("S", "R", "G", "SRG"):
            assert (tmp_path / "o" / "reports" / f"report_{label}.json").exists()
            assert (tmp_path / "o" / "reports" / f"roc_{label}.txt").exists()
            assert (tmp_path / "o" / "reports" / f"pr_{label}.txt").exists()
            assert (tmp_path / "o" / "reports" / f"importance_{label}.txt").exists()
        assert (tmp_path / "o" / "reports" / "winner_importance.txt").exists()

    def test_single_spec(self, tmp_path, synth_cohort_dir):
        cfg = self.run_cfg(tmp_path, synth_cohort_dir, tmp_path / "o", specs="g")
        assert cli.main(["train-eval", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "o" / "reports" / "summary.json").read_text())
        assert [r["model"] for r in summary["rows"]] == ["G"]
        assert not (tmp_path / "o" / "reports" / "report_S.json").exists()

    def test_holdout_selection_key_changes_protocol(self, tmp_path, synth_cohort_dir):
        cfg = self.run_cfg(tmp_path, synth_cohort_dir, tmp_path / "o", specs="g",
                           holdout_selection="true")
        assert cli.main(["train-eval", "--config", cfg]) == 0
        report = json.loads((tmp_path / "o" / "reports" / "report_G.json").read_text())
        assert report["selection"]["on"] == "holdout"

    def test_roc_table_is_two_columns(self, tmp_path, synth_cohort_dir):
        cfg = self.run_cfg(tmp_path, synth_cohort_dir, tmp_path / "o", specs="g")
        assert cli.main(["train-eval", "--config", cfg]) == 0
        lines = (tmp_path / "o" / "reports" / "roc_G.txt").read_text().splitlines()
        assert lines[0] == "fpr,tpr"
        assert all(len(ln.split(",")) == 2 for ln in lines[1:])
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0


class TestSynthCommand:
    def test_synth_cli_writes_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", synth_n_patients=12, synth_positive_fraction=0.25)
        assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "s"),
                         "--seed", "21"]) == 0
        assert (tmp_path / "s" / "cohort.csv").exists()
        assert (tmp_path / "s" / "truth.csv").exists()
        assert (tmp_path / "s" / "ecg" / "p0001.csv").exists()
        assert (tmp_path / "s" / "fiducials" / "p0001.json").exists()
        summary = json.loads((tmp_path / "s" / "synth_summary.json").read_text())
        assert summary["n_patients"] == 12
        assert summary["n_positive"] == 3

    def test_bad_synth_key(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", synth_bogus=3)
        assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "s")]) == 2

    @pytest.mark.parametrize("line", [
        # the beat template is fixed: its constants are not config keys
        "synth_rr_sd_ms=-1", "synth_amp_jitter=-0.1", "synth_qrst_angle_sd_deg=-5",
        "synth_t_width_ms=inf", "synth_r_width_ms=0", "synth_rr_mean_ms=nan",
        "synth_noise_sd_mv=inf", "synth_noise_sd_mv=nan", "synth_qrst_angle_shift_deg=nan",
        "synth_svg_scale=nan", "synth_risk_effect=nan", "synth_risk_effect=inf",
        "synth_qrst_angle_shift_deg=-60", "synth_svg_scale=0", "synth_svg_scale=-1",
        "synth_noise_sd_mv=-0.1", "synth_qrst_angle_shift_deg=inf", "synth_svg_scale=inf",
        "synth_risk_effect=-inf",
        # the class ratio is open at both ends, also once rounded to whole patients
        "synth_positive_fraction=0", "synth_positive_fraction=1", "synth_positive_fraction=nan",
        "synth_positive_fraction=0.04", "synth_positive_fraction=0.96",
        # one patient past either end of the cohort-size range
        "synth_n_patients=9", "synth_n_patients=100001",
        # a cohort too large to build: refused before anything is allocated
        "synth_n_patients=10000000000000000000000",
    ])
    def test_bad_synth_value_exits_2(self, tmp_path, caplog, line):
        cfg = tmp_path / "c.cfg"
        size = "" if line.startswith("synth_n_patients=") else "synth_n_patients=10\n"
        cfg.write_text(f"{size}{line}\n", encoding="utf-8")
        with caplog.at_level(logging.ERROR, logger="ecgtriage"):
            assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
        assert [r.getMessage().split(":")[0] for r in caplog.records] == ["config error"]
        assert not (tmp_path / "s").exists()


# Runs the whole CLI with scipy made unimportable: numpy is the only runtime dependency.
NO_SCIPY_PIPELINE = r"""
import sys
sys.modules["scipy"] = None
from ecgtriage import cli
out = sys.argv[1]
steps = [
    ("synth", "synth_n_patients=40\nsynth_positive_fraction=0.3\n", f"{out}/data"),
    ("extract", f"ecg_dir={out}/data/ecg\nfiducial_dir={out}/data/fiducials\n"
                f"cohort_table={out}/data/cohort.csv\n", f"{out}/extract"),
    ("table-one", f"cohort_table={out}/extract/features.csv\n", f"{out}/table"),
    ("train-eval", f"cohort_table={out}/extract/features.csv\nn_instances=2\nmax_rounds=5\n"
                   "eta_grid=0.3\nk_folds=2\n", f"{out}/models"),
]
for command, keys, dest in steps:
    with open(f"{out}/{command}.cfg", "w") as fh:
        fh.write(keys)
    print(command, cli.main([command, "--config", f"{out}/{command}.cfg", "--out", dest, "--seed", "5"]))
"""


class TestRuntimeDependencies:
    def run_python(self, *args, cwd):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=300)

    def test_pipeline_runs_without_scipy(self, tmp_path):
        done = self.run_python("-c", NO_SCIPY_PIPELINE, str(tmp_path), cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["synth", "0", "extract", "0", "table-one", "0", "train-eval", "0"]
        assert (tmp_path / "models" / "reports" / "summary.json").exists()

    def test_cli_import_loads_no_scipy(self, tmp_path):
        done = self.run_python(
            "-c", "import sys, ecgtriage.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))",
            cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_commands_load_only_what_they_use(self, tmp_path):
        # synth runs here, where pytest's plugins have loaded numpy.random
        # already (and with it OpenSSL's _hashlib, through secrets); each
        # command then runs in a fresh process
        generate(SynthConfig(n_patients=30, seed=4), tmp_path / "d")
        extract_cfg = write_cfg(tmp_path / "e.cfg", ecg_dir=tmp_path / "d" / "ecg",
                                fiducial_dir=tmp_path / "d" / "fiducials",
                                cohort_table=tmp_path / "d" / "cohort.csv")
        train_cfg = write_cfg(tmp_path / "t.cfg", cohort_table=tmp_path / "e" / "features.csv",
                              n_instances=2, k_folds=2, eta_grid=0.3, max_rounds=20)
        pool = ["multiprocessing", "concurrent.futures.process"]  # synth's alone
        heavy = ["numpy.random", "numpy.ma", "_hashlib", *pool]
        for command, cfg, out, unused in (("extract", extract_cfg, "e", ["_hashlib", *pool]),
                                          ("table-one", train_cfg, "o", heavy),
                                          ("train-eval", train_cfg, "m", heavy)):
            done = self.run_python(
                "-c", "import sys; from ecgtriage import cli; "
                      "print(cli.main(sys.argv[2:]), [m for m in sys.argv[1].split(',') if m in sys.modules])",
                ",".join(unused), command, "--config", cfg, "--out", str(tmp_path / out), cwd=tmp_path)
            assert done.returncode == 0, done.stderr
            assert done.stdout.split() == ["0", "[]"], command
        assert len(read_rows(tmp_path / "e" / "features.csv")) == 30
        assert (tmp_path / "m" / "reports" / "summary.json").exists()
