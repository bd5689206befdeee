import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecgtriage import ecg_ingest
from ecgtriage.ecg_ingest import (
    LEAD_NAMES,
    Beat,
    EcgRecord,
    FiducialSet,
    MedianBeat,
    Wave,
    median_beat,
    parse_ecg,
    parse_fiducials,
    round_half_up,
    standard_measures,
)
from ecgtriage.errors import (
    BadHeader,
    DataFormatError,
    LengthMismatch,
    MissingLead,
    NonFiniteSample,
    SchemaError,
    TooFewBeats,
    WindowOutOfRange,
)

from conftest import fiducials_at, record_from_matrix
from oracles import median_sort_and_pick, parse_ecg_per_cell


def write_trace(path, matrix_mv, fs=240.0, gain=1000.0, name_line=True):
    lines = [f"sample_rate_hz={fs:g} gain_uv_per_unit={gain:g}"]
    if name_line:
        lines.append(",".join(LEAD_NAMES))
    for row in np.asarray(matrix_mv).T:
        # file units chosen so that value * gain / 1000 = mV
        lines.append(",".join(repr(float(v) * 1000.0 / gain) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def shift_fiducials(beat: MedianBeat, k: int) -> MedianBeat:
    """Copy of `beat` with every window landmark moved by k samples."""
    def shifted(w: Wave) -> Wave:
        return Wave(w.onset + k, w.peak + k, w.offset + k)

    f = beat.fiducials
    return replace(beat, fiducials=Beat(
        baseline=f.baseline + k,
        p=None if f.p is None else shifted(f.p),
        qrs=shifted(f.qrs),
        t=shifted(f.t),
    ))


HEAD = "sample_rate_hz=240 gain_uv_per_unit=1000\n"
ROW = "1," * 11 + "1\n"


class TestParseEcg:
    def test_seven_second_file_roundtrip(self, tmp_path, rng):
        matrix = rng.normal(size=(12, 1680))
        write_trace(tmp_path / "a.csv", matrix, fs=240.0, gain=4.88)
        rec = parse_ecg(tmp_path / "a.csv")
        assert rec.n_samples / rec.sampling_rate_hz == pytest.approx(7.0)
        assert rec.n_samples == 1680
        np.testing.assert_allclose(rec.leads[11], matrix[11], rtol=1e-12)

    def test_missing_lead_in_name_line(self, tmp_path):
        names = [n for n in LEAD_NAMES if n != "V3"]
        lines = ["sample_rate_hz=240 gain_uv_per_unit=1.0", ",".join(names)]
        lines += [",".join(["0.0"] * 11)] * 5
        (tmp_path / "a.csv").write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(MissingLead) as err:
            parse_ecg(tmp_path / "a.csv")
        assert err.value.lead == "V3"

    @pytest.mark.parametrize("shape", [(10,), (11, 10), (13, 10), (12, 10, 1)])
    def test_leads_not_twelve_rows_rejected(self, shape):
        with pytest.raises(LengthMismatch):
            EcgRecord(leads=np.zeros(shape), sampling_rate_hz=240.0)

    # a second line names the columns only when it holds a lead name: a first
    # sample with an empty cell, or a line of other names, is a bad row 0
    @pytest.mark.parametrize("second", ["1,,1,1,1,1,1,1,1,1,1,1", ",".join(f"c{k}" for k in range(12))])
    def test_second_line_without_lead_name_is_data(self, tmp_path, second):
        lines = ["sample_rate_hz=240 gain_uv_per_unit=1000", second] + [",".join(["1"] * 12)] * 4
        (tmp_path / "a.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            parse_ecg(tmp_path / "a.csv")
        assert err.value.row == 0

    def test_all_zero_traces_are_valid(self, tmp_path):
        write_trace(tmp_path / "a.csv", np.zeros((12, 240)))
        rec = parse_ecg(tmp_path / "a.csv")
        assert np.all(rec.leads == 0.0)

    def test_short_row_names_row_index(self, tmp_path):
        lines = ["sample_rate_hz=240 gain_uv_per_unit=1.0",
                 ",".join(["0"] * 12), ",".join(["0"] * 11)]
        (tmp_path / "a.csv").write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(LengthMismatch, match="row 1"):
            parse_ecg(tmp_path / "a.csv")

    def test_header_without_gain(self, tmp_path):
        (tmp_path / "a.csv").write_text("sample_rate_hz=240\n0,0,0,0,0,0,0,0,0,0,0,0\n")
        with pytest.raises(BadHeader):
            parse_ecg(tmp_path / "a.csv")

    def test_low_sampling_rate_rejected(self, tmp_path):
        write_trace(tmp_path / "a.csv", np.zeros((12, 50)), fs=50.0)
        with pytest.raises(BadHeader):
            parse_ecg(tmp_path / "a.csv")

    def test_non_finite_sample_names_lead_and_row(self, tmp_path):
        matrix = np.zeros((12, 6))
        matrix[3, 4] = np.nan
        write_trace(tmp_path / "a.csv", matrix)
        with pytest.raises(NonFiniteSample) as err:
            parse_ecg(tmp_path / "a.csv")
        assert err.value.lead == "aVR"
        assert err.value.row == 4

    def test_gain_converts_to_mv(self, tmp_path):
        lines = ["sample_rate_hz=240 gain_uv_per_unit=2.5", ",".join(["100"] * 12)]
        (tmp_path / "a.csv").write_text("\n".join(lines), encoding="utf-8")
        rec = parse_ecg(tmp_path / "a.csv")
        assert rec.leads[0, 0] == pytest.approx(0.25)  # 100 * 2.5 uV = 0.25 mV

    def test_exponent_first_row_is_data_not_names(self, tmp_path):
        lines = ["sample_rate_hz=240 gain_uv_per_unit=1000.0", ",".join(["1e-3"] + ["0"] * 11)]
        lines += [",".join(["0"] * 12)] * 4
        (tmp_path / "a.csv").write_text("\n".join(lines), encoding="utf-8")
        rec = parse_ecg(tmp_path / "a.csv")
        assert rec.n_samples == 5
        assert rec.leads[0, 0] == pytest.approx(1e-3)

    def test_nan_first_row_is_data_not_names(self, tmp_path):
        lines = ["sample_rate_hz=240 gain_uv_per_unit=1000.0",
                 ",".join(["0"] * 5 + ["nan"] + ["0"] * 6)]
        lines += [",".join(["0"] * 12)] * 4
        (tmp_path / "a.csv").write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(NonFiniteSample) as err:
            parse_ecg(tmp_path / "a.csv")
        assert err.value.lead == "aVF"
        assert err.value.row == 0

    @pytest.mark.parametrize("header", ["sample_rate_hz=nan gain_uv_per_unit=1",
                                        "sample_rate_hz=1e999 gain_uv_per_unit=1",
                                        "sample_rate_hz=240 gain_uv_per_unit=inf"])
    def test_non_finite_header_rejected(self, tmp_path, header):
        (tmp_path / "a.csv").write_text(header + "\n" + ",".join(["0"] * 12) + "\n")
        with pytest.raises(BadHeader):
            parse_ecg(tmp_path / "a.csv")

    # float() alone reads both as 240; a trace body refuses them too
    @pytest.mark.parametrize("rate", ["2_40", "٢٤٠"])
    def test_header_numeral_float_alone_reads_is_refused(self, tmp_path, rate):
        header = f"sample_rate_hz={rate} gain_uv_per_unit=1"
        (tmp_path / "a.csv").write_text(header + "\n" + ",".join(["0"] * 12) + "\n", encoding="utf-8")
        with pytest.raises(BadHeader, match="non-numeric header value"):
            parse_ecg(tmp_path / "a.csv")

    # a repeated key has no single value; a gain <= 0 zeroes or flips every lead
    @pytest.mark.parametrize("header", ["sample_rate_hz=240 gain_uv_per_unit=1 sample_rate_hz=480",
                                        "sample_rate_hz=240 gain_uv_per_unit=1 gain_uv_per_unit=1",
                                        "sample_rate_hz=240 gain_uv_per_unit=0",
                                        "sample_rate_hz=240 gain_uv_per_unit=-1000"])
    def test_ambiguous_header_rejected(self, tmp_path, header):
        (tmp_path / "a.csv").write_text(header + "\n" + ",".join(["0"] * 12) + "\n")
        with pytest.raises(BadHeader):
            parse_ecg(tmp_path / "a.csv")

    @pytest.mark.parametrize("value", [1e100, -1e100, 1e300])
    def test_huge_sample_names_lead_and_row(self, value):
        leads = np.zeros((12, 6))
        leads[4, 2] = value
        leads[5, 1] = np.nan  # a later lead: the huge sample comes first
        with pytest.raises(DataFormatError, match="^sample in lead aVL at row 2 is 1e[+]100 mV or more"):
            EcgRecord(leads=leads, sampling_rate_hz=240.0)

    def test_sample_just_below_the_bound_is_valid(self):
        leads = np.zeros((12, 6))
        leads[4, 2] = -np.nextafter(ecg_ingest.MAX_ABS_SAMPLE_MV, 0.0)
        assert EcgRecord(leads=leads, sampling_rate_hz=240.0).leads[4, 2] == leads[4, 2]

    def test_huge_gain_is_refused(self, tmp_path):
        lines = ["sample_rate_hz=240 gain_uv_per_unit=1e160", ",".join(["0"] * 12), ",".join(["1"] * 12)]
        (tmp_path / "a.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="lead I at row 1"):
            parse_ecg(tmp_path / "a.csv")

    def test_non_utf8_trace_is_data_error(self, tmp_path):
        write_trace(tmp_path / "a.csv", np.zeros((12, 20)))
        data = (tmp_path / "a.csv").read_bytes()
        (tmp_path / "a.csv").write_bytes(data.replace(b",", b",\xff", 1))
        with pytest.raises(DataFormatError, match="unreadable"):
            parse_ecg(tmp_path / "a.csv")

    def test_unreadable_trace_is_data_error(self, tmp_path):
        (tmp_path / "a.csv").mkdir()
        with pytest.raises(DataFormatError, match="unreadable"):
            parse_ecg(tmp_path / "a.csv")

    @pytest.mark.parametrize("cell", ["1_0", "١٢"])
    def test_cell_read_by_float_only_is_refused(self, tmp_path, cell):
        lines = ["sample_rate_hz=240 gain_uv_per_unit=1000.0", ",".join(LEAD_NAMES),
                 ",".join(["0"] * 12), ",".join(["0"] * 4 + [cell] + ["0"] * 7)]
        (tmp_path / "a.csv").write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            parse_ecg(tmp_path / "a.csv")
        assert err.value.row == 1

    @pytest.mark.parametrize("text, to_float", [
        (HEAD + "-0.000," * 11 + "0.000\n", []),  # -0.0, as float() gives it
        (HEAD + "12345678," * 11 + "-1\n", []),  # 8 bytes besides the sign
        (HEAD + "-123456.7," * 11 + "0.1\n", []),
        (HEAD + "123456789," * 11 + "1\n", [0]),  # 9 bytes
        (HEAD + "-1234567.8," * 11 + "0.1\n", [0]),
        (HEAD + ".12345678," * 11 + "0.00000000\n", [0]),  # q = 8
        (HEAD + "1.500," * 11 + "1500\n", [0]),  # a cell without the file's decimals
        (HEAD + ROW + "1,," + "1," * 9 + "1\n" + ROW, [1]),  # an empty cell
        (HEAD + ROW + "-," + "1," * 10 + "1\n" + ROW, [1]),  # a sign alone
        (HEAD + "1," * 10 + "1\n" + "1," * 12 + "1\n", [0]),  # 11 cells, then 13
        (HEAD + ROW + "1," * 12 + "1\n", [1]),
        (HEAD + ROW + "5", [1]),  # a last row without its newline
        (HEAD + ROW + ROW[:-1], [1]),
        (HEAD.replace(" ", "\r") + ROW, []),  # "\r" ends a line: no gain, no row read
        (" \n" + HEAD + ROW, []),  # blank lines are skipped
        (HEAD + "\n" + ROW + " \t\n\x1c\n" + ROW, []),  # and not numbered
        (HEAD + ROW.replace("\n", "\r\n") * 3, []),  # CRLF rows
        (HEAD + ROW.replace("\n", "\r") * 3, []),
        (HEAD + ROW + " " + ROW + ROW, [1]),  # a padded row
        (HEAD + ROW + "nan," + "1," * 10 + "1\n" + ROW, [1]),
        # the decimals of most rows: a first row with an exponent or other
        # decimals leaves the rest to the kernel
        (HEAD + "1e-3," + "1.000," * 10 + "1.000\n" + ("1.000," * 11 + "1.000\n") * 2, [0]),
        (HEAD + "1.25," * 11 + "1.25\n" + ("1.5," * 11 + "1.5\n") * 2, [0]),
    ])
    def test_fast_path_choice(self, tmp_path, text, to_float):
        (tmp_path / "a.csv").write_bytes(text.encode())
        handed, outcome = _rows_to_float(tmp_path / "a.csv")
        assert handed == to_float
        assert outcome == _outcome(parse_ecg_per_cell, tmp_path / "a.csv")

    @pytest.mark.parametrize("header, names, error", [
        ("sample_rate_hz=240", ",".join(LEAD_NAMES), BadHeader),
        (HEAD.strip(), ",".join(LEAD_NAMES[:-1]) + ",V7", MissingLead),
    ])
    def test_head_is_checked_before_rows(self, tmp_path, header, names, error):
        rows = [",".join(["1.000"] * 12)] * 1000 + [",".join(["1.000"] * 11)]
        (tmp_path / "a.csv").write_text("\n".join([header, names] + rows) + "\n", encoding="utf-8")
        handed, outcome = _rows_to_float(tmp_path / "a.csv")
        assert outcome[0] is error and handed == []
        assert outcome == _outcome(parse_ecg_per_cell, tmp_path / "a.csv")

    # "\x1f1": float() rejects the ASCII separators U+001C-U+001F, which str.strip() drops;
    # "1#2" last in its row: no comment syntax, so nothing after "#" is dropped.
    # Each fault is (row, column, cell); a cell of None drops the column. With
    # two faults the first bad row is named, whichever fault it holds.
    @pytest.mark.parametrize("faults, error, message", [
        ([(1200, 7, "abc")], SchemaError, "non-numeric value (row 1200)"),
        ([(1200, 7, "\x1f1")], SchemaError, "non-numeric value (row 1200)"),
        ([(1200, 11, "1#2")], SchemaError, "non-numeric value (row 1200)"),
        ([(1200, 7, "abc"), (1300, 7, None)], SchemaError, "non-numeric value (row 1200)"),
        ([(1200, 7, None), (1300, 7, "abc")], LengthMismatch, "row 1200 has 11 columns, expected 12"),
    ])
    def test_bad_cell_late_in_full_trace_names_row(self, tmp_path, rng, faults, error, message):
        write_trace(tmp_path / "a.csv", rng.normal(size=(12, 1680)))
        lines = (tmp_path / "a.csv").read_text(encoding="utf-8").split("\n")
        for row, column, cell in faults:
            cells = lines[2 + row].split(",")  # after the header and column-name lines
            if cell is None:
                del cells[column]
            else:
                cells[column] = cell
            lines[2 + row] = ",".join(cells)
        (tmp_path / "a.csv").write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(error) as err:
            parse_ecg(tmp_path / "a.csv")
        assert str(err.value).endswith(message)
        if error is SchemaError:
            assert err.value.row == 1200


def _first_non_finite(leads):
    """(lead name, row) of the first non-finite sample, scanning lead by lead."""
    for name, series in zip(LEAD_NAMES, leads):
        for row, value in enumerate(series):
            if not np.isfinite(value):
                return name, row
    return None


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), data=st.data())
def test_non_finite_sample_is_the_first_by_lead_then_row(n, data):
    leads = np.zeros((12, n))
    spots = data.draw(st.lists(st.tuples(st.integers(0, 11), st.integers(0, n - 1)), max_size=6))
    for lead, row in spots:
        leads[lead, row] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    first = _first_non_finite(leads)
    if first is None:
        assert EcgRecord(leads=leads, sampling_rate_hz=240.0).n_samples == n
        return
    with pytest.raises(NonFiniteSample) as err:
        EcgRecord(leads=leads, sampling_rate_hz=240.0)
    assert (err.value.lead, err.value.row) == first


class TestParseFiducials:
    def test_roundtrip(self, tmp_path):
        doc = {"beats": [
            {"baseline": 70, "p": {"onset": 40, "peak": 50, "offset": 60},
             "qrs": {"onset": 90, "peak": 100, "offset": 112},
             "t": {"onset": 130, "peak": 155, "offset": 180}},
            {"baseline": 270, "p": None,
             "qrs": {"onset": 290, "peak": 300, "offset": 312},
             "t": {"onset": 330, "peak": 355, "offset": 380}},
            {"baseline": 470, "p": {"onset": 440, "peak": 450, "offset": 460},
             "qrs": {"onset": 490, "peak": 500, "offset": 512},
             "t": {"onset": 530, "peak": 555, "offset": 580}},
        ]}
        (tmp_path / "f.json").write_text(json.dumps(doc))
        fs = parse_fiducials(tmp_path / "f.json")
        assert len(fs.beats) == 3
        assert fs.beats[1].p is None
        assert fs.beats[0].qrs.peak == 100

    def test_two_beats_rejected(self, tmp_path):
        beat = {"baseline": 70, "p": None,
                "qrs": {"onset": 90, "peak": 100, "offset": 112},
                "t": {"onset": 130, "peak": 155, "offset": 180}}
        beat2 = dict(beat, baseline=470,
                     qrs={"onset": 490, "peak": 500, "offset": 512},
                     t={"onset": 530, "peak": 555, "offset": 580})
        (tmp_path / "f.json").write_text(json.dumps({"beats": [beat, beat2]}))
        with pytest.raises(TooFewBeats):
            parse_fiducials(tmp_path / "f.json")

    def test_out_of_order_waves_rejected(self, tmp_path):
        beat = {"baseline": 70, "p": None,
                "qrs": {"onset": 100, "peak": 95, "offset": 112},
                "t": {"onset": 130, "peak": 155, "offset": 180}}
        (tmp_path / "f.json").write_text(json.dumps({"beats": [beat] * 3}))
        with pytest.raises(SchemaError):
            parse_fiducials(tmp_path / "f.json")

    @pytest.mark.parametrize("bad", [20.9, 20.0, True, "20"])
    @pytest.mark.parametrize("where", ["baseline", "onset", "peak", "offset"])
    def test_landmark_must_be_json_integer(self, tmp_path, where, bad):
        beats = [{"baseline": c - 30, "p": None,
                  "qrs": {"onset": c - 10, "peak": c, "offset": c + 12},
                  "t": {"onset": c + 30, "peak": c + 55, "offset": c + 80}}
                 for c in (100, 300, 500)]
        if where == "baseline":
            beats[1]["baseline"] = bad
        else:
            beats[1]["t"][where] = bad
        (tmp_path / "f.json").write_text(json.dumps({"beats": beats}))
        with pytest.raises(SchemaError, match="integer"):
            parse_fiducials(tmp_path / "f.json")

    def test_non_utf8_annotations_are_data_error(self, tmp_path):
        (tmp_path / "f.json").write_bytes(b'{"beats": [\xff]}')
        with pytest.raises(DataFormatError):
            parse_fiducials(tmp_path / "f.json")

    def test_unreadable_annotations_are_data_error(self, tmp_path):
        (tmp_path / "f.json").mkdir()
        with pytest.raises(DataFormatError, match="unreadable"):
            parse_fiducials(tmp_path / "f.json")


# --- parser fuzzing: any bytes give a valid record or a DataFormatError --------

_CELLS = st.one_of(st.sampled_from(["0", "-1.5", "1e-3", "nan", "inf", "", " ", "abc", "I", "V6"]),
                   st.floats(allow_nan=True, allow_infinity=True).map(repr))
_ROWS = st.lists(_CELLS, min_size=10, max_size=13).map(",".join)
_HEADERS = st.sampled_from(["sample_rate_hz=240 gain_uv_per_unit=1000",
                            "sample_rate_hz=100 gain_uv_per_unit=0",
                            "sample_rate_hz=nan gain_uv_per_unit=1",
                            "sample_rate_hz=240", "gain_uv_per_unit=1 sample_rate_hz=1e300",
                            "sample_rate_hz=240 gain_uv_per_unit=1 sample_rate_hz=480",
                            "sample_rate_hz=240 gain_uv_per_unit=-1e300",
                            "garbage", ""])
_TRACES = st.one_of(
    st.binary(max_size=300),
    st.builds(lambda header, names, rows, tail: "\n".join(
        [header] + ([",".join(LEAD_NAMES)] if names else []) + rows).encode() + tail,
        _HEADERS, st.booleans(), st.lists(_ROWS, max_size=6), st.binary(max_size=3)),
)

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 2000) | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12,
)
_INDEX = st.one_of(st.integers(-10, 3000), st.floats(0, 3000), st.booleans(), st.just("20"),
                   st.none())
_WAVE = st.one_of(st.fixed_dictionaries({"onset": _INDEX, "peak": _INDEX, "offset": _INDEX}), _JSON)
_BEAT = st.fixed_dictionaries({"baseline": _INDEX, "qrs": _WAVE, "t": _WAVE},
                              optional={"p": st.one_of(st.none(), _WAVE)})
_ANNOTATIONS = st.one_of(
    st.binary(max_size=200),
    _JSON.map(lambda doc: json.dumps(doc).encode()),
    st.lists(_BEAT, max_size=5).map(lambda beats: json.dumps({"beats": beats}).encode()),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=_TRACES)
def test_parse_ecg_any_bytes(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_trace.csv"
    path.write_bytes(data)
    try:
        assert isinstance(parse_ecg(path), EcgRecord)
    except DataFormatError:
        pass


# --- fast parser against the per-cell reference ---------------------------------

# "\x1c1"/"1\x1f": ASCII separators that str.strip() drops and float() rejects
_ODD_CELLS = st.sampled_from(["1_0", "١٢", "\t1", "1\x0b", "1#2", "", " ", "nan", "-inf", "abc",
                              "\x1c1", "1\x1f"])
_NUMBER_CELLS = st.one_of(st.sampled_from(["0", "-1.5", "1e-3", " 2 "]),
                          st.floats(allow_nan=False, allow_infinity=False).map(repr))
_FULL_ROWS = st.lists(_NUMBER_CELLS, min_size=12, max_size=12)
_TEXT_ROWS = st.one_of(
    _FULL_ROWS.map(",".join),
    st.builds(lambda cells, k, odd: ",".join(cells[:k] + [odd] + cells[k + 1:]),
              _FULL_ROWS, st.integers(0, 11), _ODD_CELLS),
    st.lists(st.one_of(_NUMBER_CELLS, _ODD_CELLS), min_size=10, max_size=13).map(",".join),
    st.sampled_from(["", "  ", "\t"]),
)
_TEXT_TRACES_HEADERS = st.sampled_from(["sample_rate_hz=240 gain_uv_per_unit=1000",
                                         "sample_rate_hz=500 gain_uv_per_unit=4.88"])
_TEXT_TRACES = st.builds(
    lambda header, names, rows, newline: newline.join([header] + names + rows) + newline,
    _TEXT_TRACES_HEADERS,
    st.one_of(st.just([]), st.permutations(LEAD_NAMES).map(lambda names: [",".join(names)])),
    st.lists(_TEXT_ROWS, max_size=8),
    st.sampled_from(["\n", "\r\n"]),
)


def _fixed_point_cell(q, max_bytes):
    """One cell of a file with q decimals: 1..max_bytes bytes besides the sign
    (at least one integer digit)."""
    width = max(1, max_bytes - (q + 1 if q else 0))
    return st.one_of(
        st.builds(lambda sign, whole, frac: sign + whole + ("." + frac if q else ""),
                  st.sampled_from(["", "-"]), st.text("0123456789", min_size=1, max_size=width),
                  st.text("0123456789", min_size=q, max_size=q)),
        st.just("-0" + ("." + "0" * q if q else "")))


def _fixed_point_rows(q, max_bytes, integers=False):
    """1-6 rows of cells with q decimals; with integers, some cells have none."""
    cell = _fixed_point_cell(q, max_bytes)
    if integers:
        cell = st.one_of(cell, _fixed_point_cell(0, max_bytes))
    return st.lists(st.lists(cell, min_size=12, max_size=12).map(",".join), min_size=1, max_size=6)


# bodies in the fast path's grammar and just outside it (9-byte cells, q = 7,
# integer cells among decimal ones, CRLF)
_FIXED_POINT_TRACES = st.tuples(st.integers(0, 7), st.sampled_from([8, 9]), st.booleans()).flatmap(
    lambda limits: st.builds(
        lambda header, names, rows, newline: newline.join([header] + names + rows) + newline,
        _TEXT_TRACES_HEADERS,
        st.one_of(st.just([]), st.permutations(LEAD_NAMES).map(lambda names: [",".join(names)])),
        _fixed_point_rows(*limits),
        st.sampled_from(["\n", "\r\n"]),
    ))


def _outcome(parse, path):
    try:
        rec = parse(path)
    except DataFormatError as exc:
        return type(exc), str(exc), getattr(exc, "row", None)
    return (rec.sampling_rate_hz, rec.n_samples / rec.sampling_rate_hz,
            [row.tobytes() for row in rec.leads])


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=st.one_of(_TEXT_TRACES, _FIXED_POINT_TRACES))
def test_parse_ecg_matches_per_cell_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "text_trace.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(parse_ecg, path) == _outcome(parse_ecg_per_cell, path)


def _rows_to_float(path):
    """The rows parse_ecg hands to float(), by number, and its outcome."""
    handed, read_row = [], ecg_ingest._read_row

    def counted(line, i, path):
        handed.append(i)
        return read_row(line, i, path)

    with mock.patch.object(ecg_ingest, "_read_row", counted):
        outcome = _outcome(parse_ecg, path)
    return handed, outcome


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.integers(0, 6).flatmap(lambda q: _fixed_point_rows(q, 8)), names=st.booleans(),
       newline=st.sampled_from(["\n", "\r\n"]))
def test_fixed_point_body_takes_fast_path(tmp_path_factory, rows, names, newline):
    lines = ["sample_rate_hz=240 gain_uv_per_unit=1000"] + [",".join(LEAD_NAMES)] * names + rows
    path = tmp_path_factory.getbasetemp() / "fixed_point_trace.csv"
    path.write_bytes((newline.join(lines) + newline).encode())
    handed, outcome = _rows_to_float(path)
    assert handed == []
    expected = np.array([[float(c) for c in row.split(",")] for row in rows]).T
    assert outcome[2] == [row.tobytes() for row in expected]
    assert outcome == _outcome(parse_ecg_per_cell, path)


# rows that leave the kernel's grammar: a cell float() may or may not read, or
# the row's shape, line end or blankness
_ODD_ROW_CELLS = st.sampled_from(["1e-3", "-2.5E+1", "nan", "-inf", " 1.5", "1.5 ", "123456789",
                                  "-12345.6789", "1_0", "abc", "", "-", "1.2.3", "+1"])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(q=st.integers(0, 6), data=st.data())
def test_odd_rows_in_fixed_point_body_match_per_cell_reference(tmp_path_factory, q, data):
    rows = data.draw(st.lists(st.lists(_fixed_point_cell(q, 8), min_size=12, max_size=12),
                              min_size=1, max_size=12))
    lines = [",".join(cells) for cells in rows]
    for _ in range(data.draw(st.integers(0, 5))):
        k = data.draw(st.integers(0, len(rows) - 1))
        cells, j = list(rows[k]), data.draw(st.integers(0, 11))
        kind = data.draw(st.sampled_from(["cell", "decimals", "short", "long", "crlf", "blank"]))
        if kind == "cell":
            cells[j] = data.draw(_ODD_ROW_CELLS)
        elif kind == "decimals":
            cells[j] = data.draw(_fixed_point_cell(data.draw(st.integers(0, 6).filter(lambda d: d != q)), 8))
        elif kind == "short":
            del cells[j]
        elif kind == "long":
            cells.insert(j, cells[j])
        lines[k] = ",".join(cells) + "\r" * (kind == "crlf")
        if kind == "blank":
            lines[k] = data.draw(st.sampled_from(["", " ", " \t", "\x0b", "\x1c", "\u3000"]))
    path = tmp_path_factory.getbasetemp() / "odd_rows_trace.csv"
    path.write_bytes(("\n".join([HEAD.strip(), ",".join(LEAD_NAMES)] + lines) + "\n").encode())
    assert _outcome(parse_ecg, path) == _outcome(parse_ecg_per_cell, path)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=_ANNOTATIONS)
def test_parse_fiducials_any_bytes(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_annotations.json"
    path.write_bytes(data)
    try:
        assert isinstance(parse_fiducials(path), FiducialSet)
    except DataFormatError:
        pass


def _record_with_beats(window_per_beat, centers, n=2400, fs=240.0):
    """Zeros everywhere except a (12, w) window pasted around each center."""
    matrix = np.zeros((12, n))
    w = window_per_beat[0].shape[1]
    for content, center in zip(window_per_beat, centers):
        lo = center - w // 2
        matrix[:, lo:lo + w] += content
    return record_from_matrix(matrix, fs=fs)


CENTERS = (400, 900, 1400, 1900, 2200)


class TestMedianBeat:
    def test_three_identical_beats(self, rng):
        content = rng.normal(size=(12, 192))
        centers = CENTERS[:3]
        rec = _record_with_beats([content] * 3, centers)
        beat = median_beat(rec, fiducials_at(centers), pre_ms=300, post_ms=500)
        lo = centers[0] - round_half_up(300 * 240 / 1000)
        hi = centers[0] + round_half_up(500 * 240 / 1000)
        np.testing.assert_array_equal(beat.leads, rec.leads[:, lo:hi + 1])

    def test_offset_artifact_is_suppressed(self, rng):
        content = rng.normal(size=(12, 192))
        artifact = content.copy()
        artifact[1] += 1.0  # +1 mV on lead II only
        centers = CENTERS[:3]
        rec = _record_with_beats([content, content, artifact], centers)
        beat = median_beat(rec, fiducials_at(centers))
        clean = _record_with_beats([content] * 3, centers)
        clean_beat = median_beat(clean, fiducials_at(centers))
        np.testing.assert_array_equal(beat.leads[1], clean_beat.leads[1])

    @pytest.mark.parametrize("count", range(3, 13))
    def test_random_beats_match_sort_oracle(self, rng, count):
        contents = [rng.normal(size=(12, 192)) for _ in range(count)]
        centers = tuple(range(200, 200 * (count + 1), 200))
        rec = _record_with_beats(contents, centers, n=200 * count + 400)
        beat = median_beat(rec, fiducials_at(centers))
        assert beat.leads.flags.c_contiguous
        pre = round_half_up(300 * 240 / 1000)
        for i in range(len(LEAD_NAMES)):
            expected = [median_sort_and_pick([rec.leads[i, c - pre + k] for c in centers])
                        for k in range(beat.n_samples)]
            assert beat.leads[i].tobytes() == np.array(expected).tobytes()

    def test_zero_median_is_positive_zero(self):
        matrix = np.zeros((12, 2400))
        matrix[:, 900] = -0.0
        matrix[:, 1400] = -0.0
        beat = median_beat(record_from_matrix(matrix), fiducials_at(CENTERS[:3]))
        assert not np.signbit(beat.leads[0]).any()

    def test_beat_order_does_not_matter(self, rng):
        contents = [rng.normal(size=(12, 192)) for _ in range(4)]
        centers = CENTERS[:4]
        rec_a = _record_with_beats(contents, centers)
        rec_b = _record_with_beats(contents[::-1], centers)
        beat_a = median_beat(rec_a, fiducials_at(centers))
        beat_b = median_beat(rec_b, fiducials_at(centers))
        np.testing.assert_array_equal(beat_a.leads, beat_b.leads)

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(0.1, 50.0), b=st.floats(-5.0, 5.0))
    def test_affine_amplitude_equivariance(self, a, b):
        rng = np.random.default_rng(7)
        contents = [rng.normal(size=(12, 192)) for _ in range(3)]
        centers = CENTERS[:3]
        rec = _record_with_beats(contents, centers)
        scaled = record_from_matrix(a * rec.leads + b)
        base = median_beat(rec, fiducials_at(centers))
        trans = median_beat(scaled, fiducials_at(centers))
        np.testing.assert_allclose(trans.leads, a * base.leads + b, rtol=1e-12, atol=1e-12)

    def test_rr_is_median_peak_spacing(self):
        rec = _record_with_beats([np.zeros((12, 192))] * 5, CENTERS)
        beat = median_beat(rec, fiducials_at(CENTERS))
        # spacings 500, 500, 500, 300 samples -> median 500 samples at 240 Hz
        assert beat.rr_ms == pytest.approx(500 * 1000 / 240)

    def test_consolidated_fiducials_are_median_offsets(self):
        rec = _record_with_beats([np.zeros((12, 192))] * 3, CENTERS[:3])
        beat = median_beat(rec, fiducials_at(CENTERS[:3]))
        pre = round_half_up(300 * 240 / 1000)
        assert beat.fiducials.qrs.peak == pre
        assert beat.fiducials.qrs.onset == pre - 10
        assert beat.fiducials.t.offset == pre + 80
        assert beat.fiducials.baseline == pre - 30
        assert beat.fiducials.p.onset == pre - 60

    def test_window_out_of_range(self):
        centers = (60, 500, 1000)  # valid landmarks, but pre-window leaves the record
        rec = _record_with_beats([np.zeros((12, 80))] * 3, centers, n=1600)
        with pytest.raises(WindowOutOfRange):
            median_beat(rec, fiducials_at(centers))

    def test_mixed_p_annotation_drops_p(self):
        from ecgtriage.ecg_ingest import Beat, FiducialSet, Wave
        beats = []
        for i, c in enumerate(CENTERS[:3]):
            beats.append(Beat(
                baseline=c - 30,
                p=None if i == 1 else Wave(c - 60, c - 50, c - 40),
                qrs=Wave(c - 10, c, c + 12),
                t=Wave(c + 30, c + 55, c + 80),
            ))
        rec = _record_with_beats([np.zeros((12, 192))] * 3, CENTERS[:3])
        beat = median_beat(rec, FiducialSet(beats=tuple(beats)))
        assert beat.fiducials.p is None


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 12), with_p=st.booleans(), baseline=st.integers(-3, 14),
       marks=st.lists(st.integers(-3, 14), min_size=9, max_size=9).map(sorted))
def test_median_beat_landmarks_lie_in_window(n, with_p, baseline, marks):
    fids = Beat(baseline, Wave(*marks[:3]) if with_p else None, Wave(*marks[3:6]), Wave(*marks[6:]))
    # checked in the order P, baseline, QRS, T; each wave onset, peak, offset
    order = [("landmark", i) for i in marks[:3] if with_p] + [("baseline", baseline)]
    order += [("landmark", i) for i in marks[3:]]
    outside = [(kind, i) for kind, i in order if not 0 <= i < n]
    if not outside:
        assert MedianBeat(np.zeros((12, n)), fids, 240.0, 900.0).fiducials is fids
        return
    with pytest.raises(WindowOutOfRange) as err:
        MedianBeat(np.zeros((12, n)), fids, 240.0, 900.0)
    kind, i = outside[0]
    assert str(err.value) == (f"consolidated landmark at window index {i} outside [0, {n})"
                              if kind == "landmark" else f"consolidated baseline index {i} outside window")


@st.composite
def _valid_fiducial_sets(draw):
    """(record, FiducialSet, pre_ms, post_ms): 3-9 strictly ordered beats whose
    landmarks lie within the window around their QRS peak, with P on all, none or
    some of them, on a record that holds every beat's window."""
    fs = draw(st.sampled_from([100.0, 240.0, 500.0]))
    pre_ms, post_ms = draw(st.integers(0, 400)), draw(st.integers(0, 600))
    pre, post = round_half_up(pre_ms * fs / 1000), round_half_up(post_ms * fs / 1000)
    p_on = draw(st.sampled_from(["all", "none", "some"]))
    rel = []  # each beat's landmarks relative to its QRS peak
    for _ in range(draw(st.integers(3, 9))):
        before = sorted(draw(st.lists(st.integers(-pre, 0), min_size=4, max_size=4)))
        after = sorted(draw(st.lists(st.integers(0, post), min_size=4, max_size=4)))
        has_p = p_on == "all" or p_on == "some" and draw(st.booleans())
        rel.append((draw(st.integers(-pre, post)), before[:3] if has_p else None,
                    [before[3], 0, after[0]], after[1:]))
    beats, last = [], None
    for baseline, p, qrs, t in rel:
        first = min(baseline, (p or qrs)[0])
        # the first peak leaves room for its window; later beats start after the last one ends
        peak = pre if last is None else last - first + 1 + draw(st.integers(0, 3))
        beats.append(Beat(peak + baseline, None if p is None else Wave(*(peak + i for i in p)),
                          Wave(*(peak + i for i in qrs)), Wave(*(peak + i for i in t))))
        last = beats[-1].last_index
    n = max(last, beats[-1].qrs.peak + post) + 1 + draw(st.integers(0, 3))
    return record_from_matrix(np.zeros((12, n)), fs=fs), FiducialSet(tuple(beats)), pre_ms, post_ms


@settings(max_examples=200, deadline=None)
@given(case=_valid_fiducial_sets())
def test_valid_fiducials_give_a_valid_median_beat(case):
    record, fiducials, pre_ms, post_ms = case
    beat = median_beat(record, fiducials, pre_ms=pre_ms, post_ms=post_ms)
    f = beat.fiducials
    waves = [f.qrs, f.t] if f.p is None else [f.p, f.qrs, f.t]
    assert all(w.onset <= w.peak <= w.offset for w in waves)
    assert all(a.offset <= b.onset for a, b in zip(waves, waves[1:]))
    assert all(0 <= i < beat.n_samples for w in waves for i in (w.onset, w.peak, w.offset))
    assert 0 <= f.baseline < beat.n_samples
    assert (f.p is None) == any(b.p is None for b in fiducials.beats)
    assert beat.rr_ms >= 1000.0 / record.sampling_rate_hz


class TestStandardMeasures:
    def test_qrs_interval_at_240hz(self):
        rec = _record_with_beats([np.zeros((12, 192))] * 3, CENTERS[:3])
        fids = fiducials_at(CENTERS[:3])
        beat = median_beat(rec, fids)
        # window landmarks: onset peak-10, offset peak+12 -> 22 samples
        m = standard_measures(beat)
        assert m.qrs_ms == pytest.approx(22 * 1000 / 240)
        assert round(m.qrs_ms, 1) == 91.7

    def test_bazett_unit_rr(self):
        rec = _record_with_beats([np.zeros((12, 192))] * 3, CENTERS[:3])
        beat = median_beat(rec, fiducials_at(CENTERS[:3]))
        beat = MedianBeat(leads=beat.leads, fiducials=beat.fiducials,
                          sampling_rate_hz=beat.sampling_rate_hz, rr_ms=1000.0)
        m = standard_measures(beat)
        assert m.qtc_ms == pytest.approx(m.qt_ms)

    def test_bazett_worked_example(self):
        # qt 386.0 ms at rr 920.8 ms corrects to 402.3 ms
        assert 386.0 / np.sqrt(920.8 / 1000.0) == pytest.approx(402.26, abs=0.05)
        rec = _record_with_beats([np.zeros((12, 2400))] * 3, (4000, 8000, 12000), n=16000, fs=1000.0)
        from ecgtriage.ecg_ingest import Beat, FiducialSet, Wave
        beats = tuple(Beat(baseline=c - 300, p=None,
                           qrs=Wave(c - 40, c, c + 52),
                           t=Wave(c + 150, c + 250, c + 346))
                      for c in (4000, 8000, 12000))
        # qt = 346 - (-40) = 386 ms at 1000 Hz; force rr to the cohort median
        beat = median_beat(rec, FiducialSet(beats=beats))
        beat = MedianBeat(leads=beat.leads, fiducials=beat.fiducials,
                          sampling_rate_hz=1000.0, rr_ms=920.8)
        m = standard_measures(beat)
        assert m.qt_ms == pytest.approx(386.0)
        assert m.qtc_ms == pytest.approx(402.257962367987, rel=1e-12)

    def test_absent_p_gives_null_intervals(self):
        rec = _record_with_beats([np.zeros((12, 192))] * 3, CENTERS[:3])
        beat = median_beat(rec, fiducials_at(CENTERS[:3], p=False))
        m = standard_measures(beat)
        assert m.p_dur_ms is None and m.pr_ms is None
        assert m.qt_ms >= m.qrs_ms

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(-20, 20))
    def test_shift_invariance(self, k):
        rec = _record_with_beats([np.zeros((12, 192))] * 3, CENTERS[:3])
        # a window wide enough that every shifted landmark stays inside it
        beat = median_beat(rec, fiducials_at(CENTERS[:3]), pre_ms=400, post_ms=600)
        shifted = shift_fiducials(beat, k)
        a, b = standard_measures(beat), standard_measures(shifted)
        assert a.qrs_ms == b.qrs_ms
        assert a.qt_ms == b.qt_ms
        assert a.pr_ms == b.pr_ms

    def test_durations_scale_inversely_with_rate(self):
        rec240 = _record_with_beats([np.zeros((12, 192))] * 3, CENTERS[:3], fs=240.0)
        rec480 = _record_with_beats([np.zeros((12, 192))] * 3, CENTERS[:3], fs=480.0)
        m240 = standard_measures(median_beat(rec240, fiducials_at(CENTERS[:3])))
        m480 = standard_measures(median_beat(rec480, fiducials_at(CENTERS[:3]),
                                             pre_ms=150, post_ms=250))
        assert m240.qrs_ms == pytest.approx(2 * m480.qrs_ms)
        assert m240.qt_ms == pytest.approx(2 * m480.qt_ms)


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(-0.5) == 0
    assert round_half_up(2.4) == 2
