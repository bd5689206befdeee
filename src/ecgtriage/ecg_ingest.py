"""Ingest 12-lead ECG traces and specialist wave annotations.

Trace file format: one header line ``sample_rate_hz=<num> gain_uv_per_unit=<num>``,
an optional second line naming the 12 columns, then one comma-separated row per
sample in lead order I,II,III,aVR,aVL,aVF,V1..V6. The second line names the
columns when one of its stripped cells is a lead name. Amplitudes are stored in
file units and converted to mV via the header gain. Records and median beats
hold them as one (12, n) array whose row k is lead ``LEAD_NAMES[k]``.

A trace body is read row by row, with the text rules of the header: a line ends
at LF, CR or CRLF and is stripped, and a blank line is no row and takes no
row number. The SWAR kernel reads every row of 12 cells ``-?D+`` or ``-?D+.D{q}``
joined by bare commas, at most 8 bytes per cell besides the sign, with q the
decimals most rows' first cells carry. It gathers the 8 bytes before each
separator as one little-endian word, checks every byte and drops the dot inside
the word, and turns the 8 digits into an integer with three multiply-shift steps
(SWAR, Lemire 2021, arXiv:2101.11408). That mantissa is below 10**8, well under
2**53, and 10**q is exact for q <= 7, so one IEEE division gives the correctly
rounded value of the decimal, which is what float() returns (Clinger 1990).
Every other row (exponents, padding, NaN, other decimals, longer cells, faults)
is split on commas, and each cell is read by float() under the numeral rule
that header values and cohort cells share: ASCII without ``_``, apart from the
whitespace around it (plain_float). The first bad row raises. One check over the
separators gives the lines of a body whose every 12th separator is LF and whose
others are commas, as synth writes it; other bodies' lines are told apart one by
one. The check only picks the lines: one kernel call then reads every body.

Annotation file format: JSON document with an array ``beats``; each beat carries
an integer ``baseline`` sample plus ``p``/``qrs``/``t`` objects with integer
``onset``/``peak``/``offset`` (``p`` may be null or left out).
"""

from __future__ import annotations

import json
import math
import re
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadHeader,
    DataFormatError,
    LengthMismatch,
    MissingLead,
    NonFiniteSample,
    SchemaError,
    TooFewBeats,
    WindowOutOfRange,
)

LEAD_NAMES = ("I", "II", "III", "aVR", "aVL", "aVF", "V1", "V2", "V3", "V4", "V5", "V6")

MIN_SAMPLING_RATE_HZ = 100.0

# samples at or above this magnitude are refused: below it every square in the
# Kors and GEH sums, over any window a record can hold, stays finite
MAX_ABS_SAMPLE_MV = 1e100

# _TOP_BYTES[k] keeps the top k bytes of a little-endian word: its last k characters
_TOP_BYTES = np.array([2**64 - 2 ** (64 - 8 * k) for k in range(9)], np.uint64)
# a word holds a byte above 9 iff (w | (w + _OVER_9)) & _HIGH_BITS is not 0:
# adding 0x76 lifts a byte of 10..0x7f to its high bit, and only a byte whose
# high bit is already set carries into the next one
_OVER_9 = np.uint64(0x7676767676767676)
_HIGH_BITS = np.uint64(0x8080808080808080)
_LINE_END = re.compile(rb"[\n\r]")


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from minus infinity (0.5 -> 1)."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class EcgRecord:
    """Validated 12-lead trace in mV.

    `leads` is a (12, n) float array; row k is lead LEAD_NAMES[k]. Every
    sample is finite and below MAX_ABS_SAMPLE_MV in magnitude. The duration
    is derived: n_samples / sampling_rate_hz.
    """

    leads: np.ndarray
    sampling_rate_hz: float

    def __post_init__(self):
        if self.sampling_rate_hz < MIN_SAMPLING_RATE_HZ:
            raise BadHeader(f"sampling rate {self.sampling_rate_hz} Hz below {MIN_SAMPLING_RATE_HZ}")
        if self.leads.ndim != 2 or len(self.leads) != len(LEAD_NAMES):
            raise LengthMismatch(f"leads have shape {self.leads.shape}, expected (12, samples)")
        within = np.abs(self.leads) < MAX_ABS_SAMPLE_MV  # False for NaN
        if not within.all():  # the first lead in LEAD_NAMES order, then its first sample
            lead, row = divmod(int(within.argmin()), self.n_samples)
            if not math.isfinite(self.leads[lead, row]):
                raise NonFiniteSample(LEAD_NAMES[lead], row)
            raise DataFormatError(f"sample in lead {LEAD_NAMES[lead]} at row {row} "
                                  f"is {MAX_ABS_SAMPLE_MV:g} mV or more in magnitude")

    @property
    def n_samples(self) -> int:
        return self.leads.shape[1]


@dataclass(frozen=True)
class Wave:
    """Onset/peak/offset landmarks of one wave, in record sample indices."""

    onset: int
    peak: int
    offset: int

    def __post_init__(self):
        if not self.onset <= self.peak <= self.offset:
            raise SchemaError(f"wave landmarks out of order: {self.onset},{self.peak},{self.offset}")


@dataclass(frozen=True)
class Beat:
    baseline: int
    p: Wave | None
    qrs: Wave
    t: Wave

    def __post_init__(self):
        if self.p is not None and self.p.offset > self.qrs.onset:
            raise SchemaError("P wave overlaps QRS")
        if self.qrs.offset > self.t.onset:
            raise SchemaError("QRS overlaps T wave")

    @property
    def first_index(self) -> int:
        return min(self.baseline, self.p.onset if self.p else self.qrs.onset)

    @property
    def last_index(self) -> int:
        return max(self.baseline, self.t.offset)


@dataclass(frozen=True)
class FiducialSet:
    """Per-beat wave landmarks for at least three cardiac cycles."""

    beats: tuple[Beat, ...]

    def __post_init__(self):
        if len(self.beats) < 3:
            raise TooFewBeats(f"need >= 3 annotated beats, got {len(self.beats)}")
        for prev, cur in zip(self.beats, self.beats[1:]):
            if cur.first_index <= prev.last_index:
                raise SchemaError("beats overlap or are out of order")

    def validate_against(self, record: EcgRecord):
        n = record.n_samples
        if self.beats[0].first_index < 0 or self.beats[-1].last_index >= n:
            raise SchemaError("fiducial index outside record")


@dataclass(frozen=True)
class MedianBeat:
    """Per-sample consolidation of the annotated beats, aligned on the QRS peak.

    `leads` is a (k, n) float array over the beat window: the twelve leads in
    LEAD_NAMES order after median_beat and baseline_correct, and the orthogonal
    leads x, y and z after kors_transform. `fiducials` holds the consolidated
    landmarks as window indices: their order within and between waves is
    checked by Wave and Beat, and construction checks that the baseline and
    every landmark lie in [0, n).
    """

    leads: np.ndarray
    fiducials: Beat
    sampling_rate_hz: float
    rr_ms: float

    def __post_init__(self):
        f, n = self.fiducials, self.n_samples

        def in_window(wave: Wave | None):
            for i in () if wave is None else (wave.onset, wave.peak, wave.offset):
                if not 0 <= i < n:
                    raise WindowOutOfRange(f"consolidated landmark at window index {i} outside [0, {n})")

        in_window(f.p)
        if not 0 <= f.baseline < n:
            raise WindowOutOfRange(f"consolidated baseline index {f.baseline} outside window")
        in_window(f.qrs)
        in_window(f.t)

    @property
    def n_samples(self) -> int:
        return self.leads.shape[1]


@dataclass(frozen=True)
class StandardEcgMeasures:
    """Interval measurements in ms. P-dependent fields are None when P is absent."""

    p_dur_ms: float | None
    pr_ms: float | None
    qrs_ms: float
    qt_ms: float
    qtc_ms: float
    rr_ms: float


def plain_float(text: str) -> float:
    """float(text) for text in ASCII without "_" apart from the whitespace around
    it, else ValueError: float() alone also reads "_" between digits and non-ASCII digits."""
    if "_" in text or not (text.isascii() or text.strip().isascii()):
        raise ValueError(f"not a plain numeral: {text!r}")
    return float(text)


def _parse_header(line: str, path) -> tuple[float, float]:
    fields = {}
    for token in line.split():
        if "=" not in token:
            raise BadHeader(f"{path}: malformed header token {token!r}")
        key, _, value = token.partition("=")
        if key in fields:
            raise BadHeader(f"{path}: repeated header key {key!r}")
        try:
            fields[key] = plain_float(value)
        except ValueError:
            raise BadHeader(f"{path}: non-numeric header value {token!r}") from None
    for key in ("sample_rate_hz", "gain_uv_per_unit"):
        if key not in fields:
            raise BadHeader(f"{path}: header missing {key}")
    if not all(math.isfinite(v) for v in fields.values()):
        raise BadHeader(f"{path}: non-finite header value")
    if fields["sample_rate_hz"] < MIN_SAMPLING_RATE_HZ:
        raise BadHeader(f"{path}: sample_rate_hz below supported minimum {MIN_SAMPLING_RATE_HZ}")
    if fields["gain_uv_per_unit"] <= 0:
        raise BadHeader(f"{path}: gain_uv_per_unit must be positive")
    return fields["sample_rate_hz"], fields["gain_uv_per_unit"]


def _names_columns(line: str) -> bool:
    """Whether a trace's second line names the columns: one of its cells, stripped, is a lead name."""
    return any(cell.strip() in LEAD_NAMES for cell in line.split(","))


def _swar_cells(data: bytes, start: int, ends: np.ndarray, starts: np.ndarray):
    """Read the cells of the body data[start:], 12 a row, with the SWAR kernel.

    Cell k is body[starts[k]:ends[k]], and ends[k] is the offset of the
    separator after it; both int64 arrays are spent as buffers. Returns the
    (12, rows) values and the mask of the rows with a cell outside the
    grammar, or None when there is none; the values of a refused row mean
    nothing.
    """
    n = len(LEAD_NAMES)
    body = np.frombuffer(data, np.uint8, offset=start)
    neg = body[starts] == ord("-")
    digits = np.subtract(ends, starts, out=starts)
    digits -= neg  # the digits of each cell, its dot included and its sign not

    # the 8 bytes before each cell's end as one word, in place from here on; an
    # index gathers from the unaligned view without the aligned copy take()
    # makes. A valid header holds more than 8 bytes, so every word lies in data.
    words = np.ndarray((len(data) - 7,), "<u8", data, 0, (1,))
    ends += start - 8
    w = words[ends]
    scratch = ends.view(np.uint64)
    np.take(_TOP_BYTES, digits, out=scratch, mode="clip")  # "raise" would copy
    byte = w.view(np.uint8)
    byte -= ord("0")  # digits to 0..9, "." to 254
    w &= scratch  # zero the bytes before the cell

    # q is the decimals most rows' first cells carry. A cell's dot, 254, is the
    # only byte of its word with the high bit set, and one of its 8 bytes, so
    # q <= 7; the first row's mark is taken when at least half the rows share it
    first = w[::n] & _HIGH_BITS
    mark = first[0]
    if 2 * np.count_nonzero(first == mark) < len(first):
        marks, counts = np.unique(first, return_counts=True)
        mark = marks[counts.argmax()]
    q = 7 - (int(mark).bit_length() - 8) // 8 if mark else 0
    if q:
        dot = byte[7 - q::8] == 254
        np.bitwise_and(w, _TOP_BYTES[q], out=scratch)  # the fraction digits
        w &= ~_TOP_BYTES[q + 1]  # the integer digits, below the dot
        w <<= np.uint64(8)
        w |= scratch
    refused = None
    if digits.min() < 1 or digits.max() > 8 or byte.max() > 9 or (q and not dot.all()):
        bad = (digits < 1) | (digits > 8) | ((w | (w + _OVER_9)) & _HIGH_BITS != 0)
        if q:
            bad |= ~dot
        refused = bad.reshape(-1, n).any(axis=1)

    # 8 digits -> 4 two-digit -> 2 four-digit -> 1 eight-digit number, first digit highest
    w *= np.uint64(10 * 2**8 + 1)
    w >>= np.uint64(8)
    for keep, mul, shift in ((0x00FF00FF00FF00FF, 100 * 2**16 + 1, 16),
                             (0x0000FFFF0000FFFF, 10000 * 2**32 + 1, 32)):
        w &= np.uint64(keep)
        w *= np.uint64(mul)
        w >>= np.uint64(shift)

    cells = digits.view(np.float64).reshape(n, -1)  # reuse the spent buffer
    np.divide(w.reshape(-1, n).T, 10.0**q, out=cells)
    np.negative(cells, out=cells, where=neg.reshape(-1, n).T)  # "-0.000" is -0.0
    return cells, refused


def _read_row(line: str, i: int, path) -> list[float]:
    """The values of row i, a stripped line, by plain_float(): 12 cells."""
    cells = line.split(",")
    if len(cells) != len(LEAD_NAMES):
        raise LengthMismatch(f"{path}: row {i} has {len(cells)} columns, expected 12")
    try:
        return [*map(plain_float, cells)]
    except ValueError:
        raise SchemaError(f"{path}: non-numeric value", row=i) from None


def _read_body(data: bytes, start: int, path) -> np.ndarray:
    """The rows of the body data[start:] as a (12, rows) array, raising at the first bad row."""
    n = len(LEAD_NAMES)
    body = np.frombuffer(data, np.uint8, offset=start)
    sep = np.flatnonzero(body < ord("-"))  # "," and line ends, and every other byte below "-"
    line_end = slice(n - 1, None, n)  # as indices into sep
    # every 12th separator is LF and all the others are commas: every line
    # holds 12 cells and ends in LF, and all are rows for the kernel (the
    # empty line after the last LF is dropped below, as every empty line is)
    if (sep.size and sep.size % n == 0 and sep[-1] == body.size - 1
            and (body[sep[line_end]] == ord("\n")).all()
            and np.count_nonzero(body == ord(",")) == len(sep) - len(sep) // n):
        ends, read = sep, np.ones(len(sep) // n + 1, bool)
    else:
        # a line ends at LF or CR, or at the end of the body; it is a row for
        # the kernel when it holds 11 commas, no other byte below "-", and its end
        kinds = body[sep]
        other = np.flatnonzero(kinds != ord(","))  # line ends and odd bytes, as indices into sep
        is_end = (kinds[other] == ord("\n")) | (kinds[other] == ord("\r"))
        read = is_end & (np.diff(other, prepend=-1) == n)
        read[1:] &= is_end[:-1]
        line_end = other[is_end]
        read = np.append(read[is_end], False)
        in_row = np.repeat(read[:-1], np.diff(line_end, prepend=-1))
        ends = sep[:in_row.size].compress(in_row)
    hi = np.append(sep[line_end], body.size)
    lo = np.concatenate(([0], hi[:-1] + 1))
    filled = hi > lo  # an empty line is no row
    lo, hi, read = lo[filled], hi[filled], read[filled]
    cells, refused = np.empty((n, 0)), None
    if ends.size:  # the kernel spends ends, and sep with it
        starts = np.empty_like(ends)
        np.add(ends[:-1], 1, out=starts[1:])
        starts[::n] = lo[read]
        cells, refused = _swar_cells(data, start, ends, starts)
    if refused is None and read.all():
        return cells
    if refused is not None:
        read[np.flatnonzero(read)[refused]] = False
        cells = cells[:, ~refused]

    # the other lines in order, by plain_float(); a line blank once stripped is no row
    blank, rows, values = [], [], array("d")
    for k in np.flatnonzero(~read).tolist():
        line = data[start + int(lo[k]):start + int(hi[k])].decode("utf-8").strip()
        if line:
            rows.append(k - len(blank))
            values.fromlist(_read_row(line, rows[-1], path))
        else:
            blank.append(k)
    out = np.empty((n, len(lo) - len(blank)))
    kept = np.flatnonzero(read)
    out[:, kept - np.searchsorted(blank, kept)] = cells
    out[:, rows] = np.frombuffer(values).reshape(-1, n).T
    return out


def parse_ecg(path) -> EcgRecord:
    """Read a trace file and return a validated EcgRecord in mV."""
    path = Path(path)
    try:
        data = path.read_bytes()
        if not data.isascii():
            data.decode("utf-8")  # the whole file is text before any line of it is read
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: unreadable trace ({exc})") from None
    # the first two non-blank lines, stripped, each with the offset after its end
    head, pos = [], 0
    while len(head) < 2 and pos < len(data):
        end = _LINE_END.search(data, pos)
        line = data[pos:end.start() if end else len(data)].decode("utf-8").strip()
        pos = end.end() if end else len(data)
        if line:
            head.append((line, pos))
    if not head:
        raise BadHeader(f"{path}: empty file")
    rate, gain_uv = _parse_header(head[0][0], path)

    # without a names line the columns are in LEAD_NAMES order
    named = len(head) == 2 and _names_columns(head[1][0])
    names = [c.strip() for c in head[1][0].split(",")] if named else list(LEAD_NAMES)
    for want in LEAD_NAMES:
        if want not in names:
            raise MissingLead(want)
    if len(names) != len(LEAD_NAMES):
        raise BadHeader(f"{path}: unexpected column names {names}")
    cells = _read_body(data, head[named][1], path)  # after the names line, if any
    if names != list(LEAD_NAMES):
        cells = cells[[names.index(want) for want in LEAD_NAMES]]

    # file units -> uV -> mV
    cells *= gain_uv / 1000.0
    return EcgRecord(leads=cells, sampling_rate_hz=rate)


def _parse_wave(obj, path, what) -> Wave:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: {what} is not an object")
    marks = [obj.get(key) for key in ("onset", "peak", "offset")]
    if any(type(m) is not int for m in marks):
        raise SchemaError(f"{path}: {what} needs integer onset/peak/offset")
    return Wave(*marks)


def parse_fiducials(path) -> FiducialSet:
    """Read a JSON annotation file and return a validated FiducialSet.

    Landmarks must be JSON integers: 20.9, true and "20" are not sample indices.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}: unreadable or invalid JSON ({exc})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("beats"), list):
        raise SchemaError(f"{path}: expected object with a 'beats' array")
    beats = []
    for i, raw in enumerate(doc["beats"]):
        if not isinstance(raw, dict):
            raise SchemaError(f"{path}: beat {i} is not an object")
        baseline = raw.get("baseline")
        if type(baseline) is not int:
            raise SchemaError(f"{path}: beat {i} needs integer baseline")
        p = None if raw.get("p") is None else _parse_wave(raw["p"], path, f"beat {i} p")
        qrs = _parse_wave(raw.get("qrs"), path, f"beat {i} qrs")
        t = _parse_wave(raw.get("t"), path, f"beat {i} t")
        beats.append(Beat(baseline=baseline, p=p, qrs=qrs, t=t))
    return FiducialSet(beats=tuple(beats))


def _sorted_median(a: np.ndarray) -> np.ndarray:
    """Median along the last axis, sorting `a` in place: the middle value, or
    (a + b) / 2 of the two middle values for an even count. As from np.median,
    a zero median is +0.0."""
    a.sort(axis=-1)
    k = a.shape[-1] // 2
    mid = a[..., k] + 0.0
    if a.shape[-1] % 2 == 0:
        mid += a[..., k - 1]
        mid /= 2
    return mid


def median_beat(
    record: EcgRecord,
    fiducials: FiducialSet,
    pre_ms: float = 300.0,
    post_ms: float = 500.0,
) -> MedianBeat:
    """Consolidate the annotated beats into one beat aligned on the QRS peak.

    Each output sample is the per-sample median across beats over the window
    [peak - pre_ms, peak + post_ms]. Each landmark is the median of its
    beat-relative offsets, rounded half up; rr_ms is the median spacing of
    successive QRS peaks. Every median sorts and picks the middle value; for
    an even count it is (a + b) / 2 of the two middle values. A zero median
    sample is +0.0, as np.median gives it.

    The landmarks of every beat obey the Wave and Beat order, and the median
    and the rounding are monotone, so the consolidated landmarks obey it too.
    Whether they lie in the window is checked by MedianBeat.
    """
    fiducials.validate_against(record)
    fs = record.sampling_rate_hz
    half_widths = (pre_ms * fs / 1000.0, post_ms * fs / 1000.0)
    if not all(map(math.isfinite, half_widths)):
        raise WindowOutOfRange(f"beat window of {pre_ms} + {post_ms} ms at {fs} Hz has no finite width")
    pre, post = map(round_half_up, half_widths)
    width = pre + post + 1

    beats = fiducials.beats
    for beat in beats:
        if beat.qrs.peak - pre < 0 or beat.qrs.peak + post >= record.n_samples:
            raise WindowOutOfRange(
                f"beat window around sample {beat.qrs.peak} leaves the record"
            )

    # (12, width, beats) in C order: each window sample's beats lie contiguous, for the sort
    peaks = np.asarray([beat.qrs.peak for beat in beats])
    at = (peaks - pre) + np.arange(width)[:, None]
    leads = _sorted_median(record.leads.take(at.ravel(), axis=1).reshape(len(record.leads), width, -1))

    # P is consolidated only when every beat carries one; mixed annotation
    # means the wave was not reliably identifiable, so it is treated as absent.
    waves = ("p", "qrs", "t") if all(b.p is not None for b in beats) else ("qrs", "t")
    # (landmarks, beats) sample indices: the baseline, then onset, peak and
    # offset of each wave; one median over the beats consolidates them all
    marks = [[b.baseline for b in beats]]
    marks += [[getattr(getattr(b, w), m) for b in beats]
              for w in waves for m in ("onset", "peak", "offset")]
    baseline, *idx = (round_half_up(float(x)) + pre
                      for x in _sorted_median(np.asarray(marks) - peaks))
    wave_at = {w: Wave(*idx[3 * k:3 * k + 3]) for k, w in enumerate(waves)}
    cons = Beat(baseline=baseline, p=wave_at.get("p"), qrs=wave_at["qrs"], t=wave_at["t"])
    rr_ms = float(_sorted_median(np.diff(peaks)) * 1000.0 / fs)
    return MedianBeat(leads=leads, fiducials=cons, sampling_rate_hz=fs, rr_ms=rr_ms)


def standard_measures(beat: MedianBeat) -> StandardEcgMeasures:
    """Interval measurements from consolidated landmarks, Bazett-corrected QT."""
    f = beat.fiducials
    ms = 1000.0 / beat.sampling_rate_hz
    qrs_ms = (f.qrs.offset - f.qrs.onset) * ms
    qt_ms = (f.t.offset - f.qrs.onset) * ms
    qtc_ms = qt_ms / math.sqrt(beat.rr_ms / 1000.0)
    p_dur_ms = pr_ms = None
    if f.p is not None:
        p_dur_ms = (f.p.offset - f.p.onset) * ms
        pr_ms = (f.qrs.onset - f.p.onset) * ms
    return StandardEcgMeasures(
        p_dur_ms=p_dur_ms,
        pr_ms=pr_ms,
        qrs_ms=qrs_ms,
        qt_ms=qt_ms,
        qtc_ms=qtc_ms,
        rr_ms=beat.rr_ms,
    )

