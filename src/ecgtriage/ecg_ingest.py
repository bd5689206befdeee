"""Ingest 12-lead ECG traces and specialist wave annotations.

Trace file format: one header line ``sample_rate_hz=<num> gain_uv_per_unit=<num>``,
an optional second line naming the 12 columns, then one comma-separated row per
sample in lead order I,II,III,aVR,aVL,aVF,V1..V6. Amplitudes are stored in file
units and converted to mV via the header gain. All rows are converted in one
C-level call (``np.loadtxt``). A per-row pass with ``float()`` runs only when
that call rejects the body, to name the bad row or to read the few cells that
only ``float()`` takes (``1_0``, non-ASCII digits), or when the text holds one
of the separator characters U+001C-U+001F, which only ``loadtxt`` skips. Both
paths thus accept the same files with the same values.

Annotation file format: JSON document with an array ``beats``; each beat carries
an integer ``baseline`` sample plus ``p``/``qrs``/``t`` objects with integer
``onset``/``peak``/``offset`` (``p`` may be null).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadHeader,
    DataFormatError,
    LengthMismatch,
    MissingFiducial,
    MissingLead,
    NonFiniteSample,
    SchemaError,
    TooFewBeats,
    WindowOutOfRange,
)

LEAD_NAMES = ("I", "II", "III", "aVR", "aVL", "aVF", "V1", "V2", "V3", "V4", "V5", "V6")

MIN_SAMPLING_RATE_HZ = 100.0

# loadtxt strips these ASCII separators around a number as whitespace, float()
# rejects them: a trace holding one is read by the per-row pass
_FLOAT_REJECTED_PADDING = "\x1c\x1d\x1e\x1f"


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from minus infinity (0.5 -> 1)."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class EcgRecord:
    """Validated 12-lead trace in mV."""

    leads: dict[str, np.ndarray]
    sampling_rate_hz: float
    duration_s: float

    def __post_init__(self):
        if self.sampling_rate_hz < MIN_SAMPLING_RATE_HZ:
            raise BadHeader(f"sampling rate {self.sampling_rate_hz} Hz below {MIN_SAMPLING_RATE_HZ}")
        for name in LEAD_NAMES:
            if name not in self.leads:
                raise MissingLead(name)
        n = self.n_samples
        expected = round(self.duration_s * self.sampling_rate_hz)
        if n != expected:
            raise LengthMismatch(f"{n} samples but duration says {expected}")
        for name in LEAD_NAMES:
            series = self.leads[name]
            if len(series) != n:
                raise LengthMismatch(f"lead {name} has {len(series)} samples, expected {n}")
            bad = np.flatnonzero(~np.isfinite(series))
            if bad.size:
                raise NonFiniteSample(name, int(bad[0]))

    @property
    def n_samples(self) -> int:
        return len(self.leads[LEAD_NAMES[0]])


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
class ConsolidatedFiducials:
    """Single set of landmarks on the beat window, indices relative to window start."""

    baseline: int
    p: Wave | None
    qrs: Wave
    t: Wave


@dataclass(frozen=True)
class MedianBeat:
    """Per-sample consolidation of the annotated beats, aligned on the QRS peak."""

    leads: dict[str, np.ndarray]
    fiducials: ConsolidatedFiducials
    sampling_rate_hz: float
    rr_ms: float

    @property
    def n_samples(self) -> int:
        return len(self.leads[LEAD_NAMES[0]])


@dataclass(frozen=True)
class StandardEcgMeasures:
    """Interval measurements in ms. P-dependent fields are None when P is absent."""

    p_dur_ms: float | None
    pr_ms: float | None
    qrs_ms: float
    qt_ms: float
    qtc_ms: float
    rr_ms: float


def _parse_header(line: str, path) -> tuple[float, float]:
    fields = {}
    for token in line.split():
        if "=" not in token:
            raise BadHeader(f"{path}: malformed header token {token!r}")
        key, _, value = token.partition("=")
        try:
            fields[key] = float(value)
        except ValueError:
            raise BadHeader(f"{path}: non-numeric header value {token!r}") from None
    for key in ("sample_rate_hz", "gain_uv_per_unit"):
        if key not in fields:
            raise BadHeader(f"{path}: header missing {key}")
    if not all(math.isfinite(v) for v in fields.values()):
        raise BadHeader(f"{path}: non-finite header value")
    if fields["sample_rate_hz"] < MIN_SAMPLING_RATE_HZ:
        raise BadHeader(f"{path}: sample_rate_hz below supported minimum {MIN_SAMPLING_RATE_HZ}")
    return fields["sample_rate_hz"], fields["gain_uv_per_unit"]


def _is_numeric_row(line: str) -> bool:
    try:
        list(map(float, line.split(",")))
    except ValueError:
        return False
    return True


def _parse_rows(body: list[str], order: list[int], path) -> np.ndarray:
    """Convert the rows one cell at a time with float(), naming the first bad row."""
    rows = np.empty((len(body), len(LEAD_NAMES)))
    for i, line in enumerate(body):
        cells = line.split(",")
        if len(cells) != len(LEAD_NAMES):
            raise LengthMismatch(f"{path}: row {i} has {len(cells)} columns, expected 12")
        try:
            rows[i] = [float(cells[j]) for j in order]
        except ValueError:
            raise SchemaError(f"{path}: non-numeric value", row=i) from None
    return rows


def parse_ecg(path) -> EcgRecord:
    """Read a trace file and return a validated EcgRecord in mV."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: unreadable trace ({exc})") from None
    lines = [ln for ln in map(str.strip, text.split("\n")) if ln]
    if not lines:
        raise BadHeader(f"{path}: empty file")
    rate, gain_uv = _parse_header(lines[0], path)

    body = lines[1:]
    if body and not _is_numeric_row(body[0]):
        names = [c.strip() for c in body[0].split(",")]
        for want in LEAD_NAMES:
            if want not in names:
                raise MissingLead(want)
        if len(names) != len(LEAD_NAMES):
            raise BadHeader(f"{path}: unexpected column names {names}")
        order = [names.index(want) for want in LEAD_NAMES]
        body = body[1:]
    else:
        order = list(range(len(LEAD_NAMES)))

    rows = None  # loadtxt warns on an empty body, which the per-row pass reads
    if body and not any(c in text for c in _FLOAT_REJECTED_PADDING):
        try:
            rows = np.loadtxt(body, delimiter=",", comments=None, dtype=float, ndmin=2)
        except ValueError:
            pass
    if rows is not None and rows.shape[1] == len(LEAD_NAMES):
        rows = rows[:, order]
    else:
        rows = _parse_rows(body, order, path)

    # file units -> uV -> mV
    rows *= gain_uv / 1000.0
    leads = {name: np.ascontiguousarray(rows[:, k]) for k, name in enumerate(LEAD_NAMES)}
    return EcgRecord(leads=leads, sampling_rate_hz=rate, duration_s=len(body) / rate)


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
    successive QRS peaks.
    """
    fiducials.validate_against(record)
    fs = record.sampling_rate_hz
    pre = round_half_up(pre_ms * fs / 1000.0)
    post = round_half_up(post_ms * fs / 1000.0)
    width = pre + post + 1

    beats = fiducials.beats
    for beat in beats:
        if beat.qrs.peak - pre < 0 or beat.qrs.peak + post >= record.n_samples:
            raise WindowOutOfRange(
                f"beat window around sample {beat.qrs.peak} leaves the record"
            )

    # (12, beats, width): every beat window of every lead in one gather
    peaks = np.asarray([beat.qrs.peak for beat in beats])
    stacked = np.stack([record.leads[name] for name in LEAD_NAMES])
    windows = stacked[:, (peaks - pre)[:, None] + np.arange(width)]
    leads = dict(zip(LEAD_NAMES, np.median(windows, axis=1)))

    # P is consolidated only when every beat carries one; mixed annotation
    # means the wave was not reliably identifiable, so it is treated as absent.
    waves = ("p", "qrs", "t") if all(b.p is not None for b in beats) else ("qrs", "t")
    # (landmarks, beats) sample indices: the baseline, then onset, peak and
    # offset of each wave; one median over the beats consolidates them all
    marks = [[b.baseline for b in beats]]
    marks += [[getattr(getattr(b, w), m) for b in beats]
              for w in waves for m in ("onset", "peak", "offset")]
    baseline, *idx = (round_half_up(float(x)) + pre
                      for x in np.median(np.asarray(marks) - peaks, axis=1))
    wave_at = {w: Wave(*idx[3 * k:3 * k + 3]) for k, w in enumerate(waves)}

    def in_window(wave: Wave) -> Wave:
        for i in (wave.onset, wave.peak, wave.offset):
            if i < 0 or i >= width:
                raise WindowOutOfRange(
                    f"consolidated landmark at window index {i} outside [0, {width})"
                )
        return wave

    p_wave = in_window(wave_at["p"]) if "p" in wave_at else None
    if baseline < 0 or baseline >= width:
        raise WindowOutOfRange(f"consolidated baseline index {baseline} outside window")
    cons = ConsolidatedFiducials(
        baseline=baseline, p=p_wave, qrs=in_window(wave_at["qrs"]), t=in_window(wave_at["t"]))
    rr_ms = float(np.median(np.diff(peaks)) * 1000.0 / fs)
    return MedianBeat(leads=leads, fiducials=cons, sampling_rate_hz=fs, rr_ms=rr_ms)


def standard_measures(beat: MedianBeat) -> StandardEcgMeasures:
    """Interval measurements from consolidated landmarks, Bazett-corrected QT."""
    f = beat.fiducials
    if f.qrs is None or f.t is None:
        raise MissingFiducial("QRS and T landmarks are required")
    ms = 1000.0 / beat.sampling_rate_hz
    qrs_ms = (f.qrs.offset - f.qrs.onset) * ms
    qt_ms = (f.t.offset - f.qrs.onset) * ms
    if beat.rr_ms <= 0:
        raise MissingFiducial("rr_ms must be positive")
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

