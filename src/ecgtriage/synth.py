"""Synthetic cohort generator for desk-scale end-to-end runs.

Beats are built in vectorcardiogram space as sums of Gaussian bumps (P, a
biphasic R/S pair, T) along unit directions, then mapped to the 8 independent
leads with the pseudoinverse of the lead-reduction matrix, so extraction
recovers the injected loops up to noise. The four derived limb leads are
reconstructed from I and II. Each patient's bump amplitudes and widths, QRS-T
angle and RR interval are drawn around the fixed table BEAT_TEMPLATE, so
SynthConfig holds only the study design (cohort size, class ratio, seed, class
effects) and the noise level. Every record has one format, as the ECGs of one
recording protocol do: SAMPLING_RATE_HZ for DURATION_S. Class effects are
injected in VCG space: positives get their repolarization axis rotated away
from the depolarization axis and their whole loop amplitude rescaled; risk
covariates shift by a separate knob.

A patient's beats are evaluated in one pass over the (beats, samples) grid of
times relative to each R peak, each over the whole record; only the lanes
where exp underflows to +0.0 are filled instead of evaluated. Every sample
keeps one summation order: 0 + beat 1 + beat 2 + ..., each beat
0 + P + R + S + T, so where every term underflowed, such as -0.0 from an S
bump, the sum is +0.0 and writes as 0.000, not -0.000.

Each trace file is a header line, the lead names, then one row per sample of
12 cells in microvolts, each written as "%.3f", joined by "," and ended by
"\n": the same bytes np.savetxt writes with those settings. write_trace_cells
builds that text with array arithmetic in TraceWork arrays, which generate
allocates once per cohort and reuses for every trace. A trace with a
non-finite cell, or with any |cell| >= 2**31 / 1000 uV, is written by
np.savetxt itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cohort import BOOL_COLUMNS, PatientRecord, save_cohort
from .ecg_ingest import LEAD_NAMES, round_half_up
from .errors import ConfigError
from .vcg import KORS_MATRIX

# cells at or above this magnitude (uV) are past the exact integer digit arithmetic
_FAST_CELL_LIMIT = 2.0 ** 31 / 1000.0
# widest cell below that limit: sign, 7 integer digits, ".", 3 decimals, separator
_MAX_CELL_WIDTH = 13


def synth_matrix() -> np.ndarray:
    """The fixed 8x3 synthesis matrix: right-inverse of the lead-reduction matrix.

    Taken when synth runs rather than at import, so no other command runs an SVD."""
    return np.linalg.pinv(KORS_MATRIX)


# exp(x) rounds to +0.0 for every x below this (it underflows below about
# -745.13), and numpy's exp is several times slower on lanes that underflow, so
# those lanes are filled with +0.0 instead of evaluated: the same values
_EXP_ZERO_BELOW = -750.0

# every record's format
SAMPLING_RATE_HZ, DURATION_S = 240.0, 7.0
# beat timing: first R peak, floor and ceiling of the RR interval, and the room
# kept after the last R
_LEAD_IN_MS, _MIN_RR_MS, _MAX_RR_MS, _TAIL_MS = 400.0, 600.0, 1200.0, 520.0
# far above any desk-scale cohort: each patient writes a 0.15 MB trace
MAX_N_PATIENTS = 100_000

# per-patient beat template: each wave's (amplitude mV, width ms) is scaled by
# exp(N(0, jitter)) with the jitter of its kind; the QRS-T angle (deg) and the
# RR interval (ms) are drawn as normal (mean, sd)
BEAT_TEMPLATE = {
    "waves": {"r": (1.4, 16.0), "s": (0.5, 12.0), "t": (0.30, 45.0), "p": (0.08, 24.0)},
    "amp_jitter": 0.12,
    "width_jitter": 0.08,
    "qrst_angle_deg": (40.0, 15.0),
    "rr_ms": (870.0, 80.0),
}

# covariate prevalences (negative class) and their positive-class targets
_RISK_RATES = {
    "sex_f": (0.547, 0.412),
    "prev_cs": (0.085, 0.235),
    "prev_mi": (0.229, 0.510),
    "prev_pci": (0.090, 0.392),
    "prev_stroke": (0.058, 0.098),
    "htn": (0.677, 0.745),
    "dm": (0.229, 0.490),
}


@dataclass(frozen=True)
class SynthConfig:
    n_patients: int = 300
    positive_fraction: float = 0.186
    seed: int = 0
    noise_sd_mv: float = 0.01
    # class effects in VCG space; risk_effect scales the covariate shifts
    qrst_angle_shift_deg: float = 30.0
    svg_scale: float = 0.75
    risk_effect: float = 1.0

    def __post_init__(self):
        if not 10 <= self.n_patients <= MAX_N_PATIENTS:
            raise ConfigError(f"n_patients must be in [10, {MAX_N_PATIENTS}], got {self.n_patients}")
        if not 0.0 < self.positive_fraction < 1.0:
            raise ConfigError("positive_fraction must be in (0, 1)")
        if not 0.0 <= self.noise_sd_mv < math.inf:
            raise ConfigError("noise_sd_mv must be finite and non-negative")
        if not 0.0 <= self.qrst_angle_shift_deg < math.inf:
            raise ConfigError("qrst_angle_shift_deg must be finite and non-negative")
        if not 0.0 < self.svg_scale < math.inf:
            raise ConfigError("svg_scale must be finite and positive")
        if not math.isfinite(self.risk_effect):
            raise ConfigError(f"risk_effect must be finite, got {self.risk_effect!r}")


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


_BASE_QRS_DIR = _unit([0.66, 0.73, 0.15])
_BASE_P_DIR = _unit([0.40, 0.90, 0.10])


def _rotate_from(u, angle_deg, rng):
    """Unit vector at the given angle from u, around a random in-plane axis."""
    while True:
        w = rng.normal(size=3)
        w = w - np.dot(w, u) * u
        norm = np.linalg.norm(w)
        if norm > 1e-9:
            break
    w /= norm
    a = math.radians(angle_deg)
    return math.cos(a) * u + math.sin(a) * w


@dataclass(frozen=True)
class _BeatShape:
    """Per-patient beat template: bump (amp, width_ms, center_ms, direction)."""

    bumps: tuple
    landmarks_ms: dict


def _draw_shape(cfg: SynthConfig, rng, positive: bool):
    jit = lambda base, rel: base * float(np.exp(rng.normal(0.0, rel)))
    waves = BEAT_TEMPLATE["waves"]
    # the draw order fixes the cohort bytes: r, s, t, p amplitudes, then widths, then the angle
    amp = {w: jit(a, BEAT_TEMPLATE["amp_jitter"]) for w, (a, _) in waves.items()}
    width = {w: jit(ms, BEAT_TEMPLATE["width_jitter"]) for w, (_, ms) in waves.items()}

    angle = float(np.clip(rng.normal(*BEAT_TEMPLATE["qrst_angle_deg"]), 5.0, 150.0))
    if positive:
        angle = min(angle + cfg.qrst_angle_shift_deg, 170.0)
    scale = cfg.svg_scale if positive else 1.0

    u_q = _unit(_BASE_QRS_DIR + rng.normal(0.0, 0.08, size=3))
    u_t = _rotate_from(u_q, angle, rng)

    qrs_dur = float(np.clip(rng.normal(92.0, 7.0), 70.0, 120.0))
    qt = float(np.clip(rng.normal(386.0, 20.0), 320.0, 460.0))
    pr = float(np.clip(rng.normal(165.0, 12.0), 120.0, 210.0))
    p_dur = float(np.clip(rng.normal(104.0, 8.0), 80.0, min(130.0, pr - 10.0)))

    qrs_on = -0.35 * qrs_dur
    qrs_off = qrs_on + qrs_dur
    s_center = qrs_off - 3.0 * width["s"]
    t_off = qrs_on + qt
    t_center = t_off - 3.0 * width["t"]
    t_on = max(qrs_off + 8.0, t_center - 3.0 * width["t"])
    p_on = qrs_on - pr
    p_center = p_on + 0.5 * p_dur

    bumps = (
        (scale * amp["p"], width["p"], p_center, _unit(_BASE_P_DIR + rng.normal(0.0, 0.05, size=3))),
        (scale * amp["r"], width["r"], 0.0, u_q),
        (-scale * amp["s"], width["s"], s_center, u_q),
        (scale * amp["t"], width["t"], t_center, u_t),
    )
    landmarks = {
        "baseline": -80.0,
        "p_on": p_on, "p_peak": p_center, "p_off": p_on + p_dur,
        "qrs_on": qrs_on, "qrs_peak": 0.0, "qrs_off": qrs_off,
        "t_on": t_on, "t_peak": t_center, "t_off": t_off,
    }
    return _BeatShape(bumps=bumps, landmarks_ms=landmarks), angle, scale


def vcg_waveform(shape: _BeatShape, t_ms: np.ndarray) -> np.ndarray:
    """Closed-form template evaluated at times (ms relative to the R peak) of any
    shape; returns (3, *t_ms.shape). Each value is 0 + P + R + S + T, in that
    order. A bump is evaluated at every time where its exp is not +0.0: no
    window, since its far tails still move the last bits of a sum."""
    v = np.zeros((3, *np.shape(t_ms)))
    for amp, width, center, direction in shape.bumps:
        z = -0.5 * ((t_ms - center) / width) ** 2
        bump = np.exp(z, out=np.zeros_like(z), where=z > _EXP_ZERO_BELOW)
        v += np.multiply.outer(direction, amp * bump)
    return v


def _patient_vcg(shape: _BeatShape, t_axis_ms: np.ndarray, centers) -> np.ndarray:
    """The record's VCG: every beat over the whole record, from one vcg_waveform
    call on the (beats, samples) grid, summed 0 + beat 1 + beat 2 + ... in beat order."""
    v = np.zeros((3, len(t_axis_ms)))
    for beat in vcg_waveform(shape, t_axis_ms - t_axis_ms[centers, None]).transpose(1, 0, 2):
        v += beat
    return v


def _draw_covariates(cfg: SynthConfig, rng, positive: bool):
    def rate(name):
        p_neg, p_pos = _RISK_RATES[name]
        p = p_neg + cfg.risk_effect * (p_pos - p_neg) if positive else p_neg
        return float(np.clip(p, 0.02, 0.98))

    sex = "F" if rng.random() < rate("sex_f") else "M"
    age = float(np.clip(rng.normal(57.3 + (cfg.risk_effect * 6.4 if positive else 0.0), 11.0), 18.0, 95.0))
    bmi = float(np.clip(rng.normal(26.8 + (cfg.risk_effect * 0.7 if positive else 0.0), 4.2), 15.0, 55.0))
    flags = {name: bool(rng.random() < rate(name)) for name in BOOL_COLUMNS}
    return sex, age, bmi, flags


class TraceWork:
    """Work arrays for write_trace_cells, sized for traces of n_cells cells."""

    def __init__(self, n_cells: int):
        self.flat, self.y, self.rest, self.q = np.empty((4, n_cells))
        self.text = np.empty(n_cells * _MAX_CELL_WIDTH, dtype=np.uint8)
        self.keep = np.empty(n_cells * _MAX_CELL_WIDTH, dtype=bool)
        self.out = np.empty(n_cells * _MAX_CELL_WIDTH, dtype=np.uint8)


def write_trace_cells(fh, cells, work: TraceWork | None = None):
    """Write a 2-D float array as "%.3f" cells, "," between them and "\n" after each row.

    work holds the arrays the arithmetic writes into; a caller writing many
    traces of one size passes the same TraceWork to each."""
    n = cells.size
    work = TraceWork(n) if work is None else work
    flat, y, rest, q = work.flat, work.y, work.rest, work.q
    below = work.keep[:n]  # scratch until the mask is built over it
    flat.reshape(cells.shape)[...] = cells
    np.less(np.abs(flat, out=y), _FAST_CELL_LIMIT, out=below)
    if not below.all():  # nan fails the comparison too
        np.savetxt(fh, cells, fmt="%.3f", delimiter=",", newline="\n")
        return
    np.multiply(flat, 1000.0, out=y)
    np.abs(np.rint(y, out=rest), out=rest)  # thousandths, exact integers below 2**31
    # y lies within one rounding of a half-integer: the exact product may round
    # the other way, so take those digits from "%.3f" itself
    # (|y - floor(y) - 0.5| <= spacing(|y|), computed in the work arrays)
    np.subtract(np.subtract(y, np.floor(y, out=q), out=q), 0.5, out=q)
    np.less_equal(np.abs(q, out=q), np.spacing(np.abs(y, out=y), out=y), out=below)
    for i in np.flatnonzero(below):
        rest[i] = abs(int(("%.3f" % flat[i]).replace(".", "")))
    n_int = len(str(int(rest.max()) // 1000))
    # one row per cell: sign, n_int integer digits, ".", 3 decimals, separator
    width = n_int + 6
    text = work.text[:n * width].reshape(n, width)
    keep = work.keep[:n * width].reshape(n, width)
    keep.fill(True)  # holds the scratch above and the last trace, whose width may differ
    text[:, 0] = ord("-")
    # assigned, not written through out=: numpy 2.4 writes wrong values when
    # signbit gets a strided bool out
    keep[:, 0] = np.signbit(flat)
    for col in range(width - 2, 0, -1):
        if col == n_int + 1:
            text[:, col] = ord(".")
            continue
        if col < n_int:  # a leading integer digit shows only while digits remain
            keep[:, col] = rest > 0
        np.floor(np.multiply(rest, 0.1, out=q), out=q)
        # the digit's ASCII code: rest - 10 * q + 48
        text[:, col] = np.add(np.subtract(rest, np.multiply(q, 10.0, out=y), out=y), 48.0, out=y)
        rest, q = q, rest
    text[:, -1] = ord(",")
    text.reshape(*cells.shape, width)[:, -1, -1] = ord("\n")
    out = work.out[:np.count_nonzero(keep)]
    np.compress(keep.ravel(), text.ravel(), out=out)
    fh.write(str(out, "ascii"))


def generate(cfg: SynthConfig, out_dir) -> dict:
    """Write ECG traces, annotation files, the base cohort table and a ground
    truth table under out_dir; returns summary counts and paths."""
    out = Path(out_dir)
    ecg_dir = out / "ecg"
    fid_dir = out / "fiducials"
    ecg_dir.mkdir(parents=True, exist_ok=True)
    fid_dir.mkdir(parents=True, exist_ok=True)

    n_pos = round_half_up(cfg.n_patients * cfg.positive_fraction)
    flags = np.zeros(cfg.n_patients, dtype=bool)
    flags[:n_pos] = True
    np.random.default_rng(np.random.SeedSequence((cfg.seed, 0))).shuffle(flags)

    fs = SAMPLING_RATE_HZ
    n_samples = round(DURATION_S * fs)
    lead_matrix = synth_matrix()
    work = TraceWork(n_samples * len(LEAD_NAMES))
    t_axis_ms = np.arange(n_samples) * 1000.0 / fs
    records, truth_rows = [], []

    for i in range(cfg.n_patients):
        pid = f"p{i + 1:04d}"
        positive = bool(flags[i])
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1, i)))
        shape, angle, scale = _draw_shape(cfg, rng, positive)

        # beat centers on integer samples, spaced by a jittered RR interval that
        # never exceeds _MAX_RR_MS
        rr_ms = max(float(rng.normal(*BEAT_TEMPLATE["rr_ms"])), _MIN_RR_MS)
        centers = []
        c = _LEAD_IN_MS
        while c <= DURATION_S * 1000.0 - _TAIL_MS:
            centers.append(round_half_up(c * fs / 1000.0))
            c += min(rr_ms + float(rng.normal(0.0, 4.0)), _MAX_RR_MS)

        # rows in KORS_INPUT_LEADS order: I, II, V1..V6
        leads8 = lead_matrix @ _patient_vcg(shape, t_axis_ms, centers)
        I, II = leads8[:2]
        traces = np.vstack([I, II, II - I, -(I + II) / 2.0, I - II / 2.0, II - I / 2.0, leads8[2:]])
        if cfg.noise_sd_mv > 0:
            traces = traces + rng.normal(0.0, cfg.noise_sd_mv, size=traces.shape)

        with open(ecg_dir / f"{pid}.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"sample_rate_hz={fs:g} gain_uv_per_unit=1.0\n")
            fh.write(",".join(LEAD_NAMES) + "\n")
            write_trace_cells(fh, traces.T * 1000.0, work)

        marks = {k: round_half_up(ms * fs / 1000.0) for k, ms in shape.landmarks_ms.items()}
        beats = []
        for center in centers:
            beats.append({
                "baseline": center + marks["baseline"],
                "p": {"onset": center + marks["p_on"], "peak": center + marks["p_peak"],
                      "offset": center + marks["p_off"]},
                "qrs": {"onset": center + marks["qrs_on"], "peak": center,
                        "offset": center + marks["qrs_off"]},
                "t": {"onset": center + marks["t_on"], "peak": center + marks["t_peak"],
                      "offset": center + marks["t_off"]},
            })
        (fid_dir / f"{pid}.json").write_text(
            json.dumps({"beats": beats}, indent=1) + "\n", encoding="utf-8")

        sex, age, bmi, risk = _draw_covariates(cfg, rng, positive)
        records.append(PatientRecord(
            id=pid, sex=sex, age_years=round(age, 1), bmi=round(bmi, 1),
            outcome="positive" if positive else "negative", **risk,
        ))
        truth_rows.append((pid, "positive" if positive else "negative", angle, scale))

    save_cohort(records, out / "cohort.csv")
    with open(out / "truth.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id,outcome,qrst_angle_deg,amp_scale\n")
        for pid, outcome, angle, scale in truth_rows:
            fh.write(f"{pid},{outcome},{angle!r},{scale!r}\n")

    return {
        "n_patients": cfg.n_patients,
        "n_positive": int(flags.sum()),
        "n_negative": int((~flags).sum()),
        "ecg_dir": str(ecg_dir),
        "fiducial_dir": str(fid_dir),
        "cohort_table": str(out / "cohort.csv"),
        "truth_table": str(out / "truth.csv"),
    }
