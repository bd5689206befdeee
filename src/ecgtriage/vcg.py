"""Orthogonal X/Y/Z lead synthesis from the 8 independent ECG leads.

The regression coefficients below are transcribed from Kors et al.,
"Reconstruction of the Frank vectorcardiogram from standard electrocardiographic
leads: diagnostic comparison of different methods", Eur Heart J 11 (1990)
1083-1092, Table 1 (column order rearranged to I, II, V1..V6). They are fixed
constants and are never recomputed at runtime.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .ecg_ingest import LEAD_NAMES, MedianBeat

KORS_INPUT_LEADS = ("I", "II", "V1", "V2", "V3", "V4", "V5", "V6")
# the rows of a (12, n) lead array that the matrix reads, in KORS_INPUT_LEADS order
_KORS_ROWS = [LEAD_NAMES.index(name) for name in KORS_INPUT_LEADS]

# rows X, Y, Z; columns in KORS_INPUT_LEADS order
KORS_MATRIX = np.array([
    [0.38, -0.07, -0.13, 0.05, -0.01, 0.14, 0.06, 0.54],
    [-0.07, 0.93, 0.06, -0.02, -0.05, 0.06, -0.17, 0.13],
    [0.11, -0.23, -0.43, -0.06, -0.14, -0.20, -0.11, 0.31],
])


def baseline_correct(beat: MedianBeat) -> MedianBeat:
    """Subtract each lead's amplitude at the consolidated baseline sample.

    Idempotent; the corrected beat is exactly zero at the baseline sample.
    The baseline is an annotated integer (parse_fiducials) inside the beat
    window (MedianBeat).
    """
    return replace(beat, leads=beat.leads - beat.leads[:, beat.fiducials.baseline, None])


def kors_transform(beat: MedianBeat) -> MedianBeat:
    """Apply the fixed 3x8 regression matrix to leads I, II, V1..V6: the
    beat's rows become the orthogonal leads x, y and z.

    The derived limb leads (III, aVR, aVL, aVF) are linear combinations of I
    and II and are ignored. Landmarks, sampling rate and rr_ms carry over.
    """
    return replace(beat, leads=KORS_MATRIX @ beat.leads[_KORS_ROWS])

