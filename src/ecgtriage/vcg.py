"""Orthogonal X/Y/Z lead synthesis from the 8 independent ECG leads.

The regression coefficients below are transcribed from Kors et al.,
"Reconstruction of the Frank vectorcardiogram from standard electrocardiographic
leads: diagnostic comparison of different methods", Eur Heart J 11 (1990)
1083-1092, Table 1 (column order rearranged to I, II, V1..V6). They are fixed
constants and are never recomputed at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ecg_ingest import ConsolidatedFiducials, MedianBeat
from .errors import MissingFiducial, MissingLead

KORS_INPUT_LEADS = ("I", "II", "V1", "V2", "V3", "V4", "V5", "V6")

# rows X, Y, Z; columns in KORS_INPUT_LEADS order
KORS_MATRIX = np.array([
    [0.38, -0.07, -0.13, 0.05, -0.01, 0.14, 0.06, 0.54],
    [-0.07, 0.93, 0.06, -0.02, -0.05, 0.06, -0.17, 0.13],
    [0.11, -0.23, -0.43, -0.06, -0.14, -0.20, -0.11, 0.31],
])


@dataclass(frozen=True)
class Vcg:
    """Vectorcardiogram: three equal-length orthogonal series in mV."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    sampling_rate_hz: float
    fiducials: ConsolidatedFiducials

    def __post_init__(self):
        if not (len(self.x) == len(self.y) == len(self.z)):
            raise ValueError("x, y, z must have equal length")

    @property
    def n_samples(self) -> int:
        return len(self.x)


def baseline_correct(beat: MedianBeat) -> MedianBeat:
    """Subtract each lead's amplitude at the consolidated baseline sample.

    Idempotent; the corrected beat is exactly zero at the baseline sample.
    """
    baseline = beat.fiducials.baseline
    if baseline is None:
        raise MissingFiducial("baseline sample not annotated")
    if not 0 <= baseline < beat.n_samples:
        raise MissingFiducial(f"baseline index {baseline} outside beat window")
    leads = {name: series - series[baseline] for name, series in beat.leads.items()}
    return replace(beat, leads=leads)


def kors_transform(beat: MedianBeat) -> Vcg:
    """Apply the fixed 3x8 regression matrix to leads I, II, V1..V6.

    The derived limb leads (III, aVR, aVL, aVF) are linear combinations of I
    and II and are ignored. Landmarks are carried over unchanged.
    """
    for name in KORS_INPUT_LEADS:
        if name not in beat.leads:
            raise MissingLead(name)
    stacked = np.vstack([beat.leads[name] for name in KORS_INPUT_LEADS])
    xyz = KORS_MATRIX @ stacked
    return Vcg(
        x=xyz[0],
        y=xyz[1],
        z=xyz[2],
        sampling_rate_hz=beat.sampling_rate_hz,
        fiducials=beat.fiducials,
    )

