"""Global electrical heterogeneity measures computed from the X/Y/Z median beat.

Nine outputs: peak and area QRS-T angles, peak and area gradient-vector azimuth
and elevation, peak gradient magnitude (mV), QT vector-magnitude integral and
gradient-area magnitude (both mV*ms).

A vector is an (x, y, z) tuple of Python floats: in mV for a peak vector (one
sample of the beat), in mV*ms for an area vector (an integral over a window).

Axis convention: x points left, y points inferior, z points posterior. Azimuth
is measured in the transverse x-z plane from +x toward +z, atan2(z, x);
elevation is measured down from the +y axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ecg_ingest import MedianBeat
from .errors import EmptyWindow, ZeroVector


@dataclass(frozen=True)
class GehMeasures:
    peak_qrst_angle_deg: float
    area_qrst_angle_deg: float
    peak_svg_azimuth_deg: float
    area_svg_azimuth_deg: float
    peak_svg_elevation_deg: float
    area_svg_elevation_deg: float
    peak_svg_mv: float
    vm_qti_mvms: float
    svg_mvms: float
    degenerate: tuple[str, ...] = ()


def _window(beat: MedianBeat, onset: int, offset: int) -> np.ndarray:
    """The (3, m) samples of the inclusive window [onset, offset]."""
    if onset > offset or onset < 0 or offset >= beat.n_samples:
        raise EmptyWindow(f"window [{onset}, {offset}] invalid for {beat.n_samples} samples")
    return beat.leads[:, onset:offset + 1]


def magnitude(v) -> float:
    """Euclidean length of v, summed in the order x, y, z."""
    x, y, z = v
    return math.sqrt(x * x + y * y + z * z)


def peak_vector(beat: MedianBeat, onset: int, offset: int) -> tuple[float, float, float]:
    """Vector at the window sample with the largest instantaneous magnitude.

    Ties go to the earliest sample.
    """
    w = _window(beat, onset, offset)
    x, y, z = w
    i = int(np.argmax(x ** 2 + y ** 2 + z ** 2))
    return tuple(w[:, i].tolist())


def area_vector(beat: MedianBeat, onset: int, offset: int) -> tuple[float, float, float]:
    """Componentwise trapezoidal integral over the window, in mV*ms."""
    w = _window(beat, onset, offset)
    return tuple(np.trapezoid(w, dx=1000.0 / beat.sampling_rate_hz, axis=1).tolist())


def _power_of_two_scaled(v, which: str) -> tuple[float, float, float]:
    """The components of v times the power of two that brings the largest into [0.5, 1)."""
    x, y, z = v
    if not (x or y or z):
        raise ZeroVector(which)
    e = math.frexp(max(abs(x), abs(y), abs(z)))[1]
    return math.ldexp(x, -e), math.ldexp(y, -e), math.ldexp(z, -e)


def spatial_angle(u, v, which: str = "spatial angle") -> float:
    """Angle between two spatial vectors in degrees, range [0, 180]; a zero
    vector raises ZeroVector(which).

    Taken as atan2(|u x v|, u . v): acos of the normalised dot product loses
    about 1e-6 degrees next to 0 and 180, where rounding moves the cosine by
    one ulp, so parallel vectors of different lengths would not read 0. Each
    vector is first scaled by a power of two, which is exact for normal
    components, so that vectors shorter than ~1e-154 or longer than ~1e154,
    whose products leave the float range, keep their angle.
    """
    ux, uy, uz = _power_of_two_scaled(u, which)
    vx, vy, vz = _power_of_two_scaled(v, which)
    cx = uy * vz - uz * vy
    cy = uz * vx - ux * vz
    cz = ux * vy - uy * vx
    dot = ux * vx + uy * vy + uz * vz
    return math.degrees(math.atan2(math.hypot(cx, cy, cz), dot))


def azimuth_elevation(v, which: str = "direction") -> tuple[float, float, bool]:
    """(azimuth, elevation, degenerate): azimuth in (-180, 180], elevation in
    [0, 180], both in degrees; a zero vector raises ZeroVector(which).

    On the elevation axis itself the azimuth is undefined; it is reported as
    0.0 with the degenerate flag set instead of raising, so one pathological
    beat cannot abort a cohort run.
    """
    x, y, z = v
    m = magnitude(v)
    if m == 0.0:
        raise ZeroVector(which)
    elevation = math.degrees(math.acos(max(-1.0, min(1.0, y / m))))
    if x == 0.0 and z == 0.0:
        return 0.0, elevation, True
    azimuth = math.degrees(math.atan2(z, x))
    if azimuth <= -180.0:
        azimuth += 360.0
    return azimuth, elevation, False


def vector_magnitude_integral(beat: MedianBeat, onset: int, offset: int) -> float:
    """Trapezoidal integral of sqrt(x^2+y^2+z^2) over the window, in mV*ms."""
    x, y, z = _window(beat, onset, offset)
    return float(np.trapezoid(np.sqrt(x ** 2 + y ** 2 + z ** 2), dx=1000.0 / beat.sampling_rate_hz))


def compute_geh(beat: MedianBeat) -> GehMeasures:
    """All nine heterogeneity measures of one X/Y/Z beat (kors_transform).

    Windows: depolarization [QRS.onset, QRS.offset]; repolarization
    [QRS.offset, T.offset] (onset at the J point); QT [QRS.onset, T.offset].
    The area gradient vector is the QT area integral and the peak gradient
    vector is the sum of the depolarization and repolarization peak vectors.
    Beat guarantees both waves and their order and MedianBeat that they lie
    in the window; _window refuses any other window (EmptyWindow).
    """
    f = beat.fiducials

    qrs_peak = peak_vector(beat, f.qrs.onset, f.qrs.offset)
    t_peak = peak_vector(beat, f.qrs.offset, f.t.offset)
    qrs_area = area_vector(beat, f.qrs.onset, f.qrs.offset)
    t_area = area_vector(beat, f.qrs.offset, f.t.offset)
    svg_area = area_vector(beat, f.qrs.onset, f.t.offset)
    svg_peak = (qrs_peak[0] + t_peak[0], qrs_peak[1] + t_peak[1], qrs_peak[2] + t_peak[2])

    # both angles before either direction: the first zero vector names the error
    peak_angle = spatial_angle(qrs_peak, t_peak, "peak QRS-T angle")
    area_angle = spatial_angle(qrs_area, t_area, "area QRS-T angle")
    peak_azimuth, peak_elevation, peak_pole = azimuth_elevation(svg_peak, "peak gradient direction")
    area_azimuth, area_elevation, area_pole = azimuth_elevation(svg_area, "area gradient direction")

    return GehMeasures(
        peak_qrst_angle_deg=peak_angle,
        area_qrst_angle_deg=area_angle,
        peak_svg_azimuth_deg=peak_azimuth,
        area_svg_azimuth_deg=area_azimuth,
        peak_svg_elevation_deg=peak_elevation,
        area_svg_elevation_deg=area_elevation,
        peak_svg_mv=magnitude(svg_peak),
        vm_qti_mvms=vector_magnitude_integral(beat, f.qrs.onset, f.t.offset),
        svg_mvms=magnitude(svg_area),
        degenerate=tuple(name for name, pole in (("peak_svg_azimuth_deg", peak_pole),
                                                 ("area_svg_azimuth_deg", area_pole)) if pole),
    )
