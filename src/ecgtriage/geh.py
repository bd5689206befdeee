"""Global electrical heterogeneity measures computed from the X/Y/Z median beat.

Nine outputs: peak and area QRS-T angles, peak and area gradient-vector azimuth
and elevation, peak gradient magnitude (mV), QT vector-magnitude integral and
gradient-area magnitude (both mV*ms).

Axis convention: x points left, y points inferior, z points posterior. Azimuth
is measured in the transverse x-z plane from +x toward +z, atan2(z, x);
elevation is measured down from the +y axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ecg_ingest import MedianBeat
from .errors import EmptyWindow, ZeroVector


@dataclass(frozen=True)
class SpatialVector:
    """A 3-vector in mV (kind='peak') or mV*ms (kind='area')."""

    x: float
    y: float
    z: float
    kind: str

    @property
    def magnitude(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def __add__(self, other: "SpatialVector") -> "SpatialVector":
        if self.kind != other.kind:
            raise ValueError("cannot add vectors of different kinds")
        return SpatialVector(self.x + other.x, self.y + other.y, self.z + other.z, self.kind)


class Direction(NamedTuple):
    azimuth_deg: float
    elevation_deg: float
    degenerate: bool


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


def peak_vector(beat: MedianBeat, onset: int, offset: int) -> SpatialVector:
    """Vector at the window sample with the largest instantaneous magnitude.

    Ties go to the earliest sample.
    """
    w = _window(beat, onset, offset)
    x, y, z = w
    i = int(np.argmax(x ** 2 + y ** 2 + z ** 2))
    return SpatialVector(*map(float, w[:, i]), kind="peak")


def area_vector(beat: MedianBeat, onset: int, offset: int) -> SpatialVector:
    """Componentwise trapezoidal integral over the window, in mV*ms."""
    w = _window(beat, onset, offset)
    return SpatialVector(*map(float, np.trapezoid(w, dx=1000.0 / beat.sampling_rate_hz, axis=1)),
                         kind="area")


def _power_of_two_scaled(v: SpatialVector, which: str) -> tuple[float, float, float]:
    """The components of v times the power of two that brings the largest into [0.5, 1)."""
    if not (v.x or v.y or v.z):
        raise ZeroVector(which)
    e = math.frexp(max(abs(v.x), abs(v.y), abs(v.z)))[1]
    return math.ldexp(v.x, -e), math.ldexp(v.y, -e), math.ldexp(v.z, -e)


def spatial_angle(u: SpatialVector, v: SpatialVector) -> float:
    """Angle between two spatial vectors in degrees, range [0, 180].

    Taken as atan2(|u x v|, u . v): acos of the normalised dot product loses
    about 1e-6 degrees next to 0 and 180, where rounding moves the cosine by
    one ulp, so parallel vectors of different lengths would not read 0. Each
    vector is first scaled by a power of two, which is exact for normal
    components, so that vectors shorter than ~1e-154 or longer than ~1e154,
    whose products leave the float range, keep their angle.
    """
    ux, uy, uz = _power_of_two_scaled(u, "first vector")
    vx, vy, vz = _power_of_two_scaled(v, "second vector")
    cx = uy * vz - uz * vy
    cy = uz * vx - ux * vz
    cz = ux * vy - uy * vx
    dot = ux * vx + uy * vy + uz * vz
    return math.degrees(math.atan2(math.hypot(cx, cy, cz), dot))


def azimuth_elevation(v: SpatialVector) -> Direction:
    """Direction angles: azimuth in (-180, 180], elevation in [0, 180].

    On the elevation axis itself the azimuth is undefined; it is reported as
    0.0 with the degenerate flag set instead of raising, so one pathological
    beat cannot abort a cohort run.
    """
    if v.magnitude == 0.0:
        raise ZeroVector("direction of zero vector")
    elevation = math.degrees(math.acos(max(-1.0, min(1.0, v.y / v.magnitude))))
    if v.x == 0.0 and v.z == 0.0:
        return Direction(0.0, elevation, True)
    azimuth = math.degrees(math.atan2(v.z, v.x))
    if azimuth <= -180.0:
        azimuth += 360.0
    return Direction(azimuth, elevation, False)


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
    svg_peak = qrs_peak + t_peak

    degenerate: list[str] = []

    def named(which, fn, *args):
        try:
            return fn(*args)
        except ZeroVector:
            raise ZeroVector(which) from None

    peak_angle = named("peak QRS-T angle", spatial_angle, qrs_peak, t_peak)
    area_angle = named("area QRS-T angle", spatial_angle, qrs_area, t_area)
    peak_dir = named("peak gradient direction", azimuth_elevation, svg_peak)
    area_dir = named("area gradient direction", azimuth_elevation, svg_area)
    if peak_dir.degenerate:
        degenerate.append("peak_svg_azimuth_deg")
    if area_dir.degenerate:
        degenerate.append("area_svg_azimuth_deg")

    return GehMeasures(
        peak_qrst_angle_deg=peak_angle,
        area_qrst_angle_deg=area_angle,
        peak_svg_azimuth_deg=peak_dir.azimuth_deg,
        area_svg_azimuth_deg=area_dir.azimuth_deg,
        peak_svg_elevation_deg=peak_dir.elevation_deg,
        area_svg_elevation_deg=area_dir.elevation_deg,
        peak_svg_mv=svg_peak.magnitude,
        vm_qti_mvms=vector_magnitude_integral(beat, f.qrs.onset, f.t.offset),
        svg_mvms=svg_area.magnitude,
        degenerate=tuple(degenerate),
    )
