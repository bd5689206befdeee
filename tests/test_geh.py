import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgtriage.ecg_ingest import Beat, Wave
from ecgtriage.errors import EmptyWindow, ZeroVector
from ecgtriage.geh import (
    area_vector,
    azimuth_elevation,
    compute_geh,
    magnitude,
    peak_vector,
    spatial_angle,
    vector_magnitude_integral,
)

from conftest import random_vcg, vcg_from
from oracles import dense_grid_geh, gaussian_loop_vcg, peak_scan, trapezoid_ref

unit_floats = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def vec(x, y, z):
    return float(x), float(y), float(z)


class TestPeakVector:
    def test_single_sample_window(self, rng):
        v = random_vcg(rng, n=30)
        p = peak_vector(v, 7, 7)
        assert p == tuple(v.leads[:, 7])

    def test_monotone_magnitude_peaks_at_offset(self):
        t = np.linspace(0, 1, 50)
        v = vcg_from([t, 2 * t, -t])
        p = peak_vector(v, 5, 40)
        assert p == tuple(v.leads[:, 40])

    def test_matches_bruteforce_scan(self, rng):
        for _ in range(20):
            v = random_vcg(rng, n=80)
            p = peak_vector(v, 10, 59)
            i = peak_scan(*v.leads, 10, 59)
            assert p == tuple(v.leads[:, i])

    def test_tie_breaks_to_earliest(self):
        x = np.zeros(20)
        x[5] = x[9] = 2.0
        v = vcg_from([x, np.zeros(20), np.zeros(20)])
        assert peak_vector(v, 0, 19)[0] == 2.0
        assert peak_scan(*v.leads, 0, 19) == 5

    def test_empty_window(self, rng):
        v = random_vcg(rng, n=20)
        with pytest.raises(EmptyWindow):
            peak_vector(v, 10, 9)
        with pytest.raises(EmptyWindow):
            peak_vector(v, 0, 20)


class TestAreaVector:
    def test_constant_rectangle(self):
        # 1 mV over a 100 ms window (25 intervals at 240 Hz is 104.17 ms, so
        # use 1000 Hz where 100 samples span exactly 100 ms)
        n = 101
        v = vcg_from([np.ones(n), np.zeros(n), np.zeros(n)], fs=1000.0)
        ax, ay, az = area_vector(v, 0, n - 1)
        assert ax == pytest.approx(100.0, rel=1e-12)
        assert ay == 0.0 and az == 0.0

    def test_linear_ramp_triangle(self):
        n = 101
        v = vcg_from([np.linspace(0, 1, n), np.zeros(n), np.zeros(n)], fs=1000.0)
        ax, _, _ = area_vector(v, 0, n - 1)
        assert ax == pytest.approx(50.0, rel=1e-12)

    def test_matches_loop_trapezoid(self, rng):
        v = random_vcg(rng, n=90)
        a = area_vector(v, 12, 77)
        dt = 1000.0 / v.sampling_rate_hz
        for got, lead in zip(a, v.leads):
            assert got == pytest.approx(trapezoid_ref(lead[12:78], dt), rel=1e-12)

    def test_matches_high_resolution_interpolant(self, rng):
        # trapezoid is exact for the piecewise-linear interpolant, so a 100x
        # denser integration of that interpolant must agree to 1e-9 relative
        v = random_vcg(rng, n=60)
        ax, _, _ = area_vector(v, 5, 49)
        dt = 1000.0 / v.sampling_rate_hz
        coarse_t = np.arange(5, 50) * dt
        fine_t = np.linspace(coarse_t[0], coarse_t[-1], 100 * (len(coarse_t) - 1) + 1)
        fine_x = np.interp(fine_t, coarse_t, v.leads[0, 5:50])
        dense = trapezoid_ref(fine_x, fine_t[1] - fine_t[0])
        assert ax == pytest.approx(dense, rel=1e-9)

    def test_single_sample_window_is_zero(self, rng):
        v = random_vcg(rng, n=20)
        assert area_vector(v, 4, 4) == (0.0, 0.0, 0.0)


class TestSpatialAngle:
    def test_orthogonal(self):
        assert spatial_angle(vec(1, 0, 0), vec(0, 1, 0)) == pytest.approx(90.0)

    def test_identical(self):
        assert spatial_angle(vec(2, 3, 6), vec(2, 3, 6)) == pytest.approx(0.0)

    def test_forty_five(self):
        assert spatial_angle(vec(1, 0, 0), vec(1, 1, 0)) == pytest.approx(45.0)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            spatial_angle(vec(0, 0, 0), vec(1, 0, 0))

    @pytest.mark.parametrize("u, v, angle", [
        ((0, 0, 1), (0, 0, 1.2e-162), 0.0),  # |v|^2 underflows to 0
        ((1e-160, 0, 0), (0, 1e-163, 0), 90.0),
        ((1e300, 0, 0), (1e300, 2e300, 0), math.degrees(math.atan(2.0))),  # |u x v| overflows
    ])
    def test_squares_outside_the_float_range(self, u, v, angle):
        assert spatial_angle(vec(*u), vec(*v)) == pytest.approx(angle, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(ux=unit_floats, uy=unit_floats, uz=unit_floats,
           vx=unit_floats, vy=unit_floats, vz=unit_floats,
           a=st.floats(0.001, 1000.0), b=st.floats(0.001, 1000.0))
    def test_symmetry_and_scale_invariance(self, ux, uy, uz, vx, vy, vz, a, b):
        u, v = vec(ux, uy, uz), vec(vx, vy, vz)
        if magnitude(u) == 0 or magnitude(v) == 0:
            return
        base = spatial_angle(u, v)
        assert 0.0 <= base <= 180.0
        assert spatial_angle(v, u) == pytest.approx(base, abs=1e-9)
        scaled = spatial_angle(vec(a * ux, a * uy, a * uz), vec(b * vx, b * vy, b * vz))
        assert scaled == pytest.approx(base, abs=1e-9)


class TestAzimuthElevation:
    def test_convention_anchor(self):
        azimuth, elevation, degenerate = azimuth_elevation(vec(1, 0, 0))
        assert azimuth == pytest.approx(0.0)
        assert elevation == pytest.approx(90.0)
        assert not degenerate

    def test_pole_is_degenerate(self):
        azimuth, elevation, degenerate = azimuth_elevation(vec(0, 1, 0))
        assert azimuth == 0.0
        assert elevation == pytest.approx(0.0)
        assert degenerate

    def test_diagonal(self):
        azimuth, elevation, _ = azimuth_elevation(vec(1, 0, 1))
        assert azimuth == pytest.approx(45.0)
        assert elevation == pytest.approx(90.0)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            azimuth_elevation(vec(0, 0, 0))

    @settings(max_examples=60, deadline=None)
    @given(x=unit_floats, y=unit_floats, z=unit_floats)
    def test_ranges(self, x, y, z):
        v = vec(x, y, z)
        if magnitude(v) == 0:
            return
        azimuth, elevation, _ = azimuth_elevation(v)
        assert -180.0 < azimuth <= 180.0
        assert 0.0 <= elevation <= 180.0


def two_loop_vcg(rng=None, n=260, fs=240.0):
    """QRS-like bump confined to +x, T-like bump confined to +y."""
    x = np.zeros(n)
    y = np.zeros(n)
    idx = np.arange(n)
    x += 1.5 * np.exp(-0.5 * ((idx - 30) / 5.0) ** 2) * (np.abs(idx - 30) <= 15)
    y += 0.4 * np.exp(-0.5 * ((idx - 120) / 12.0) ** 2) * (np.abs(idx - 120) <= 36)
    fids = Beat(
        baseline=2, p=None, qrs=Wave(10, 30, 50), t=Wave(80, 120, 170))
    return vcg_from([x, y, np.zeros(n)], fs=fs, fiducials=fids)


class TestComputeGeh:
    def test_orthogonal_loops_give_right_angles(self):
        g = compute_geh(two_loop_vcg())
        assert g.peak_qrst_angle_deg == pytest.approx(90.0)
        assert g.area_qrst_angle_deg == pytest.approx(90.0)

    def test_vm_qti_dominates_svg(self, rng):
        for _ in range(200):
            v = random_vcg(rng, n=100)
            g = compute_geh(v)
            assert g.vm_qti_mvms >= g.svg_mvms - 1e-9

    def test_area_additivity(self, rng):
        v = random_vcg(rng, n=100)
        f = v.fiducials
        qrs = area_vector(v, f.qrs.onset, f.qrs.offset)
        t = area_vector(v, f.qrs.offset, f.t.offset)
        qt = area_vector(v, f.qrs.onset, f.t.offset)
        for q, w, whole in zip(qrs, t, qt):
            assert q + w == pytest.approx(whole, rel=1e-9, abs=1e-12)

    def test_amplitude_scaling(self, rng):
        v = random_vcg(rng, n=100)
        a = 3.7
        scaled = vcg_from(a * v.leads, fiducials=v.fiducials)
        g, gs = compute_geh(v), compute_geh(scaled)
        assert gs.peak_svg_mv == pytest.approx(a * g.peak_svg_mv, rel=1e-12)
        assert gs.svg_mvms == pytest.approx(a * g.svg_mvms, rel=1e-12)
        assert gs.vm_qti_mvms == pytest.approx(a * g.vm_qti_mvms, rel=1e-12)
        assert gs.peak_qrst_angle_deg == pytest.approx(g.peak_qrst_angle_deg, abs=1e-9)
        assert gs.area_qrst_angle_deg == pytest.approx(g.area_qrst_angle_deg, abs=1e-9)
        assert gs.peak_svg_azimuth_deg == pytest.approx(g.peak_svg_azimuth_deg, abs=1e-9)

    def test_rotation_invariance_of_scalars(self, rng):
        v = random_vcg(rng, n=100)
        g = compute_geh(v)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            gr = compute_geh(vcg_from(q @ v.leads, fiducials=v.fiducials))
            assert gr.peak_qrst_angle_deg == pytest.approx(g.peak_qrst_angle_deg, rel=1e-6, abs=1e-6)
            assert gr.area_qrst_angle_deg == pytest.approx(g.area_qrst_angle_deg, rel=1e-6, abs=1e-6)
            assert gr.svg_mvms == pytest.approx(g.svg_mvms, rel=1e-6)
            assert gr.peak_svg_mv == pytest.approx(g.peak_svg_mv, rel=1e-6)
            assert gr.vm_qti_mvms == pytest.approx(g.vm_qti_mvms, rel=1e-6)

    def test_rotation_moves_directions_consistently(self, rng):
        v = random_vcg(rng, n=100)

        def unit_from(azimuth_deg, elevation_deg):
            az, el = math.radians(azimuth_deg), math.radians(elevation_deg)
            return np.array([math.sin(el) * math.cos(az), math.cos(el), math.sin(el) * math.sin(az)])

        g = compute_geh(v)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        gr = compute_geh(vcg_from(q @ v.leads, fiducials=v.fiducials))
        expected = q @ unit_from(g.area_svg_azimuth_deg, g.area_svg_elevation_deg)
        got = unit_from(gr.area_svg_azimuth_deg, gr.area_svg_elevation_deg)
        np.testing.assert_allclose(got, expected, atol=1e-9)

    # a zero QRS as well zeroes the peak gradient: both angles are evaluated
    # before either direction, so the first zero vector names the error
    @pytest.mark.parametrize("qrs_level", [1.0, 0.0])
    def test_zero_t_wave_names_the_feature(self, qrs_level):
        n = 200
        x = np.zeros(n)
        x[20:40] = qrs_level
        fids = Beat(baseline=0, p=None,
                    qrs=Wave(10, 30, 50), t=Wave(80, 120, 170))
        v = vcg_from([x, np.zeros(n), np.zeros(n)], fiducials=fids)
        with pytest.raises(ZeroVector) as err:
            compute_geh(v)
        assert "peak QRS-T angle" in str(err.value)

    def test_degenerate_pole_sets_flag_instead_of_error(self):
        n = 200
        y = np.zeros(n)
        y[20:50] = 1.0
        y[80:170] = 0.5
        fids = Beat(baseline=0, p=None,
                    qrs=Wave(10, 30, 50), t=Wave(80, 120, 170))
        g = compute_geh(vcg_from([np.zeros(n), y, np.zeros(n)], fiducials=fids))
        assert "peak_svg_azimuth_deg" in g.degenerate
        assert g.peak_svg_azimuth_deg == 0.0

    def test_closed_form_beat_matches_dense_grid_oracle(self):
        fs = 240.0
        dt = 1000.0 / fs
        # centers on exact samples so the sampled peak equals the closed form
        bumps = (
            (1.4, 16.0, 48 * dt, np.array([0.7, 0.64, 0.32])),
            (-0.5, 12.0, 60 * dt, np.array([0.7, 0.64, 0.32])),
            (0.35, 42.0, 120 * dt, np.array([0.1, 0.9, -0.42])),
        )
        qrs_on, qrs_off, t_off = 36, 72, 168
        t_ms = np.arange(200) * dt
        v = gaussian_loop_vcg(t_ms, bumps)
        fids = Beat(baseline=4, p=None,
                    qrs=Wave(qrs_on, 48, qrs_off), t=Wave(90, 120, t_off))
        vcg = vcg_from(v, fs=fs, fiducials=fids)
        got = vars(compute_geh(vcg))
        expected = dense_grid_geh(bumps, qrs_on * dt, qrs_off * dt, t_off * dt)
        for name, value in expected.items():
            assert got[name] == pytest.approx(value, rel=1e-3), name


def test_vector_magnitude_integral_matches_loop(rng):
    v = random_vcg(rng, n=60)
    dt = 1000.0 / v.sampling_rate_hz
    x, y, z = v.leads
    mags = [math.sqrt(x[i] ** 2 + y[i] ** 2 + z[i] ** 2) for i in range(10, 50)]
    assert vector_magnitude_integral(v, 10, 49) == pytest.approx(
        trapezoid_ref(mags, dt), rel=1e-12)

