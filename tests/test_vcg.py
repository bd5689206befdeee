import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgtriage.ecg_ingest import LEAD_NAMES
from ecgtriage.vcg import (
    KORS_INPUT_LEADS,
    KORS_MATRIX,
    baseline_correct,
    kors_transform,
)

from conftest import median_beat_from

# Second, independent transcription of the published regression coefficients
# (Kors et al. 1990, Table 1), keyed by output axis and input lead.
PUBLISHED = {
    ("x", "I"): 0.38, ("x", "II"): -0.07, ("x", "V1"): -0.13, ("x", "V2"): 0.05,
    ("x", "V3"): -0.01, ("x", "V4"): 0.14, ("x", "V5"): 0.06, ("x", "V6"): 0.54,
    ("y", "I"): -0.07, ("y", "II"): 0.93, ("y", "V1"): 0.06, ("y", "V2"): -0.02,
    ("y", "V3"): -0.05, ("y", "V4"): 0.06, ("y", "V5"): -0.17, ("y", "V6"): 0.13,
    ("z", "I"): 0.11, ("z", "II"): -0.23, ("z", "V1"): -0.43, ("z", "V2"): -0.06,
    ("z", "V3"): -0.14, ("z", "V4"): -0.20, ("z", "V5"): -0.11, ("z", "V6"): 0.31,
}


def impulse_beat(lead, value=1.0, n=40):
    matrix = np.zeros((12, n))
    matrix[LEAD_NAMES.index(lead)] = value
    return median_beat_from(matrix)


class TestKorsMatrix:
    def test_shape_and_finite(self):
        assert KORS_MATRIX.shape == (3, 8)
        assert np.all(np.isfinite(KORS_MATRIX))

    def test_transcription_matches_published_table(self):
        for (axis, lead), coeff in PUBLISHED.items():
            row = "xyz".index(axis)
            col = KORS_INPUT_LEADS.index(lead)
            assert KORS_MATRIX[row, col] == coeff, (axis, lead)

    def test_row_checksums(self):
        sums = KORS_MATRIX.sum(axis=1)
        np.testing.assert_allclose(sums, [0.96, 0.87, -0.75], atol=1e-12)


class TestKorsTransform:
    def test_zero_beat_maps_to_zero(self):
        vcg = kors_transform(median_beat_from(np.zeros((12, 30))))
        assert np.all(vcg.leads == 0)

    @pytest.mark.parametrize("lead", KORS_INPUT_LEADS)
    def test_unit_impulse_recovers_column(self, lead):
        vcg = kors_transform(impulse_beat(lead))
        col = KORS_INPUT_LEADS.index(lead)
        assert np.all(vcg.leads == KORS_MATRIX[:, col, None])

    def test_derived_limb_leads_are_ignored(self, rng):
        matrix = rng.normal(size=(12, 50))
        altered = matrix.copy()
        for name in ("III", "aVR", "aVL", "aVF"):
            altered[LEAD_NAMES.index(name)] = rng.normal(size=50)
        a = kors_transform(median_beat_from(matrix))
        b = kors_transform(median_beat_from(altered))
        np.testing.assert_array_equal(a.leads[0], b.leads[0])
        np.testing.assert_array_equal(a.leads[2], b.leads[2])

    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(-20, 20), b=st.floats(-20, 20), seed=st.integers(0, 2**31))
    def test_linearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        ma, mb = rng.normal(size=(12, 25)), rng.normal(size=(12, 25))
        va = kors_transform(median_beat_from(ma))
        vb = kors_transform(median_beat_from(mb))
        vc = kors_transform(median_beat_from(a * ma + b * mb))
        for axis in range(3):
            lhs = vc.leads[axis]
            rhs = a * va.leads[axis] + b * vb.leads[axis]
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_time_shift_equivariance(self, rng):
        matrix = rng.normal(size=(12, 60))
        shifted = np.roll(matrix, 7, axis=1)
        a = kors_transform(median_beat_from(matrix))
        b = kors_transform(median_beat_from(shifted))
        np.testing.assert_allclose(np.roll(a.leads[0], 7), b.leads[0], rtol=1e-12)
        np.testing.assert_allclose(np.roll(a.leads[1], 7), b.leads[1], rtol=1e-12)

    def test_fiducials_and_length_preserved(self, rng):
        beat = median_beat_from(rng.normal(size=(12, 44)))
        vcg = kors_transform(beat)
        assert vcg.n_samples == 44
        assert vcg.fiducials is beat.fiducials
        assert (vcg.sampling_rate_hz, vcg.rr_ms) == (beat.sampling_rate_hz, beat.rr_ms)


class TestBaselineCorrect:
    def test_constant_lead_becomes_zero(self):
        beat = median_beat_from(np.full((12, 40), 0.3))
        out = baseline_correct(beat)
        np.testing.assert_array_equal(out.leads, np.zeros((12, 40)))

    def test_zero_baseline_is_identity(self, rng):
        matrix = rng.normal(size=(12, 40))
        beat = median_beat_from(matrix)
        matrix_zeroed = matrix - matrix[:, [beat.fiducials.baseline]]
        beat0 = median_beat_from(matrix_zeroed, fiducials=beat.fiducials)
        out = baseline_correct(beat0)
        np.testing.assert_array_equal(out.leads, beat0.leads)

    def test_ramp_pointwise_subtraction(self):
        ramp = np.tile(np.linspace(-1.0, 1.0, 41), (12, 1))
        beat = median_beat_from(ramp)
        v = ramp[0, beat.fiducials.baseline]
        out = baseline_correct(beat)
        for lead in out.leads:
            np.testing.assert_allclose(lead, ramp[0] - v, rtol=0, atol=0)

    def test_idempotent(self, rng):
        beat = median_beat_from(rng.normal(size=(12, 40)))
        once = baseline_correct(beat)
        twice = baseline_correct(once)
        np.testing.assert_array_equal(once.leads, twice.leads)

