import numpy as np
import pytest

from ecgtriage.ecg_ingest import (
    Beat,
    EcgRecord,
    FiducialSet,
    MedianBeat,
    Wave,
)
from ecgtriage.vcg import Vcg


def record_from_matrix(matrix, fs=240.0):
    """EcgRecord from a (12, n) array of mV values."""
    return EcgRecord(leads=np.array(matrix, dtype=float), sampling_rate_hz=fs)


def simple_beat(center, p=True):
    """Beat with fixed relative landmarks around an absolute QRS-peak sample."""
    return Beat(
        baseline=center - 30,
        p=Wave(center - 60, center - 50, center - 40) if p else None,
        qrs=Wave(center - 10, center, center + 12),
        t=Wave(center + 30, center + 55, center + 80),
    )


def fiducials_at(centers, p=True):
    return FiducialSet(beats=tuple(simple_beat(c, p=p) for c in centers))


def median_beat_from(leads_window, fiducials=None, fs=240.0, rr_ms=900.0):
    """MedianBeat straight from a (12, n) window array, default landmarks."""
    leads_window = np.array(leads_window, dtype=float)
    n = leads_window.shape[1]
    if fiducials is None:
        fiducials = Beat(
            baseline=max(0, n // 4 - 10),
            p=None,
            qrs=Wave(n // 4, n // 3, n // 2),
            t=Wave(n // 2, 2 * n // 3, n - 2),
        )
    return MedianBeat(leads=leads_window, fiducials=fiducials, sampling_rate_hz=fs, rr_ms=rr_ms)


def vcg_from(xyz, fs=240.0, fiducials=None):
    """Vcg from a (3, n) array (or three rows) of x, y, z values in mV."""
    xyz = np.array(xyz, dtype=float)
    if fiducials is None:
        n = xyz.shape[1]
        fiducials = Beat(
            baseline=0, p=None,
            qrs=Wave(0, n // 3, n // 2),
            t=Wave(n // 2, 2 * n // 3, n - 1),
        )
    return Vcg(xyz=xyz, sampling_rate_hz=fs, fiducials=fiducials)


def random_vcg(rng, n=120, fs=240.0):
    return vcg_from(rng.normal(size=(3, n)), fs=fs)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def synth_cohort_dir(tmp_path_factory):
    """Small synthetic cohort with extracted features, shared across CLI tests."""
    from ecgtriage import cli
    from ecgtriage.synth import SynthConfig, generate

    root = tmp_path_factory.mktemp("synth_cohort")
    generate(SynthConfig(n_patients=40, seed=11, positive_fraction=0.3), root / "data")
    rc = cli.main([
        "extract", "--config", _write_cfg(root, root / "data"), "--out", str(root / "extract"),
    ])
    assert rc == 0
    return root


def _write_cfg(root, data_dir):
    cfg = root / "run.cfg"
    cfg.write_text(
        f"ecg_dir={data_dir}/ecg\n"
        f"fiducial_dir={data_dir}/fiducials\n"
        f"cohort_table={data_dir}/cohort.csv\n",
        encoding="utf-8",
    )
    return str(cfg)
