import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ecgtriage import cli, ecg_ingest
from ecgtriage.ecg_ingest import (
    Beat,
    EcgRecord,
    FiducialSet,
    MedianBeat,
    Wave,
)
from ecgtriage.synth import SynthConfig, generate


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
    """X/Y/Z MedianBeat from a (3, n) array (or three rows) of x, y, z values in mV."""
    xyz = np.array(xyz, dtype=float)
    if fiducials is None:
        n = xyz.shape[1]
        fiducials = Beat(
            baseline=0, p=None,
            qrs=Wave(0, n // 3, n // 2),
            t=Wave(n // 2, 2 * n // 3, n - 1),
        )
    return median_beat_from(xyz, fiducials=fiducials, fs=fs)


def random_vcg(rng, n=120, fs=240.0):
    return vcg_from(rng.normal(size=(3, n)), fs=fs)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def synth_cohort_dir(tmp_path_factory):
    """Small synthetic cohort with extracted features, shared across CLI tests."""
    root = tmp_path_factory.mktemp("synth_cohort")
    generate(SynthConfig(n_patients=40, seed=11, positive_fraction=0.3), root / "data")
    extract(root / "data", root / "extract")
    return root


ROOT = Path(__file__).parents[1]
DEMO = ROOT / "scripts" / "run_synthetic_experiment.py"
SEED1_COHORT = SynthConfig(n_patients=300, positive_fraction=51 / 274, seed=1)


def run_python(args, **env):
    """Run python with args in a fresh process, src/ and perfbench/ on its
    path and env added to its environment; asserts that it exits 0."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    done = subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr


def counted(fn, log):
    """fn, appending one line to the file log per call: the line count sees
    the calls of every process, synth's pool workers included."""
    def call(*args):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write("call\n")
        return fn(*args)
    return call


def call_count(log) -> int:
    return len(log.read_text(encoding="utf-8").splitlines()) if log.exists() else 0


def assert_same_bytes(a, b, names=None):
    """Each of names holds the same bytes under a and b; with no names, as
    diff -r: the same paths under both, and every file the same bytes."""
    if names is None:
        names = sorted(p.relative_to(a) for p in a.rglob("*"))
        assert names == sorted(p.relative_to(b) for p in b.rglob("*"))
    for name in names:
        if (a / name).is_file():
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def run_demo(out):
    """Run the demo into out (60 patients, 2 instances) in a fresh process with
    every warning an error, import-time ones included; returns out."""
    run_python(["-W", "error", str(DEMO), "--out", str(out), "--n-patients", "60", "--n-instances", "2"])
    return out


def extract(data_dir, out):
    """Extract a synth cohort into out, configured by the file out.cfg beside
    it; returns the number of trace rows read one at a time by float()."""
    cfg = out.parent / f"{out.name}.cfg"
    cfg.write_text(f"ecg_dir={data_dir}/ecg\nfiducial_dir={data_dir}/fiducials\n"
                   f"cohort_table={data_dir}/cohort.csv\n", encoding="utf-8")
    read_row, rows = ecg_ingest._read_row, []  # not a Mock: ~10 us a call over 504k rows
    with pytest.MonkeyPatch.context() as mp:  # rows keeps None per call, not the call's line
        mp.setattr(ecg_ingest, "_read_row", lambda *args: rows.append(None) or read_row(*args))
        assert cli.main(["extract", "--config", str(cfg), "--out", str(out)]) == 0
    return len(rows)


@pytest.fixture(scope="session")
def demo_dir(tmp_path_factory):
    return run_demo(tmp_path_factory.mktemp("demo") / "demo")


@pytest.fixture(scope="session")
def seed1_cohort(tmp_path_factory):
    """SEED1_COHORT in data/ and its faults.inject(..., 1) copy in faulted/, each
    extracted; rows_read holds each extract's count of rows read by float()."""
    import faults  # perfbench/ is on pytest's pythonpath, not on test_golden.py's as a script

    root = tmp_path_factory.mktemp("seed1")
    generate(SEED1_COHORT, root / "data")
    shutil.copytree(root / "data", root / "faulted")
    faults.inject(root / "faulted", 1)
    rows_read = {"data": extract(root / "data", root / "features"),
                 "faulted": extract(root / "faulted", root / "faulted-features")}
    return SimpleNamespace(data=root / "data", faulted=root / "faulted", features=root / "features",
                           faulted_features=root / "faulted-features", rows_read=rows_read)
