"""The demo's output bytes, pinned as SHA-256 digests in golden.json.

A change that moves any of these bytes on purpose updates golden.json and says
why. To write it afresh from the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

import ctypes
import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np

GOLDEN = Path(__file__).with_name("golden.json")


def environment() -> dict:
    """The numpy build, the SIMD targets its run-time dispatch picks on this CPU
    and the BLAS kernel: the run-time config of the OpenBLAS numpy bundles, or
    where that library is not there, the BLAS numpy was built against."""
    from numpy._core import _multiarray_umath as umath

    try:  # looked up through numpy's core module, which links the bundled OpenBLAS
        get_config = ctypes.CDLL(umath.__file__).scipy_openblas_get_config64_
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        blas = get_config().decode()
    except (AttributeError, OSError):
        build = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{build['name']} {build['version']} (build entry)"
    return {"numpy": np.__version__,
            "simd_baseline": list(umath.__cpu_baseline__),
            "simd_dispatched": [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]],
            "blas": blas}


def tree_digest(root: Path, names) -> str:
    """One SHA-256 over the relative paths and contents of the matching files, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for name in names for p in root.glob(name)):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def demo_digests(out: Path) -> dict:
    """SHA-256 of the synth, extract, table-one and train-eval outputs of the
    demo run into out (conftest.run_demo); the traces and annotations share
    one digest."""
    files = [out / "data" / "cohort.csv", out / "data" / "truth.csv",
             out / "features" / "features.csv", out / "features" / "extract_log.txt",
             out / "tables" / "table_one.json", *sorted((out / "models" / "reports").iterdir())]
    traces = ("data/ecg/*", "data/fiducials/*")
    return {",".join(traces): tree_digest(out, traces),
            **{f.relative_to(out).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
               for f in files}}


def test_demo_outputs_match_golden_digests(demo_dir):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    digests = demo_digests(demo_dir)
    differ = sorted(name for name in golden["digests"].keys() | digests.keys()
                    if golden["digests"].get(name) != digests.get(name))
    assert not differ, (
        f"demo outputs differ from {GOLDEN.name}: {', '.join(differ)}; recorded under "
        f"{golden['environment']}, this run under {environment()}")


def test_environment_falls_back_to_the_build_blas():
    with mock.patch.object(ctypes, "CDLL", lambda path: object()):
        assert environment()["blas"].endswith("(build entry)")


if __name__ == "__main__":
    import tempfile

    from conftest import run_demo

    with tempfile.TemporaryDirectory() as tmp:
        doc = {"environment": environment(), "digests": demo_digests(run_demo(Path(tmp) / "demo"))}
    GOLDEN.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
