"""One bad patient never aborts a cohort run, and never moves another patient.

A 12-patient synth cohort is extracted once clean. Each seeded case then applies
1-3 mutations to one patient's trace or annotation file: a bit flip, a
truncation, a deleted byte, or an inserted token (nan, inf, a non-UTF-8 byte,
CR, NUL, "," or a newline). extract must end with exit 0; every other patient
keeps its features.csv row and extract_log.txt line byte for byte; the mutated
patient is ok, or failed or degenerate with every measure empty. A second group
mutates cohort.csv or the config file, where extract must end with exit 0, 2 or
3 and raise nothing.
"""

import csv

import numpy as np
import pytest

from ecgtriage import cli
from ecgtriage.cohort import GEH_COLUMNS, STANDARD_COLUMNS
from ecgtriage.synth import SynthConfig, generate

TOKENS = (b"nan", b"inf", b"\xff", b"\r", b"\x00", b",", b"\n")
PATIENT_CASES = 100
TABLE_CASES = 40


def mutate(data: bytes, rng) -> bytes:
    for _ in range(int(rng.integers(1, 4))):
        pos = int(rng.integers(0, len(data) + 1))
        kind = int(rng.integers(0, 4))
        if kind == 0 and pos < len(data):
            data = data[:pos] + bytes([data[pos] ^ (1 << int(rng.integers(0, 8)))]) + data[pos + 1:]
        elif kind == 1:
            data = data[:pos]
        elif kind == 2:
            data = data[:pos] + data[pos + 1:]
        else:
            data = data[:pos] + TOKENS[int(rng.integers(0, len(TOKENS)))] + data[pos:]
    return data


def by_id(path, sep):
    """Each line of a features table or extract log, keyed by its patient id."""
    lines = path.read_bytes().split(b"\n")
    return {line.split(sep, 1)[0].decode(): line for line in lines[1 if sep == b"," else 0:] if line}


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("locality")
    generate(SynthConfig(n_patients=12, seed=5, positive_fraction=0.3), root / "data")
    cfg = root / "run.cfg"
    cfg.write_text(f"ecg_dir={root / 'data' / 'ecg'}\nfiducial_dir={root / 'data' / 'fiducials'}\n"
                   f"cohort_table={root / 'data' / 'cohort.csv'}\n", encoding="utf-8")
    assert cli.main(["extract", "--config", str(cfg), "--out", str(root / "clean")]) == 0
    return root, cfg


def extract(cfg, out):
    return cli.main(["extract", "--config", str(cfg), "--out", str(out)])


@pytest.mark.parametrize("case", range(PATIENT_CASES))
def test_one_mutated_patient_stays_local(cohort, tmp_path, case):
    root, cfg = cohort
    rng = np.random.default_rng((2024, case))
    ids = sorted(by_id(root / "clean" / "extract_log.txt", b"\t"))
    patient = ids[int(rng.integers(0, len(ids)))]
    path = (root / "data" / "ecg" / f"{patient}.csv" if rng.integers(0, 2)
            else root / "data" / "fiducials" / f"{patient}.json")
    clean = path.read_bytes()
    path.write_bytes(mutate(clean, rng))
    try:
        assert extract(cfg, tmp_path / "out") == 0
    finally:
        path.write_bytes(clean)

    for name, sep in (("features.csv", b","), ("extract_log.txt", b"\t")):
        before, after = by_id(root / "clean" / name, sep), by_id(tmp_path / "out" / name, sep)
        assert before.keys() == after.keys()
        assert {k: v for k, v in after.items() if k != patient} == \
               {k: v for k, v in before.items() if k != patient}, name
    status = by_id(tmp_path / "out" / "extract_log.txt", b"\t")[patient].split(b"\t")[1]
    assert status in (b"ok", b"failed", b"degenerate")
    if status != b"ok":
        with open(tmp_path / "out" / "features.csv", newline="", encoding="utf-8") as fh:
            [row] = [r for r in csv.DictReader(fh) if r["id"] == patient]
        assert all(row[c] == "" for c in STANDARD_COLUMNS + GEH_COLUMNS), row


@pytest.mark.parametrize("case", range(TABLE_CASES))
def test_mutated_cohort_table_or_config_ends_in_an_exit_code(cohort, tmp_path, case):
    root, cfg = cohort
    rng = np.random.default_rng((2025, case))
    path = root / "data" / "cohort.csv" if case % 2 else cfg
    clean = path.read_bytes()
    path.write_bytes(mutate(clean, rng))
    try:
        assert extract(cfg, tmp_path / "out") in (0, 2, 3)
    finally:
        path.write_bytes(clean)
