"""Per-patient input faults for the extract_dirty workload, and a fault probe.

Each fault kind edits one patient's trace or annotation file and carries the
outcome that `ecgtriage extract` should log for that patient (`ok`, `failed`
or `degenerate`, as in extract_log.txt). Trace faults sit in the second half
of the file, so a parser reads most of the file before it meets them.

The probe runs each kind alone on a tiny cohort, including the non-UTF-8 trace
that is kept out of the timed mix because it aborts the whole extract run, and
prints the expected and the actual outcome per kind:

    python3 perfbench/faults.py
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

N_HEADER_LINES = 2  # the sample-rate line and the column-name line written by synth


def _edit_late_row(ecg: Path, rng: random.Random, edit: Callable[[list[str]], None]):
    lines = ecg.read_text(encoding="utf-8").splitlines()
    n_rows = len(lines) - N_HEADER_LINES
    row = N_HEADER_LINES + rng.randrange(n_rows // 2, n_rows)
    cells = lines[row].split(",")
    edit(cells)
    lines[row] = ",".join(cells)
    ecg.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _edit_beats(fid: Path, edit: Callable[[list[dict]], None]):
    doc = json.loads(fid.read_text(encoding="utf-8"))
    edit(doc["beats"])
    fid.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def non_numeric_cell(ecg, fid, rng):
    def edit(cells):
        cells[rng.randrange(len(cells))] = "abc"
    _edit_late_row(ecg, rng, edit)


def short_row(ecg, fid, rng):
    _edit_late_row(ecg, rng, lambda cells: cells.pop())


def nan_sample(ecg, fid, rng):
    def edit(cells):
        cells[rng.randrange(len(cells))] = "nan"
    _edit_late_row(ecg, rng, edit)


def missing_fiducial(ecg, fid, rng):
    fid.unlink()


def too_few_beats(ecg, fid, rng):
    def drop(beats):
        del beats[2:]
    _edit_beats(fid, drop)


def overlapping_beats(ecg, fid, rng):
    def overlap(beats):
        beats[1]["baseline"] = beats[0]["t"]["offset"]
    _edit_beats(fid, overlap)


def fractional_landmark(ecg, fid, rng):
    def fractional(beats):
        beats[1]["t"]["peak"] += 0.9  # e.g. 20 -> 20.9: not an integer sample index
    _edit_beats(fid, fractional)


def exponent_first_row(ecg, fid, rng):
    """Valid file: no column-name line, first sample written as 1e-3."""
    lines = ecg.read_text(encoding="utf-8").splitlines()
    del lines[1]
    cells = lines[1].split(",")
    cells[0] = "1e-3"  # sample 0 lies before the first beat window
    lines[1] = ",".join(cells)
    ecg.write_text("\n".join(lines) + "\n", encoding="utf-8")


def non_utf8_trace(ecg, fid, rng):
    lines = ecg.read_bytes().split(b"\n")
    n_rows = len(lines) - 1 - N_HEADER_LINES
    row = N_HEADER_LINES + rng.randrange(n_rows // 2, n_rows)
    lines[row] = lines[row].replace(b",", b",\xff", 1)
    ecg.write_bytes(b"\n".join(lines))


@dataclass(frozen=True)
class FaultKind:
    name: str
    expected: str  # outcome extract_log.txt should record for the patient
    apply: Callable


TIMED_KINDS = tuple(FaultKind(fn.__name__, expected, fn) for fn, expected in (
    (non_numeric_cell, "failed"),
    (short_row, "failed"),
    (nan_sample, "failed"),
    (missing_fiducial, "failed"),
    (too_few_beats, "failed"),
    (overlapping_beats, "failed"),
    (fractional_landmark, "failed"),
    (exponent_first_row, "ok"),
))
# aborts the whole extract run today, so it would end every timed run
PROBE_ONLY_KINDS = (FaultKind("non_utf8_trace", "failed", non_utf8_trace),)


def annotation_outcome(fid: Path) -> str:
    """Outcome the synthetic annotations imply by themselves.

    synth can draw a short RR interval with a long QT, so that one beat's
    annotations reach into the next one's; the ingest format rejects beats
    that overlap, so such a patient is expected to fail.
    """
    spans = [(min(b["baseline"], (b["p"] or b["qrs"])["onset"]), max(b["baseline"], b["t"]["offset"]))
             for b in json.loads(Path(fid).read_text(encoding="utf-8"))["beats"]]
    return "failed" if any(cur[0] <= prev[1] for prev, cur in zip(spans, spans[1:])) else "ok"


def patient_ids(data_dir: Path) -> list[str]:
    return sorted(p.stem for p in (Path(data_dir) / "ecg").glob("*.csv"))


def inject(data_dir: Path, seed: int) -> dict[str, str]:
    """Fault a seeded half of the cohort, one kind per patient, kinds dealt in turn.

    Returns {patient id: expected outcome of its fault kind} for the faulted
    patients; the number of patients of each kind depends only on the cohort size.
    """
    data_dir = Path(data_dir)
    ids = patient_ids(data_dir)
    rng = random.Random(seed)
    faulted = {}
    for i, pid in enumerate(rng.sample(ids, len(ids) // 2)):
        kind = TIMED_KINDS[i % len(TIMED_KINDS)]
        kind.apply(data_dir / "ecg" / f"{pid}.csv", data_dir / "fiducials" / f"{pid}.json", rng)
        faulted[pid] = kind.expected
    return faulted


def expected_outcomes(data_dir: Path, faulted: dict[str, str]) -> dict[str, str]:
    """{patient id: expected outcome} for every patient of a synthetic cohort.

    A fault that should fail decides alone; otherwise (no fault, or one that
    leaves the annotations alone) the annotations decide.
    """
    fid_dir = Path(data_dir) / "fiducials"
    return {pid: "failed" if faulted.get(pid) == "failed" else annotation_outcome(fid_dir / f"{pid}.json")
            for pid in patient_ids(data_dir)}


def read_outcomes(log_path: Path) -> dict[str, str]:
    """{patient id: logged outcome} from an extract_log.txt."""
    outcomes = {}
    for line in Path(log_path).read_text(encoding="utf-8").splitlines():
        if line:
            pid, outcome, _ = line.split("\t", 2)
            outcomes[pid] = outcome
    return outcomes


def write_config(path: Path, data_dir: Path, **extra) -> Path:
    lines = [f"ecg_dir={data_dir / 'ecg'}", f"fiducial_dir={data_dir / 'fiducials'}",
             f"cohort_table={data_dir / 'cohort.csv'}"]
    lines += [f"{key}={value}" for key, value in extra.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def probe(work_dir: Path, seed: int = 0) -> list[dict]:
    """Run each fault kind alone on a tiny cohort; one row per kind.

    `actual` is the outcome logged for the faulted patient, or
    `aborted: <exception>` when the extract run ended without a log.
    """
    from ecgtriage import cli

    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    base = work_dir / "base"
    cli.main(["synth", "--config", str(write_config(work_dir / "synth.cfg", base, synth_n_patients=10)),
              "--seed", str(seed), "--out", str(base)])
    rows = []
    for kind in TIMED_KINDS + PROBE_ONLY_KINDS:
        data = work_dir / kind.name
        shutil.copytree(base, data)
        kind.apply(data / "ecg" / "p0001.csv", data / "fiducials" / "p0001.json", random.Random(seed))
        out = data / "out"
        cfg = write_config(data / "run.cfg", data)
        try:
            rc = cli.main(["extract", "--config", str(cfg), "--out", str(out)])
            actual = read_outcomes(out / "extract_log.txt").get("p0001", "missing")
        except Exception as exc:  # the defect under probe: one bad file ends the run
            rc, actual = None, f"aborted: {type(exc).__name__}"
        rows.append({"kind": kind.name, "expected": kind.expected, "actual": actual,
                     "rc": rc, "timed": kind in TIMED_KINDS})
        shutil.rmtree(data)
    return rows


def format_probe(rows: list[dict]) -> str:
    lines = [f"{'fault kind':<22} {'expected':<9} {'actual':<28} match"]
    for r in rows:
        mark = "yes" if r["actual"] == r["expected"] else "NO"
        lines.append(f"{r['kind']:<22} {r['expected']:<9} {r['actual']:<28} {mark}")
    return "\n".join(lines)


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "ecgtriage" / "cli.py").is_file():
        print("run from the root of an ecgtriage checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench_work" / "probe"
    shutil.rmtree(work, ignore_errors=True)
    try:
        print(format_probe(probe(work)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
