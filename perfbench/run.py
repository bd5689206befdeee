"""ecgtriage benchmark: three workloads through the public CLI.

    python3 perfbench/run.py --workload extract_clean --seed 1 --seconds 6 --trace 0

Run from the root of a checkout. Workloads:

  extract_clean  synthesize a 300-patient cohort at criterion 9's 223:51 class
                 ratio (240 Hz x 7 s traces), then time `ecgtriage extract`.
  extract_dirty  the same cohort with one fault in each patient of a seeded
                 half (perfbench/faults.py), then time `ecgtriage extract`.
  protocol       extract the cohort during set-up, then time `table-one` and
                 `train-eval` (SRG and R, criterion 9's settings) for a fixed
                 set of master seeds.

--seed drives the synthetic cohort and the fault placement; the program sees
only the generated files. Each measurement runs in a fresh process
(perfbench/worker.py). With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 the same untraced measurement is made and
then repeated under tracing (perfbench/tracer.py), and the last line carries
the per-layer metrics. Metric definitions are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import faults
from worker import calibration_s, now

WORKLOADS = ("extract_clean", "extract_dirty", "protocol")
N_PATIENTS = 300
POSITIVE_FRACTION = 51 / 274
SETUP_REPEATS = 3
MIN_REPEATS = 3  # extract repetitions per run, at least
MAX_REPEATS = 40
# fixed on every commit: early stopping makes train-eval time depend strongly on them
MASTER_SEEDS = (1, 2)
PROTOCOL_SPECS = ("SRG", "R")
PROTOCOL_SETTINGS = {"eta_grid": "0.1,0.3", "k_folds": 5, "n_instances": 50,
                     "max_rounds": 150, "patience": 15, "max_depth": 4}
# calibration_s() at the reference speed, near its time on an idle core of the
# 2-vCPU virtual machine the benchmark was tuned on; times are rescaled to it, see scaled()
CALIBRATION_REF_S = 0.002
SAMPLE_INTERVAL_S = 0.1  # speed samples while a command runs
ANGLE_ERR_LIMIT_DEG = 10.0  # p95 bound of the extracted vs injected QRS-T angle
OVERHEAD_PAIRS = 3  # untraced/traced extract pairs behind trace_overhead_share
# trace_overhead_share below minus this is a timing fault, not a tracer that
# made the program faster: single pairs of identical extract runs differed by
# up to 0.12 in rescaled time, their median of three far less
OVERHEAD_NOISE = 0.15
WORKER_TIMEOUT_S = 170

# printed above the result line only: 0 or undefined on some workload
REPORT_UNITS = {"wall_s": "s", "scaled_wall_s": "s", "setup_raw_s": "s",
                "patients_per_s": "1/s", "failed_share": "ratio",
                "ok_patients": "count", "boosted_trees": "count", "nodes_grown": "count",
                "split_scans": "count",
                "auc_srg_median": "ratio", "auc_r_median": "ratio"}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_tree(root: Path, names=("**/*",)) -> str:
    """One digest over the relative paths and contents of the matching files."""
    digest = hashlib.sha256()
    files = {p for name in names for p in Path(root).glob(name) if p.is_file()}
    for path in sorted(files):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


# set-up outputs that must repeat byte for byte (the rest name their own paths)
SETUP_OUTPUTS = ("data/ecg/*", "data/fiducials/*", "data/cohort.csv", "data/truth.csv",
                 "features/features.csv", "features/extract_log.txt")


# --- set-up -----------------------------------------------------------------

def set_up(work: Path, src: Path, workload: str, seed: int, index: int) -> dict:
    """Generate the inputs once; returns their location, digest and duration.

    synth (and for protocol, extract) run in a worker started inside the
    set-up directory with relative paths, so that no output that is compared
    (extract_log.txt messages name files) holds the path of the run's working
    directory. Fault injection is benchmark code and is not timed.
    """
    root = work / f"setup{index}"
    root.mkdir(parents=True)
    faults.write_config(root / "run.cfg", Path("data"), synth_n_patients=N_PATIENTS,
                        synth_positive_fraction=repr(POSITIVE_FRACTION))
    commands = [["synth", "--config", "run.cfg", "--seed", str(seed), "--out", "data"]]
    if workload == "protocol":
        commands.append(["extract", "--config", "run.cfg", "--out", "features"])
    res = run_worker(work, root.name, src, root, commands, trace=False)
    for cmd in res["commands"]:
        if cmd["rc"] != 0:
            raise RuntimeError(f"set-up command {cmd['argv'][0]} ended with {cmd['rc']} {cmd['error'] or ''}")
    faulted = faults.inject(root / "data", seed) if workload == "extract_dirty" else {}
    return {"root": root, "data": root / "data",
            "raw_seconds": math.fsum(cmd["wall_s"] for cmd in res["commands"]),
            "seconds": math.fsum(scaled(cmd) for cmd in res["commands"]),
            "expected": faults.expected_outcomes(root / "data", faulted),
            "digest": sha256_tree(root, SETUP_OUTPUTS)}


# --- measurement ------------------------------------------------------------

def run_worker(work: Path, name: str, src: Path, cwd: Path, commands: list[list[str]],
               trace: bool) -> dict:
    """Run CLI commands in a fresh worker process started in `cwd`.

    Every SAMPLE_INTERVAL_S the worker's process group is stopped while
    calibration_s() runs here, so that each sample sees how fast the shared
    CPUs run at that moment without competing with the program, however many
    processes the program runs. The worker leaves the pauses out of its
    times (worker.clock). Each command gets `speed_samples`: the worker's
    samples just before and after it and, for each pause while it ran, the
    sample of the CPU the worker went on on.
    """
    job = work / f"{name}.job.json"
    out = work / f"{name}.result.json"
    paused_file = work / f"{name}.paused"
    paused_file.write_bytes(struct.pack("d", 0.0))
    job.write_text(json.dumps({"src": str(src), "trace": trace, "paused_file": str(paused_file),
                               "commands": commands}))
    pauses = []  # see paused_sample
    pause_fd = os.open(paused_file, os.O_WRONLY)
    with open(work / f"{name}.log", "w", encoding="utf-8") as log:
        proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("worker.py")),
                                 str(job), str(out)], cwd=cwd, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            started = next_sample = now()
            paused = 0.0
            # WNOWAIT leaves the ended worker unreaped, so its process group
            # cannot be reused before the killpg below
            while os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
                if now() - started > WORKER_TIMEOUT_S:
                    raise RuntimeError(f"worker {name} ran over {WORKER_TIMEOUT_S} s")
                if now() >= next_sample:
                    pauses.append(paused_sample(proc.pid, pause_fd, paused))
                    paused = pauses[-1][2]
                    next_sample = pauses[-1][1] + SAMPLE_INTERVAL_S
                time.sleep(0.01)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)  # the worker and any process it left running
            proc.wait()
            os.close(pause_fd)
    if proc.returncode != 0 or not out.exists():
        tail = (work / f"{name}.log").read_text(errors="replace").splitlines()[-20:]
        raise RuntimeError(f"worker {name} exited {proc.returncode}:\n" + "\n".join(tail))
    result = json.loads(out.read_text())
    resumed_on = {paused: cpu for paused, cpu in result["resumed_on"]}
    for cmd in result["commands"]:
        during = [pause_speed(p, resumed_on) for p in pauses if p[0] < cmd["end"] and p[1] > cmd["start"]]
        cmd["speed_samples"] = [cmd["before_s"], *during, cmd["after_s"]]
    return result


def paused_sample(pgid: int, pause_fd: int, paused_before: float) -> list:
    """Stop the process group, time calibration_s() on each CPU this process
    may use, write the group's new paused total for worker.follow_pauses,
    let the group go on. Returns [start, end, paused total, {CPU: seconds}]."""
    start = now()
    os.killpg(pgid, signal.SIGSTOP)
    cpus = sorted(os.sched_getaffinity(0))
    try:
        seconds = {}
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            seconds[cpu] = calibration_s()
    finally:
        os.sched_setaffinity(0, cpus)
        end = now()
        paused = paused_before + end - start
        os.pwrite(pause_fd, struct.pack("d", paused), 0)
        os.killpg(pgid, signal.SIGCONT)
    return [start, end, paused, seconds]


def pause_speed(pause: list, resumed_on: dict) -> float:
    """The sample of the CPU the worker resumed on after the pause; where the
    worker did not note it, the mean speed over the CPUs, as one sample."""
    seconds = pause[3]
    cpu = resumed_on.get(pause[2])
    if cpu in seconds:
        return seconds[cpu]
    return 1.0 / statistics.fmean(1.0 / x for x in seconds.values())


def angle_errors(features_csv: Path, truth_csv: Path) -> list[float]:
    """|extracted - injected| peak QRS-T angle over patients with features."""
    with open(truth_csv, newline="", encoding="utf-8") as fh:
        truth = {r["id"]: float(r["qrst_angle_deg"]) for r in csv.DictReader(fh)}
    with open(features_csv, newline="", encoding="utf-8") as fh:
        return [abs(float(r["peak_qrst_angle_deg"]) - truth[r["id"]])
                for r in csv.DictReader(fh) if r["peak_qrst_angle_deg"]]


def p95(values) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), 95)) if values else math.inf


def scaled(cmd: dict) -> float:
    """A command's wall time rescaled to the reference CPU speed.

    Its speed samples time the same fixed loop (worker.calibration_s) just
    before, every SAMPLE_INTERVAL_S during, and just after it, and so measure
    how fast the shared CPU ran meanwhile. On the virtual machine this
    benchmark was tuned on, identical reruns ran up to 1.6x slower from one
    second to the next, in CPU time as much as in wall time. The program's
    work is its wall time times its mean speed, and the speed is the inverse
    of a sample, so samples are averaged as rates.
    """
    return cmd["wall_s"] * CALIBRATION_REF_S * statistics.fmean(1.0 / x for x in cmd["speed_samples"])


def overhead_share(pairs: list[tuple[list[dict], list[dict]]], checks: "Checks") -> float:
    """Median over (untraced, traced) pairs of passes over the same commands
    of their traced / untraced rescaled time, less 1.

    Both passes of a pair are timed the same way, back to back, untraced first.
    """
    share = statistics.median(math.fsum(map(scaled, traced)) / math.fsum(map(scaled, base))
                              for base, traced in pairs) - 1.0
    checks.require(share >= -OVERHEAD_NOISE,
                   f"traced commands ran {-share:.1%} faster than untraced ones")
    return share


class Checks:
    """Correctness findings of one run; any failure makes the run incorrect."""

    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok: bool, message: str):
        if not ok:
            self.failures.append(message)


def measure_extract(work, src, setup, seconds, trace, checks) -> dict:
    patients = len(setup["expected"])
    walls, rescaled, rss, digests = [], [], [], []

    def one_rep(tag, traced):
        res = run_worker(work, f"rep{tag}", src, setup["root"],
                         [["extract", "--config", "run.cfg", "--out", f"rep{tag}"]], traced)
        out = setup["root"] / f"rep{tag}"
        cmd = res["commands"][0]
        checks.require(cmd["rc"] == 0, f"extract rep {tag} ended with {cmd['rc']} {cmd['error'] or ''}")
        digests.append({name: sha256_file(out / name) if (out / name).exists() else None
                        for name in ("features.csv", "extract_log.txt")})
        return res, cmd, out

    first_out = None
    while len(walls) < MIN_REPEATS or (math.fsum(walls) < seconds and len(walls) < MAX_REPEATS):
        res, cmd, out = one_rep(len(walls), False)
        walls.append(cmd["wall_s"])
        rescaled.append(scaled(cmd))
        rss.append(res["peak_rss_mb"])
        if first_out is None:
            first_out = out
        else:
            shutil.rmtree(out)

    log_path = first_out / "extract_log.txt"
    outcomes = faults.read_outcomes(log_path) if log_path.exists() else {}
    mismatched = sum(outcomes.get(pid) != want for pid, want in setup["expected"].items())
    errors = (angle_errors(first_out / "features.csv", setup["data"] / "truth.csv")
              if (first_out / "features.csv").exists() else [])
    checks.require(len(errors) > 0, "no patient was extracted")
    err_p95 = p95(errors)
    checks.require(err_p95 <= ANGLE_ERR_LIMIT_DEG,
                   f"QRS-T angle error p95 {err_p95:.2f} deg exceeds {ANGLE_ERR_LIMIT_DEG}")

    wall = statistics.median(walls)
    scaled_wall = statistics.fmean(rescaled)
    result = {
        "attempted": patients * len(walls),
        "failed": mismatched * len(walls),
        "fingerprint": digests[0],
        "metrics": {
            "ms_per_item": 1000.0 * scaled_wall / patients,
            "peak_rss_mb": statistics.median(rss),
            "qrst_angle_err_deg_p95": err_p95,
        },
        "walls": walls,
        "report": {"wall_s": wall, "scaled_wall_s": scaled_wall, "patients_per_s": patients / wall,
                   "failed_share": mismatched / patients, "ok_patients": len(errors)},
    }
    if trace:
        pairs, layers = [], None
        for i in range(OVERHEAD_PAIRS):
            pair = []
            for tag, is_traced in ((f"base{i}", False), (f"traced{i}", True)):
                res, cmd, out = one_rep(tag, is_traced)
                pair.append([cmd])
                shutil.rmtree(out)
            pairs.append(pair)
            layers = layers or res["layers"]
        # no model is trained here, so the AUC medians read 0
        result["layers"] = per_layer(layers, overhead_share(pairs, checks), {"SRG": 0.0, "R": 0.0})
    checks.require(all(d == digests[0] for d in digests),
                   "extract outputs differ between repetitions of one run")
    return result


def per_layer(layers: dict, overhead: float, auc_median: dict) -> dict:
    """Traced layer metrics plus the two that come from outside the trace."""
    return dict(layers, trace_overhead_share=overhead,
                **{"pipeline.auc_srg_median": auc_median["SRG"], "pipeline.auc_r_median": auc_median["R"]})


def boosted_trees(report: dict, settings: dict) -> int:
    """Trees one evaluate_model call grows, read from its report.

    A cross-validation fold stops `patience` rounds after its best round (or at
    max_rounds); each of the n_instances representatives grows chosen_rounds.
    """
    tuning = report["tuning"]
    cv = sum(min(best + settings["patience"], settings["max_rounds"])
             for entry in tuning["grid"] for best in entry["fold_rounds"])
    return cv + settings["n_instances"] * tuning["chosen_rounds"]


def read_reports(out: Path, checks: Checks) -> dict | None:
    """Parsed reports of one train-eval run, or None when any is missing or invalid."""
    try:
        summary = json.loads((out / "reports" / "summary.json").read_text())
        reports = {label: json.loads((out / "reports" / f"report_{label}.json").read_text())
                   for label in PROTOCOL_SPECS}
    except (OSError, json.JSONDecodeError) as exc:
        checks.require(False, f"{out.name}: unreadable report ({exc})")
        return None
    ok = summary.get("winner") in PROTOCOL_SPECS and len(summary.get("rows", [])) == len(PROTOCOL_SPECS)
    for label, rep in reports.items():
        metrics = rep.get("metrics", {})
        ok &= rep.get("format") == "eval-report/1" and rep.get("model") == label
        ok &= all(0.0 <= metrics.get(k, -1.0) <= 1.0 for k in ("auc", "aucpr", "sensitivity", "specificity"))
        ok &= len(rep["selection"]["auc_log"]) == PROTOCOL_SETTINGS["n_instances"]
    checks.require(ok, f"{out.name}: report fails validation")
    return {"summary": summary, "reports": reports} if ok else None


def protocol_commands(setup, tag: str, master_seeds) -> list[list[str]]:
    """Commands relative to the set-up directory."""
    settings = dict(PROTOCOL_SETTINGS, specs=",".join(PROTOCOL_SPECS),
                    cohort_table="features/features.csv")
    (setup["root"] / "train.cfg").write_text(
        "".join(f"{key}={value}\n" for key, value in settings.items()), encoding="utf-8")
    commands = [["table-one", "--config", "train.cfg", "--out", f"{tag}-table"]]
    commands += [["train-eval", "--config", "train.cfg", "--seed", str(m), "--out", f"{tag}-m{m}"]
                 for m in master_seeds]
    return commands


def protocol_fingerprint(out: Path) -> dict:
    return {name: sha256_file(out / "reports" / name) if (out / "reports" / name).exists() else None
            for name in ("report_SRG.json", "summary.json")}


def protocol_pass(work, src, setup, tag, master_seeds, trace, checks) -> dict:
    """table-one, then train-eval per master seed, in one fresh process."""
    res = run_worker(work, tag, src, setup["root"], protocol_commands(setup, tag, master_seeds), trace)
    for cmd in res["commands"]:
        checks.require(cmd["rc"] == 0, f"{cmd['argv'][0]} ended with {cmd['rc']} {cmd['error'] or ''}")
    trees, failed, fingerprint = 0, 0, {}
    aucs = {label: [] for label in PROTOCOL_SPECS}
    for m in master_seeds:
        out = setup["root"] / f"{tag}-m{m}"
        fingerprint[f"m{m}"] = protocol_fingerprint(out)
        parsed = read_reports(out, checks)
        if parsed is None:
            failed += len(PROTOCOL_SPECS)
            continue
        for label, rep in parsed["reports"].items():
            trees += boosted_trees(rep, PROTOCOL_SETTINGS)
            aucs[label].append(rep["metrics"]["auc"])
    checks.require(res["nodes"] > 0, "no model was trained")
    checks.require(res["trees"] == trees, f"Booster.step returned {res['trees']} trees, "
                                          f"the reports account for {trees}")
    return {"res": res, "walls": [cmd["wall_s"] for cmd in res["commands"]],
            "scaled": [scaled(cmd) for cmd in res["commands"]],
            "trees": trees,
            "failed": failed, "fingerprint": fingerprint,
            "auc_median": {label: statistics.median(v) if v else 0.0 for label, v in aucs.items()}}


def measure_protocol(work, src, setup, seconds, trace, checks) -> dict:
    """One pass over the fixed master seeds; the work is fixed, so `seconds` is unused.

    A traced run times the untraced baseline for trace_overhead_share on
    table-one and the first master seed only, to stay well inside the run's
    time limit.
    """
    if trace:
        base = protocol_pass(work, src, setup, "base", MASTER_SEEDS[:1], False, checks)
        run = protocol_pass(work, src, setup, "traced", MASTER_SEEDS, True, checks)
        checks.require(run["fingerprint"]["m1"] == base["fingerprint"]["m1"],
                       "traced train-eval output differs from untraced")
    else:
        run = protocol_pass(work, src, setup, "run", MASTER_SEEDS, False, checks)
    wall = math.fsum(run["walls"])
    scaled_wall = math.fsum(run["scaled"])
    features = setup["root"] / "features" / "features.csv"
    err_p95 = p95(angle_errors(features, setup["data"] / "truth.csv"))
    checks.require(err_p95 <= ANGLE_ERR_LIMIT_DEG,
                   f"QRS-T angle error p95 {err_p95:.2f} deg exceeds {ANGLE_ERR_LIMIT_DEG}")
    models = len(MASTER_SEEDS) * len(PROTOCOL_SPECS)
    result = {
        "attempted": models,
        "failed": run["failed"],
        # the counts too: a change in them means model behaviour changed
        "fingerprint": dict(run["fingerprint"], boosted_trees=run["trees"], nodes_grown=run["res"]["nodes"],
                            **{"features.csv": sha256_file(features)}),
        "metrics": {
            # per feature scanned at a node searched for a split: the cost of one
            # such scan varies far less between cohorts than that of a node or a tree
            "ms_per_item": 1000.0 * scaled_wall / max(run["res"]["split_scans"], 1),
            "peak_rss_mb": run["res"]["peak_rss_mb"],
            "qrst_angle_err_deg_p95": err_p95,
        },
        "walls": run["walls"],
        "report": {"wall_s": wall, "scaled_wall_s": scaled_wall, "boosted_trees": run["trees"],
                   "nodes_grown": run["res"]["nodes"], "split_scans": run["res"]["split_scans"],
                   "patients_per_s": N_PATIENTS * len(MASTER_SEEDS) / wall,
                   "failed_share": run["failed"] / models,
                   "auc_srg_median": run["auc_median"]["SRG"], "auc_r_median": run["auc_median"]["R"]},
    }
    if trace:
        compared = len(base["res"]["commands"])  # table-one and the first master seed
        overhead = overhead_share([(base["res"]["commands"], run["res"]["commands"][:compared])], checks)
        result["layers"] = per_layer(run["res"]["layers"], overhead, run["auc_median"])
    return result


# --- fingerprints across runs -----------------------------------------------

def compare_fingerprints(state: Path, code: str, workload: str, seed: int, fingerprint: dict,
                         checks: Checks) -> list[str]:
    """Compare this run's output digests with earlier runs and trajectory points.

    A different digest from the same code (program and benchmark) fails the
    run; one from other code is only reported. The run is then recorded.
    """
    store_path = state / "fingerprints.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    key = f"{workload}/{seed}"
    known = [(other, entries.get(key)) for other, entries in store.items()]
    for path in sorted(Path(__file__).with_name("trajectory").glob("*.json")):
        point = json.loads(path.read_text())
        meta = point["meta"]
        known.append((f"{meta['src_sha256'][:16]}+{meta['bench_sha256'][:16]} ({path.name})",
                      point["workloads"].get(workload, {}).get("fingerprints", {}).get(str(seed))))
    notes = []
    for other, previous in known:
        if previous is None or previous == fingerprint:
            continue
        if other.split(" ")[0] == code:
            checks.require(False, f"outputs differ from an earlier run of the same code ({key})")
        else:
            notes.append(f"outputs differ from code {other} on {key} (there -> here): "
                         + json.dumps({k: [previous.get(k), v] for k, v in fingerprint.items()
                                       if previous.get(k) != v}))
    store.setdefault(code, {})[key] = fingerprint
    tmp = store_path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)
    return notes


# --- metadata ---------------------------------------------------------------

def run_metadata(root: Path, workload: str, seed: int) -> dict:
    import numpy
    import scipy

    src = root / "src"
    py_files = sorted(src.rglob("*.py"))
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
                                text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout
    return {
        "workload": workload,
        "seed": seed,
        "master_seeds": list(MASTER_SEEDS) if workload == "protocol" else [],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": sha256_tree(src),
        "bench_sha256": sha256_tree(Path(__file__).parent, ("*.py",)),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in py_files),
    }


# --- entry point ------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "ecgtriage" / "cli.py").is_file():
        print(f"no ecgtriage sources under {src}: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    state = root / ".perfbench_state"
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    state.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    checks = Checks()
    try:
        setups = [set_up(work, src, args.workload, args.seed, i) for i in range(SETUP_REPEATS)]
        checks.require(len({s["digest"] for s in setups}) == 1, "set-up repetitions produced different inputs")
        for extra in setups[1:]:
            shutil.rmtree(extra["root"])
        measure = measure_protocol if args.workload == "protocol" else measure_extract
        result = measure(work, src, setups[0], args.seconds, bool(args.trace), checks)
        probe = None
        if args.workload == "extract_dirty":
            probe = faults.probe(work / "probe", seed=args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = run_metadata(root, args.workload, args.seed)
    code = f"{meta['src_sha256'][:16]}+{meta['bench_sha256'][:16]}"
    notes = compare_fingerprints(state, code, args.workload, args.seed,
                                 result["fingerprint"], checks)
    metrics = dict(result["metrics"], setup_s=statistics.median(s["seconds"] for s in setups))
    result["report"]["setup_raw_s"] = statistics.median(s["raw_seconds"] for s in setups)

    print(f"meta {json.dumps(meta)}")
    print(f"fingerprint {json.dumps(result['fingerprint'])}")
    for note in notes:
        print(f"note {note}")
    if probe is not None:
        print(faults.format_probe(probe))
    bench = json.loads((root / "BENCHMARK.json").read_text())
    if args.trace:
        listed, values = bench["per_layer"], result["layers"]
    else:
        listed, values = bench["end_to_end"], metrics
        units = dict({m["name"]: m["unit"] for m in listed}, **REPORT_UNITS)
        for name, value in sorted({**metrics, **result["report"]}.items()):
            print(f"{name:<26} {value:>14.6g} {units[name]}")
    out_metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    if args.trace:
        for name, m in out_metrics.items():
            print(f"{name:<40} {m['value']:>14.6g} {m['unit']}")
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")

    record = {"meta": meta, "metrics": metrics, "report": result["report"],
              "fingerprint": result["fingerprint"], "probe": probe, "layers": result.get("layers"),
              "walls": result["walls"], "checks": checks.failures}
    runs = state / "runs"
    runs.mkdir(exist_ok=True)
    record_path = runs / f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}.json"
    record_path.write_text(json.dumps(record, indent=1))
    print(f"record {record_path.relative_to(root)}")
    print(json.dumps({"correct": not checks.failures, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
