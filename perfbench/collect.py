"""Run the benchmark over several seeds and summarise it as one trajectory point.

    python3 perfbench/collect.py --seeds 1-10 [--workloads protocol] \
        [--traced-seeds 1] [--out perfbench/trajectory/BENCH_1.json] \
        [--baseline perfbench/trajectory/BENCH_0.json]

Run from the root of a checkout; exits 1 when any run fails a correctness
check. Each run's printed metrics are echoed. Each end-to-end metric gets its median,
quartiles and spread, the distance between the quartiles as a share of the
median, next to the bound BENCHMARK.json fixes for it, and its change from
the baseline's median (by default the newest trajectory point). Beside them,
the median rescaled time of the timed commands and, per seed, any change in
the boosted trees and nodes grown: protocol's ms_per_item is per feature
scanned for a split, so a change that grows more nodes at the same cost per
scan shows only there. The
output file also keeps the run metadata, every run's output fingerprints
(with the tree and node counts) and the per-layer metrics of the traced runs,
so a later commit can be compared against it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record_line = next(line for line in lines if line.startswith("record "))
    record = json.loads(Path(record_line.split(" ", 1)[1]).read_text())
    print(f"{workload} seed {seed} trace {trace}")
    for line in lines[:-1]:
        if not line.startswith(("meta ", "fingerprint ", "record ")):
            print(f"    {line}")
    return {"result": json.loads(lines[-1]), "record": record}


def newest_point(exclude: Path | None) -> Path | None:
    points = [p for p in Path(__file__).with_name("trajectory").glob("BENCH_*.json")
              if exclude is None or p.resolve() != exclude.resolve()]
    return max(points, key=lambda p: int(p.stem.split("_")[1]), default=None)


def compare(summary: dict, base: dict):
    """Print the changes from a baseline workload summary."""
    for name, s in summary["end_to_end"].items():
        before = base["end_to_end"].get(name, {}).get("median")
        if before:
            print(f"  {name:<26} baseline {before:>11.5g}  change {s['median'] / before - 1:+.2%}")
    before = base["report"].get("scaled_wall_s")
    if before:
        print(f"  {'scaled_wall_s':<26} baseline {before:>11.5g}  "
              f"change {summary['report']['scaled_wall_s'] / before - 1:+.2%}")
    for seed, fingerprint in summary["fingerprints"].items():
        previous = base["fingerprints"].get(seed, {})
        for name in ("boosted_trees", "nodes_grown"):
            if name in fingerprint and previous.get(name) != fingerprint[name]:
                print(f"  CHANGED seed {seed} {name}: {previous.get(name)} -> {fingerprint[name]}")


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", help="comma list; default: all in BENCHMARK.json")
    parser.add_argument("--traced-seeds", default="", help="seeds to run once more with --trace 1")
    parser.add_argument("--out", type=Path, help="write the trajectory point here")
    parser.add_argument("--baseline", type=Path, help="trajectory point to compare with; "
                        "default: the newest one other than --out")
    args = parser.parse_args(argv)
    baseline_path = args.baseline or newest_point(args.out)
    baseline = json.loads(baseline_path.read_text()) if baseline_path else {"workloads": {}}

    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    traced_seeds = parse_seeds(args.traced_seeds) if args.traced_seeds else []
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    point = {"run_seconds": bench["run_seconds"], "seeds": seeds, "meta": None, "workloads": {}}
    for workload in workloads:
        runs = [run_once(bench, workload, seed, 0) for seed in seeds]
        point["meta"] = point["meta"] or runs[0]["record"]["meta"]
        summary = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "end_to_end": {},
            "report": {},
            "fingerprints": {str(s): r["record"]["fingerprint"] for s, r in zip(seeds, runs)},
            "per_layer": {},
        }
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary["end_to_end"][name] = dict(spread(values), bound=bounds[name])
        for name in runs[0]["record"]["report"]:
            summary["report"][name] = statistics.median(r["record"]["report"][name] for r in runs)
        for seed in traced_seeds:
            traced = run_once(bench, workload, seed, 1)
            summary["correct"] &= traced["result"]["correct"]
            summary["per_layer"][str(seed)] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        point["workloads"][workload] = summary

        print(f"{workload}: correct={summary['correct']} failed={summary['failed']}")
        for name, s in summary["end_to_end"].items():
            flag = "ok" if s["spread"] < s["bound"] / 3 else ("WIDE" if s["spread"] <= s["bound"] else "OVER")
            print(f"  {name:<26} median {s['median']:>11.5g}  spread {s['spread']:.4f}"
                  f"  bound {s['bound']:.2f}  {flag}")
        if workload in baseline["workloads"]:
            print(f"  against {baseline_path.name}:")
            compare(summary, baseline["workloads"][workload])
        sys.stdout.flush()

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0 if all(w["correct"] for w in point["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
