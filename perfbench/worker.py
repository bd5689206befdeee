"""Run ecgtriage CLI commands in a fresh process and report their cost.

    python3 perfbench/worker.py <job.json> <result.json>

The job names the checkout's src/ directory, the argument lists for
ecgtriage.cli.main, whether to trace, and the file in which the parent
(run.py) keeps the seconds it has held this process group stopped while it
took speed samples. The result holds each command's start and end on the
system-wide monotonic clock, its wall time less those pauses, its exit code,
the calibration loop's times just before and just after it, the peak
resident memory, the trees and nodes Booster.step grew and, when traced, the
per-layer metrics, whose spans leave the pauses out too. A fresh process per
measurement keeps the peak memory of one workload apart from set-up and from
other repetitions.
"""

import ctypes
import json
import os
import resource
import signal
import struct
import sys
import time
import traceback

import numpy as np

import tracer


def now() -> float:
    """Seconds on CLOCK_MONOTONIC, which every process of the machine shares."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


paused_s = 0.0  # seconds the parent has held this process stopped so far
resumed_on: list[list[float]] = []  # [paused_s, CPU] after each pause
sched_getcpu = ctypes.CDLL(None, use_errno=True).sched_getcpu


def clock() -> float:
    """now() less the pauses: the time this process could run."""
    return now() - paused_s


def follow_pauses(path: str):
    """Keep paused_s current. The parent writes the new total to `path` before
    it sends SIGCONT, so the handler, which runs before the next bytecode, reads
    it before any clock() call that comes after the pause. The handler also
    notes the CPU this process resumes on, so that the parent can use the
    speed sample of that CPU: the scheduler wakes a task on the CPU it last
    ran on when that CPU is idle, as both are during a pause."""
    fd = os.open(path, os.O_RDONLY)

    def resumed(signum, frame):
        global paused_s
        paused_s = struct.unpack("d", os.pread(fd, 8, 0))[0]
        resumed_on.append([paused_s, sched_getcpu()])

    signal.signal(signal.SIGCONT, resumed)
    resumed(None, None)  # pauses before the handler was installed


def calibration_s() -> float:
    """Seconds for a fixed mix of float parsing and small-array numpy calls
    (about 2 ms on an idle core); tracks how fast the shared CPU runs.
    Timed on clock(), so a pause that falls into it does not count."""
    cells = [f"{(i * 7919) % 10007 / 100.0 - 50.0:.3f}" for i in range(5000)]
    values = np.arange(200, dtype=float)
    start = clock()
    [float(cell) for cell in cells]
    for _ in range(375):
        np.cumsum(values[values > 50.0])
    return clock() - start


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child.

    Children count once they have ended and been waited for, as the worker
    processes of a pool are when the pool is closed.
    """
    return sum(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    follow_pauses(job["paused_file"])
    sys.path.insert(0, job["src"])
    from ecgtriage import cli

    counts = {"trees": 0, "nodes": 0, "split_scans": 0}
    tracer.install_node_counter(counts)
    recorder = None
    if job["trace"]:
        recorder = tracer.Recorder(clock)
        tracer.install(recorder)

    calibration_s()  # the first call in a process runs cold
    commands, before = [], calibration_s()
    for argv in job["commands"]:
        start, start_clock = now(), clock()
        try:
            rc, error = cli.main(argv), None
        except Exception as exc:  # an aborted command is a result, not a benchmark crash
            rc, error = None, "".join(traceback.format_exception_only(exc)).strip()
        end, end_clock = now(), clock()
        after = calibration_s()
        commands.append({"argv": argv, "start": start, "end": end, "wall_s": end_clock - start_clock,
                         "rc": rc, "error": error, "before_s": before, "after_s": after})
        before = after

    result = {
        "commands": commands,
        "peak_rss_mb": peak_rss_mb(),
        "trees": counts["trees"],
        "nodes": counts["nodes"],
        "split_scans": counts["split_scans"],
        "resumed_on": resumed_on,
        "layers": tracer.layer_metrics(recorder, counts) if recorder else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
