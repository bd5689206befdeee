"""Per-layer tracing for the benchmark, installed from outside the package.

Each public function of a layer is replaced, at the name its caller looks up,
by a wrapper that records one span per call: duration, self time (duration
minus the time of spans it caused) and whether it raised. Spans are kept in
memory as per-name aggregates and turned into the per-layer metrics at the end
of a traced run. Nothing under src/ is edited.
"""

from __future__ import annotations

import functools
import math

LAYERS = ("ecg_ingest", "vcg", "geh", "cohort", "gbt", "pipeline", "cli")

# a percentile is reported only when at least this many samples lie beyond it
TAIL_SAMPLES = 10


class SpanStats:
    __slots__ = ("durations", "self_s", "ok_s", "failed")

    def __init__(self):
        self.durations: list[float] = []
        self.self_s = 0.0
        self.ok_s = 0.0
        self.failed = 0

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def total_s(self) -> float:
        return math.fsum(self.durations)

    def ms_percentile(self, q: float) -> float:
        """Nearest-rank percentile in ms; 0.0 without samples, or, above the
        median, with fewer than TAIL_SAMPLES samples beyond it."""
        n = len(self.durations)
        if n == 0 or (q > 50 and n * (1.0 - q / 100.0) < TAIL_SAMPLES):
            return 0.0
        ordered = sorted(self.durations)
        return 1000.0 * ordered[max(0, math.ceil(q / 100.0 * n) - 1)]


class Recorder:
    """Span aggregates plus counters; one per traced process.

    `clock` gives seconds; the worker's leaves out the time the process was
    held stopped for speed samples.
    """

    def __init__(self, clock):
        self.clock = clock
        self.spans: dict[str, SpanStats] = {}
        self.counters: dict[str, int] = {}
        self._open: list[list] = []  # [name, child seconds] per open span

    def count(self, name: str, n: int = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def is_open(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._open)

    def wrap(self, name: str, fn, observe=None):
        """Wrapper recording a span per call; observe(result, exc) sees each outcome."""
        stats = self.spans.setdefault(name, SpanStats())
        open_spans = self._open
        clock = self.clock

        def close(frame, start, ok):
            elapsed = clock() - start
            open_spans.pop()
            if open_spans:
                open_spans[-1][1] += elapsed
            stats.durations.append(elapsed)
            stats.self_s += elapsed - frame[1]
            if ok:
                stats.ok_s += elapsed
            else:
                stats.failed += 1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            open_spans.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(frame, start, ok=False)
                if observe is not None:
                    observe(None, exc)
                raise
            close(frame, start, ok=True)
            if observe is not None:
                observe(result, None)
            return result

        return traced

    def stats(self, name: str) -> SpanStats:
        return self.spans.get(name) or SpanStats()

    def layer_self_s(self, layer: str) -> float:
        return math.fsum(st.self_s for name, st in self.spans.items()
                         if name.split(".")[0] == layer)


def _tree_nodes(node) -> int:
    return 1 if node.is_leaf else 1 + _tree_nodes(node.left) + _tree_nodes(node.right)


def _searched_nodes(node, depth: int, max_depth: int) -> int:
    """Nodes searched for a split: every split, and every leaf above the depth
    limit (its search found no gain, or it held a single sample)."""
    if node.is_leaf:
        return int(depth < max_depth)
    return (1 + _searched_nodes(node.left, depth + 1, max_depth)
            + _searched_nodes(node.right, depth + 1, max_depth))


def install_node_counter(counts: dict):
    """Count the trees, nodes and split scans Booster.step returns, reading no clock.

    A split scan is one feature scanned at one node searched for a split.
    Installed in every worker, traced or not, before tracer.install wraps the
    counted step. The untraced protocol run expresses its wall time per split
    scan: the number of scans varies about twofold with the cohort, the cost
    of one by about 1%. The counting costs a few microseconds per
    multi-millisecond step.
    """
    from ecgtriage import gbt

    step = gbt.Booster.step

    @functools.wraps(step)
    def counted(self):
        tree = step(self)
        counts["trees"] += 1
        counts["nodes"] += _tree_nodes(tree.root)
        counts["split_scans"] += self.X.shape[1] * _searched_nodes(tree.root, 0, self.config.max_depth)
        return tree

    gbt.Booster.step = counted


def install(recorder: Recorder):
    """Wrap every traced function of the ecgtriage package for this process."""
    from ecgtriage import cli, ecg_ingest, gbt, pipeline
    from ecgtriage.errors import DegenerateStatsError

    def parsed(result, exc):
        if result is not None:
            recorder.count("ecg_ingest.samples", result.n_samples * len(result.leads))

    def geh_outcome(result, exc):
        if isinstance(exc, DegenerateStatsError) or (result is not None and result.degenerate):
            recorder.count("geh.degenerate")

    def grown(tree, exc):
        if tree is not None and recorder.is_open("pipeline.cv_tune"):
            recorder.count("pipeline.cv_tune.rounds_run")

    # (owner, attribute, span name, observer): owner is where the caller looks the name up
    targets = [
        (ecg_ingest, "parse_ecg", "ecg_ingest.parse_ecg", parsed),
        (ecg_ingest, "parse_fiducials", "ecg_ingest.parse_fiducials", None),
        (ecg_ingest, "median_beat", "ecg_ingest.median_beat", None),
        (ecg_ingest, "standard_measures", "ecg_ingest.standard_measures", None),
        (cli, "baseline_correct", "vcg.baseline_correct", None),
        (cli, "kors_transform", "vcg.kors_transform", None),
        (cli, "compute_geh", "geh.compute_geh", geh_outcome),
        (cli, "load_cohort", "cohort.load_cohort", None),
        (cli, "save_cohort", "cohort.save_cohort", None),
        (cli, "summarize_table_one", "cohort.summarize_table_one", None),
        (pipeline, "assemble_features", "cohort.assemble_features", None),
        (gbt.Booster, "__init__", "gbt.Booster.init", None),
        (gbt.Booster, "step", "gbt.Booster.step", grown),
        (gbt.Tree, "predict", "gbt.Tree.predict", None),
        (gbt.Ensemble, "predict", "gbt.Ensemble.predict", None),
        (cli, "split", "pipeline.split", None),
        (cli, "evaluate_model", "pipeline.evaluate_model", None),
        (pipeline, "cv_tune", "pipeline.cv_tune", None),
        (pipeline, "train_representative", "pipeline.train_representative", None),
        (pipeline, "run_instance", "pipeline.run_instance", None),
        (pipeline, "roc_auc", "pipeline.roc_auc", None),
        (pipeline, "pr_aucpr", "pipeline.pr_aucpr", None),
        (pipeline, "choose_threshold", "pipeline.choose_threshold", None),
        (pipeline, "importance_gain", "pipeline.importance_gain", None),
        (cli, "cmd_extract", "cli.extract", None),
        (cli, "cmd_table_one", "cli.table_one", None),
        (cli, "cmd_train_eval", "cli.train_eval", None),
    ]
    for owner, attr, name, observe in targets:
        setattr(owner, attr, recorder.wrap(name, owner.__dict__[attr], observe))


_SPAN_FIELDS = {
    "calls": lambda st: st.calls,
    "s": lambda st: st.total_s,
    "self_s": lambda st: st.self_s,
    "failed": lambda st: st.failed,
    "ms_p50": lambda st: st.ms_percentile(50),
    "ms_p95": lambda st: st.ms_percentile(95),
}


def layer_metrics(rec: Recorder, counts: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass; a layer that never ran reads 0.

    `counts` holds the trees and nodes install_node_counter saw.
    """
    m: dict[str, float] = {}

    def span(name, *fields):
        st = rec.stats(name)
        for field in fields:
            m[f"{name}.{field}"] = _SPAN_FIELDS[field](st)

    span("ecg_ingest.parse_ecg", "calls", "ms_p50", "ms_p95", "failed")
    parse = rec.stats("ecg_ingest.parse_ecg")
    m["ecg_ingest.parse_ecg.samples_per_s"] = (
        rec.counters.get("ecg_ingest.samples", 0) / parse.ok_s if parse.ok_s else 0.0)
    span("ecg_ingest.parse_fiducials", "ms_p50", "failed")
    span("ecg_ingest.median_beat", "ms_p50", "failed")
    span("ecg_ingest.standard_measures", "ms_p50")
    span("vcg.baseline_correct", "ms_p50")
    span("vcg.kors_transform", "ms_p50")
    span("geh.compute_geh", "ms_p50")
    m["geh.compute_geh.degenerate"] = rec.counters.get("geh.degenerate", 0)
    for name in ("load_cohort", "save_cohort", "assemble_features", "summarize_table_one"):
        span(f"cohort.{name}", "s")
    span("gbt.Booster.step", "calls", "s", "ms_p50")
    nodes = counts["nodes"]
    m["gbt.nodes_grown"] = nodes
    step_s = rec.stats("gbt.Booster.step").total_s
    m["gbt.Booster.step.us_per_node"] = 1e6 * step_s / nodes if nodes else 0.0
    span("gbt.Booster.init", "s")
    span("gbt.Tree.predict", "calls", "s")
    span("gbt.Ensemble.predict", "s")
    span("pipeline.evaluate_model", "s")
    span("pipeline.cv_tune", "s")
    m["pipeline.cv_tune.rounds_run"] = rec.counters.get("pipeline.cv_tune.rounds_run", 0)
    span("pipeline.train_representative", "s")
    span("pipeline.run_instance", "calls")
    span("pipeline.pr_aucpr", "calls", "s")
    span("pipeline.roc_auc", "s")
    span("pipeline.choose_threshold", "s")
    span("cli.extract", "self_s")
    span("cli.train_eval", "self_s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = rec.layer_self_s(layer)
    return m
