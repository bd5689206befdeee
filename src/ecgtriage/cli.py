"""Command-line front end.

Subcommands: extract, table-one, train-eval, synth, version. Every command is
deterministic given the same config and seed, and only writes under out_dir.

Options come from a flat key=value file (blank lines and # comments ignored).
The flags --seed and --out overwrite its keys master_seed and out_dir, and
--config names the file; fields_from_raw then parses all keys once. The keys
are the fields of RunConfig (ecg_dir, fiducial_dir, cohort_table, out_dir,
specs), of its nested ExperimentConfig (master_seed, eta_grid, k_folds,
n_instances, holdout_selection, max_rounds, patience, max_depth) and, prefixed
synth_, of synth.SynthConfig except its seed, which is master_seed (n_patients,
positive_fraction, noise_sd_mv, qrst_angle_shift_deg, svg_scale, risk_effect).
The protocol's constants are the defaults of the functions that use them (the
stratified 70/30 split, the 0.90 sensitivity floor and the beat window) or, for
the tree regularisation at XGBoost's defaults, constants of gbt (L2_REG,
MIN_CHILD_HESSIAN). A value takes its field's annotated type: int, float, str
or Path from the text, bool from 1/true/yes or 0/false/no, a tuple from a
comma-separated list. Each config class validates its own values. An int or
float value follows the numeral rule of trace files and cohort tables
(ecg_ingest.plain_float): ASCII only, no "_" between digits. A key given twice
in the file is refused.

Exit codes: 0 success; 2 configuration error (unknown or repeated key, bad
value, unreadable config file, missing input path, output directory that cannot
be created, output file that cannot be written); 3 data error (malformed
input); 4 degenerate statistics (e.g. a single outcome class). extract logs a
patient whose files fail as failed or degenerate and goes on with the next one.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

from . import __version__, ecg_ingest, synth
from .cohort import MODEL_COLUMNS, ModelSpec, load_cohort, save_cohort, summarize_table_one
from .errors import ConfigError, DataFormatError, DegenerateStatsError, TriageError
from .geh import compute_geh
from .pipeline import ExperimentConfig, evaluate_model, split
from .vcg import baseline_correct, kors_transform

log = logging.getLogger("ecgtriage")

SYNTH_PREFIX = "synth_"


@dataclass(frozen=True)
class RunConfig:
    ecg_dir: Path = Path("ecg")
    fiducial_dir: Path = Path("fiducials")
    cohort_table: Path = Path("cohort.csv")
    out_dir: Path = Path("out")
    specs: tuple[str, ...] = tuple(MODEL_COLUMNS)
    experiment: ExperimentConfig = ExperimentConfig()

    def __post_init__(self):
        # model labels are case-insensitive on input
        object.__setattr__(self, "specs", tuple(label.upper() for label in self.specs))
        if not self.specs or not set(self.specs) <= MODEL_COLUMNS.keys():
            raise ConfigError(f"specs must list models among {', '.join(MODEL_COLUMNS)}, "
                              f"got {self.specs}")
        if len(set(self.specs)) != len(self.specs):
            raise ConfigError(f"specs lists a model more than once: {self.specs}")


def read_config_file(path) -> dict:
    """Flat key=value text; blank lines and # comments ignored; a key given
    twice is refused."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values: dict = {}
    first_line: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        values[key] = value
    return values


def fields_from_raw(cls, raw: dict, prefix: str = ""):
    """Build dataclass `cls` from the text values raw[prefix + field name].

    Each value is converted by its field's annotation; a field whose type is
    itself a dataclass is built from the same flat keys. Absent keys keep
    their defaults.
    """
    def typed(hint, text: str):
        if typing.get_origin(hint) is tuple:
            return tuple(typed(typing.get_args(hint)[0], v.strip())
                         for v in text.split(",") if v.strip())
        if hint is bool:
            return {"1": True, "true": True, "yes": True,
                    "0": False, "false": False, "no": False}[text.lower()]
        if hint in (int, float):
            ecg_ingest.plain_float(text)  # the package's one numeral rule
        return hint(text)

    kwargs = {}
    for name, hint in typing.get_type_hints(cls).items():
        key = prefix + name
        if dataclasses.is_dataclass(hint):
            kwargs[name] = fields_from_raw(hint, raw, prefix)
        elif key in raw:
            try:
                kwargs[name] = typed(hint, raw[key])
            except (KeyError, ValueError):
                raise ConfigError(f"{key}: cannot parse {raw[key]!r}") from None
    return cls(**kwargs)


def load_config(args) -> tuple[RunConfig, dict]:
    """The run config from --config and the flags, plus the raw keys."""
    known = {f.name for cls in (RunConfig, ExperimentConfig) for f in dataclasses.fields(cls)}
    known |= {SYNTH_PREFIX + f.name for f in dataclasses.fields(synth.SynthConfig)}
    known -= {"experiment", SYNTH_PREFIX + "seed"}  # nested config; synth seeds from master_seed
    raw = read_config_file(args.config) if args.config else {}
    # each flag is stored under the config key it overrides
    raw.update({k: v for k, v in vars(args).items() if k in known and v is not None})
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    return fields_from_raw(RunConfig, raw), raw


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise ConfigError(f"{what} {path} does not exist")
    return path


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from None


@contextlib.contextmanager
def _writing(path: Path):
    """Report a blocked output path below out_dir as a config error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from None


def _write_text(path: Path, text: str):
    with _writing(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_json(path: Path, doc) -> None:
    _write_text(path, json.dumps(doc, indent=2) + "\n")


# --- commands ----------------------------------------------------------------

def cmd_extract(cfg: RunConfig) -> int:
    """Per patient: trace + annotations -> median beat -> baseline -> XYZ ->
    features; a failure is logged and its row's measures left empty, never fatal."""
    _require(cfg.cohort_table, "cohort table")
    _require(cfg.ecg_dir, "ecg directory")
    _require(cfg.fiducial_dir, "fiducial directory")
    _make_dir(cfg.out_dir)
    cohort = load_cohort(cfg.cohort_table)

    out_rows, log_lines, n_failed = [], [], 0
    for record in cohort:
        try:
            ecg = ecg_ingest.parse_ecg(_require(cfg.ecg_dir / f"{record.id}.csv", "trace file"))
            fiducials = ecg_ingest.parse_fiducials(
                _require(cfg.fiducial_dir / f"{record.id}.json", "fiducial file"))
            beat = ecg_ingest.median_beat(ecg, fiducials)
            corrected = baseline_correct(beat)
            geh = compute_geh(kors_transform(corrected))
            standard = ecg_ingest.standard_measures(corrected)
        except TriageError as exc:
            status = "degenerate" if isinstance(exc, DegenerateStatsError) else "failed"
            out_rows.append(dataclasses.replace(record, standard=None, geh=None))
            log_lines.append(f"{record.id}\t{status}\t{exc}")
            n_failed += 1
            continue
        out_rows.append(dataclasses.replace(record, standard=standard, geh=geh))
        log_lines.append(f"{record.id}\tok\t{','.join(geh.degenerate)}")

    with _writing(cfg.out_dir / "features.csv"):
        save_cohort(out_rows, cfg.out_dir / "features.csv")
    _write_text(cfg.out_dir / "extract_log.txt", "".join(line + "\n" for line in log_lines))
    log.info("extracted %d patients (%d failed) -> %s",
             len(out_rows), n_failed, cfg.out_dir / "features.csv")
    return 0


def cmd_table_one(cfg: RunConfig) -> int:
    _require(cfg.cohort_table, "cohort table")
    _make_dir(cfg.out_dir)
    doc = summarize_table_one(load_cohort(cfg.cohort_table))
    _write_json(cfg.out_dir / "table_one.json", doc)
    log.info("wrote %s (%d rows)", cfg.out_dir / "table_one.json", len(doc["rows"]))
    return 0


def _write_table(path: Path, header: str, rows):
    """One comma-separated line per row; str of a float is its shortest repr."""
    _write_text(path, "\n".join([header] + [",".join(map(str, row)) for row in rows]) + "\n")


def _report_tables(report: dict, reports_dir: Path):
    label = report["model"]
    _write_table(reports_dir / f"roc_{label}.txt", "fpr,tpr", report["roc_points"])
    _write_table(reports_dir / f"pr_{label}.txt", "recall,precision", report["pr_points"])
    _write_table(reports_dir / f"importance_{label}.txt", "name,gain,percent",
                 [e.values() for e in report["importance"]["features"]])


def cmd_train_eval(cfg: RunConfig) -> int:
    """Evaluate every requested feature set over one shared train/test split."""
    _require(cfg.cohort_table, "cohort table")
    reports_dir = cfg.out_dir / "reports"
    _make_dir(reports_dir)
    cohort = load_cohort(cfg.cohort_table)
    experiment = cfg.experiment
    plan = split(cohort, experiment.master_seed)

    reports, summary_rows = [], []
    for label in cfg.specs:
        report = evaluate_model(ModelSpec(label), cohort, experiment, split_plan=plan)
        reports.append(report)
        _write_json(reports_dir / f"report_{label}.json", report)
        _report_tables(report, reports_dir)
        m = report["metrics"]
        summary_rows.append({
            "model": label,
            "f2": f"{m['f2']:.2f}",
            "auc_pct": f"{100.0 * m['auc']:.1f}",
            "sensitivity_pct": f"{100.0 * m['sensitivity']:.2f}",
            "specificity_pct": f"{100.0 * m['specificity']:.2f}",
        })
        log.info("model %s: AUC %.3f, AUCPR %.3f, F2 %.3f, sens %.4f, spec %.4f",
                 label, m["auc"], m["aucpr"], m["f2"], m["sensitivity"], m["specificity"])

    # highest F2, then AUC; the first listed spec wins a full tie
    winner_report = max(reports, key=lambda r: (r["metrics"]["f2"], r["metrics"]["auc"]))
    winner = winner_report["model"]
    _write_table(reports_dir / "winner_importance.txt", "name,gain,percent",
                 [e.values() for e in sorted(winner_report["importance"]["features"],
                                             key=lambda e: -e["gain"])])
    _write_json(reports_dir / "summary.json", {
        "format": "train-eval-summary/1",
        "winner": winner,
        "master_seed": experiment.master_seed,
        "config_hash": experiment.hash(),
        "rows": summary_rows,
    })
    log.info("winner: %s", winner)
    return 0


def cmd_synth(cfg: RunConfig, raw: dict) -> int:
    sc = dataclasses.replace(fields_from_raw(synth.SynthConfig, raw, SYNTH_PREFIX),
                             seed=cfg.experiment.master_seed)
    _make_dir(cfg.out_dir)
    with _writing(cfg.out_dir):
        summary = synth.generate(sc, cfg.out_dir)
    _write_json(cfg.out_dir / "synth_summary.json", summary)
    log.info("synthesized %d patients (%d positive) under %s",
             summary["n_patients"], summary["n_positive"], cfg.out_dir)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ecgtriage")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--seed", dest="master_seed", help="master seed override")
    common.add_argument("--out", dest="out_dir", help="output directory override")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("extract", "table-one", "train-eval", "synth", "version"):
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    if args.command == "version":
        print(f"ecgtriage {__version__}")
        return 0
    try:
        cfg, raw = load_config(args)
        if args.command == "extract":
            return cmd_extract(cfg)
        if args.command == "table-one":
            return cmd_table_one(cfg)
        if args.command == "train-eval":
            return cmd_train_eval(cfg)
        if args.command == "synth":
            return cmd_synth(cfg, raw)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 2
    except DataFormatError as exc:
        log.error("data error: %s", exc)
        return 3
    except DegenerateStatsError as exc:
        log.error("degenerate statistics: %s", exc)
        return 4
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
