"""Command line harness: run pipelines and seed grids, and render reports.

Configuration is a flat ``key = value`` text file covering both experiment
hyperparameters and dataset construction; command line ``--set key=value``
pairs and dedicated flags override file values. Every run writes its own
directory under the output root (``--out-dir``, else $SNOWBALL_OUT_DIR,
else ./runs) containing a manifest, per-step CSVs and model checkpoints;
a run deletes an earlier run's artifacts there before writing its own.

train and sweep (each --algo by each --vary value, over --seeds) are lists
of variants (run name, algo, config overrides) run by one loop
(_run_variants). A key that a variant overrides is the command's: setting it
in a config file or with --set is a usage error, never silently replaced,
and so is varying a key that the variant's pipeline fixes.

Exit codes: 0 success, 1 usage or configuration problems or running out of
memory, 2 data problems, 3 numerical divergence. A run whose record
collapsed (see orchestrator.PIPELINES for each pipeline's output model)
prints one warning on stderr and still exits 0.
"""

from __future__ import annotations

import argparse
import os
import sys
import typing
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import network as net
from .data import (DatasetSplit, gen_gaussian_blobs, gen_rings, gen_two_moons,
                   load_csv, split)
from .errors import ConfigError, DataError, DivergenceError, NumericsError, reading
from .orchestrator import ALGOS, PIPELINES, run_algorithm
from .records import (RunRecord, read_manifest, rows_equal,
                      write_aggregate_csv, write_manifest, write_report_csv,
                      write_step_metrics)
from .training import ExperimentConfig, require_finite, require_int64

OUT_DIR_ENV = "SNOWBALL_OUT_DIR"
DATASETS = ("two-moons", "blobs", "rings", "csv")


@dataclass(frozen=True)
class DataSpec:
    """Flat description of how to build the dataset for a run; every field is
    checked when built, like ExperimentConfig's, whichever dataset it serves."""

    dataset: str = "two-moons"
    n_samples: int = 1500        # two-moons only
    classes: int = 4             # blobs / rings
    n_per_class: int = 125       # blobs / rings
    data_noise: float = 0.15
    separation: float = 2.5      # blobs: centre circle radius
    labels_per_class: int = 2
    test_fraction: float = 1.0 / 3.0
    data_seed: int = -1          # -1: follow the run seed
    csv_path: str = ""

    def __post_init__(self) -> None:
        if self.dataset not in DATASETS:
            raise ConfigError(f"unknown dataset {self.dataset!r}, expected one of {DATASETS}")
        if self.dataset == "csv" and not self.csv_path:
            raise ConfigError("dataset 'csv' needs csv_path")
        require_finite(self)
        require_int64(self)
        if self.n_samples < 2:
            raise ConfigError(f"n_samples must be >= 2, got {self.n_samples}")
        if self.classes < 2:
            raise ConfigError(f"classes must be >= 2, got {self.classes}")
        if self.n_per_class < 1:
            raise ConfigError(f"n_per_class must be >= 1, got {self.n_per_class}")
        if self.data_noise < 0.0:
            raise ConfigError(f"data_noise must be non-negative, got {self.data_noise}")
        if self.labels_per_class < 1:
            raise ConfigError(f"labels_per_class must be >= 1, got {self.labels_per_class}")
        if not 0.0 <= self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must lie in [0, 1), got {self.test_fraction}")
        if self.data_seed < -1:
            raise ConfigError(f"config key 'data_seed' must be >= 0, or -1 to follow the "
                              f"run seed, got {self.data_seed}")


def benchmark_two_moons() -> tuple[ExperimentConfig, DataSpec]:
    """The standard two-moons benchmark configuration.

    Calibrated for desk scale, where the package defaults are too gentle to
    show the full semi-supervised gap: a stronger consistency weight, a bit
    more input jitter and class-balanced selection, on moons with 4 labels
    per class.
    """
    config = ExperimentConfig(lambda2_max=3.0, sigma_aug=0.15, balance_classes=True)
    spec = DataSpec(dataset="two-moons", n_samples=1500, data_noise=0.1,
                    labels_per_class=4)
    return config, spec


def benchmark_blobs() -> tuple[ExperimentConfig, DataSpec]:
    """Four moderately overlapping Gaussian blobs: 8 labels + 400 unlabeled.

    The overlap is chosen so that pseudo-label quality visibly depends on the
    selection strategy (min / random / max)."""
    config = ExperimentConfig(lambda2_max=3.0, sigma_aug=0.15, balance_classes=True)
    spec = DataSpec(dataset="blobs", classes=4, n_per_class=153, data_noise=1.0,
                    separation=2.5, labels_per_class=2)
    return config, spec


def make_dataset(spec: DataSpec, run_seed: int) -> DatasetSplit:
    """Generate (or load) and split the dataset a run trains on."""
    seed = spec.data_seed if spec.data_seed >= 0 else run_seed
    if spec.dataset == "two-moons":
        raw = gen_two_moons(spec.n_samples, spec.data_noise, seed)
    elif spec.dataset == "blobs":
        raw = gen_gaussian_blobs(spec.classes, spec.n_per_class, spec.data_noise,
                                 spec.separation, seed)
    elif spec.dataset == "rings":
        raw = gen_rings(spec.classes, spec.n_per_class, spec.data_noise, seed)
    else:
        raw = load_csv(spec.csv_path)
    return split(raw, spec.labels_per_class, spec.test_fraction, seed)


# --- flat config plumbing ---------------------------------------------------

_EXP_TYPES = typing.get_type_hints(ExperimentConfig)
_DATA_TYPES = typing.get_type_hints(DataSpec)


def _coerce(key: str, value, typ):
    if not isinstance(value, str):
        return value
    text = value.strip()
    origin = typing.get_origin(typ)
    try:
        if origin is tuple:
            inner = typing.get_args(typ)[0]
            if text == "":
                return ()
            return tuple(_coerce(key, part.strip(), inner) for part in text.split(","))
        if typ is bool:
            low = text.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(text)
        if typ is int:
            return int(text)
        if typ is float:
            return float(text)
        return text
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {value!r} as {typ}") from None


def parse_config_file(path) -> dict[str, str]:
    """Flat key-value file: one ``key = value`` per line, '#' comments."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    with reading(path, ConfigError):
        text = path.read_text()
    flat: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        flat[key.strip()] = value.strip()
    return flat


# Keys that older manifests carry, with the only value they were ever
# written with; a manifest holding exactly that value still loads and verifies.
_RETIRED = {"ema_every": "1", "ema_warmup": "False", "csv_classes": "0"}


def build_configs(flat: dict[str, object]) -> tuple[ExperimentConfig, DataSpec]:
    """Split a flat mapping into typed configs, checked as they are built.
    Unknown keys are errors, and so is algo: only --algo chooses the pipeline."""
    exp_kwargs: dict[str, object] = {}
    data_kwargs: dict[str, object] = {}
    for key, value in flat.items():
        if key == "algo":
            raise ConfigError("config key 'algo' cannot be set in a config file or with "
                              "--set; train and sweep choose the pipeline with --algo")
        if key in _RETIRED:
            if str(value).strip() != _RETIRED[key]:
                raise ConfigError(f"config key {key!r} is retired; only {key} = "
                                  f"{_RETIRED[key]} is accepted, got {value!r}")
        elif key in _EXP_TYPES:
            exp_kwargs[key] = _coerce(key, value, _EXP_TYPES[key])
        elif key in _DATA_TYPES:
            data_kwargs[key] = _coerce(key, value, _DATA_TYPES[key])
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return ExperimentConfig(**exp_kwargs), DataSpec(**data_kwargs)


def _flat_from_args(args) -> dict[str, object]:
    flat: dict[str, object] = {}
    if args.config:
        flat.update(parse_config_file(args.config))
    for pair in args.set or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        flat[key.strip()] = value.strip()
    for key in ("dataset", "labels_per_class", "seed"):  # sweep has no --seed
        if getattr(args, key, None) is not None:
            flat[key] = getattr(args, key)
    return flat


def _out_root(args) -> Path:
    if args.out_dir:
        return Path(args.out_dir)
    return Path(os.environ.get(OUT_DIR_ENV, "runs"))


# --- running and persisting -------------------------------------------------

def run_one(algo: str, config: ExperimentConfig, spec: DataSpec, out_root: Path,
            name: str | None = None, dump_discovery: bool = False) -> tuple[RunRecord, Path]:
    """Execute one run on make_dataset(spec, config.seed) and persist
    manifest, step CSVs and checkpoints, first deleting every file of those
    names that an earlier run left in the directory; any other file stays."""
    data = make_dataset(spec, config.seed)
    record = run_algorithm(algo, data, config)
    record.config.update(asdict(spec))
    run_dir = out_root / (name or f"{algo}-{spec.dataset}-seed{config.seed}")
    with reading(run_dir):  # a directory or file that cannot be written is a DataError
        run_dir.mkdir(parents=True, exist_ok=True)
        for pattern in ("manifest.txt", "steps-g*-i*.csv", "discovery-g*-i*.csv",
                        "student.ckpt", "teacher.ckpt", "master.ckpt"):
            for stale in run_dir.glob(pattern):
                stale.unlink()
        write_manifest(run_dir / "manifest.txt", record)
        for (m, k), steps in record.step_metrics.items():
            write_step_metrics(run_dir / f"steps-g{m}-i{k}.csv", steps)
        for role, params in record.models.items():
            net.save_checkpoint(params, run_dir / f"{role}.ckpt")
        if dump_discovery:
            for (m, k), report in record.reports.items():
                write_report_csv(run_dir / f"discovery-g{m}-i{k}.csv", report, data.true_y)
    return record, run_dir


def verify_manifest(path) -> bool:
    """True when a re-run of the manifest's config reproduces its metric rows
    bit-identically (wall_time excluded). The manifest's algo line names the
    pipeline; the other keys go through build_configs, its errors named by path."""
    raw_config, old_rows = read_manifest(path)
    algo = raw_config.pop("algo", "")
    if algo not in ALGOS:  # before any dataset is built
        raise ConfigError(f"{path}: manifest has unknown algo {algo!r}")
    try:
        config, spec = build_configs(raw_config)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None
    record = run_algorithm(algo, make_dataset(spec, config.seed), config)
    return rows_equal(record.rows, old_rows)


# --- aggregation ------------------------------------------------------------

AGG_FIELDS = ("train_err", "test_err", "noise_rate")
_SEED_KEYS = ("seed", "data_seed")


def aggregate(records: list[RunRecord]) -> list[dict[str, float]]:
    """Per-(generation, iteration) mean and sample std across seeds.

    All records must share algo and configuration apart from the seed keys,
    and the same (generation, iteration) grid. A single record aggregates to
    std 0 everywhere.
    """
    if not records:
        raise ConfigError("nothing to aggregate")
    base = {k: v for k, v in records[0].config.items() if k not in _SEED_KEYS}
    for rec in records[1:]:
        if rec.algo != records[0].algo:
            raise ConfigError("cannot aggregate records of different algorithms")
        other = {k: v for k, v in rec.config.items() if k not in _SEED_KEYS}
        if other != base:
            diff = sorted(k for k in set(base) | set(other)
                          if base.get(k) != other.get(k))
            raise ConfigError(f"records differ beyond the seed: {diff}")
    grid = [(r.generation, r.iteration) for r in records[0].rows]
    for rec in records[1:]:
        if [(r.generation, r.iteration) for r in rec.rows] != grid:
            raise ConfigError("records cover different (generation, iteration) grids")
    out = []
    for i, (m, k) in enumerate(grid):
        row: dict[str, float] = {"generation": m, "iteration": k}
        for name in AGG_FIELDS:
            values = np.array([getattr(rec.rows[i], name) for rec in records])
            row[f"{name}_mean"] = float(values.mean())
            row[f"{name}_std"] = float(values.std(ddof=1)) if len(values) > 1 else 0.0
        out.append(row)
    return out


def parse_seeds(text: str) -> list[int]:
    """Seed lists: '0..4' (inclusive range) or '0,2,5' of non-negative seeds,
    each at most once (a seed names its run directory)."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise ValueError
            seeds = list(range(lo_i, hi_i + 1))
        else:
            seeds = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigError(f"cannot parse seed list {text!r}") from None
    if any(seed < 0 for seed in seeds):
        raise ConfigError(f"seed list {text!r} holds a negative seed")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"seed list {text!r} repeats a seed")
    return seeds


def _comma_list(text: str, what: str, parse) -> list:
    """parse(item) per item of a comma list; a ConfigError for an empty or repeated one."""
    items = [item.strip() for item in text.split(",")]
    values = [parse(item) for item in items if item]
    if len(set(values)) < len(items):
        raise ConfigError(f"{what} holds an empty or repeated item")
    return values


def parse_vary(text: str) -> list[tuple[str, dict[str, object]]]:
    """sweep's --vary KEY=V1,V2,...: one (run name part, config override) per
    value of one scalar ExperimentConfig key other than seed."""
    key, sep, values = (part.strip() for part in text.partition("="))
    if not sep:
        raise ConfigError(f"--vary expects KEY=V1,V2,..., got {text!r}")
    if key not in _EXP_TYPES or key == "seed" or typing.get_origin(_EXP_TYPES[key]) is tuple:
        raise ConfigError(f"--vary takes a scalar config key other than seed, got {key!r}")
    return [(f"{key}={value}", {key: value}) for value in
            _comma_list(values, f"--vary {text!r}", lambda v: _coerce(key, v, _EXP_TYPES[key]))]


# --- subcommands ------------------------------------------------------------

def _run_variants(args, variants) -> list[tuple[RunRecord, Path]]:
    """Run a command's variants, each (run name, algo, config overrides), in
    order on the configs the user set; one (record, run_dir) per variant.
    The keys the variants override are the command's. Setting one, an unknown
    algo, a variant override of a key its algo's PIPELINES row fixes, or a bad
    config is a ConfigError before the output root is made and any run; a
    root that cannot be made is a DataError."""
    flat = _flat_from_args(args)
    config, spec = build_configs(flat)
    if unknown := sorted({algo for _, algo, _ in variants} - set(ALGOS)):
        raise ConfigError(f"unknown algo {unknown[0]!r}, expected one of {ALGOS}")
    for _, algo, overrides in variants:
        if fixed := sorted(overrides.keys() & PIPELINES[algo][0].keys()):
            raise ConfigError(f"the {algo} pipeline fixes config key {fixed[0]!r}, "
                              f"so {args.command} cannot vary it")
    owned = sorted({key for _, _, overrides in variants for key in overrides} & flat.keys())
    if owned:
        raise ConfigError(f"config keys {owned} are set by {args.command} for each run, "
                          "not by a config file or --set")
    configs = [replace(config, **overrides) for _, _, overrides in variants]
    out_root = _out_root(args)
    with reading(out_root):
        out_root.mkdir(parents=True, exist_ok=True)
    runs = []
    for (name, algo, _), run_config in zip(variants, configs):
        record, run_dir = run_one(algo, run_config, spec, out_root,
                                  name, getattr(args, "dump_discovery", False))
        if record.collapse:
            print(f"warning: training collapsed in {run_dir}: {record.collapse}",
                  file=sys.stderr)
        runs.append((record, run_dir))
    return runs


def _cmd_train(args) -> int:
    [(record, run_dir)] = _run_variants(args, [(args.name, args.algo, {})])
    _print_rows(record.rows)
    final = record.rows[-1]
    print(f"final test error {final.test_err:.4f} "
          f"(labelled set {final.labeled_size}, noise {final.noise_rate:.4f})")
    print(f"run written to {run_dir}")
    return 0


def _cmd_sweep(args) -> int:
    one_name = args.name and len(args.algo) == 1  # --name stands for the one algo
    variants = [("-".join(filter(None, (args.name, "" if one_name else algo, label))), algo,
                 overrides) for algo in args.algo for label, overrides in args.vary]
    runs = _run_variants(args, [(f"{name}-seed{seed}", algo, {**overrides, "seed": seed})
                                for name, algo, overrides in variants for seed in args.seeds])
    finals = []
    for i, (name, algo, _) in enumerate(variants):
        records, run_dirs = zip(*runs[i * len(args.seeds):(i + 1) * len(args.seeds)])
        if len(variants) > 1:
            print(("\n" if i else "") + f"variant {name}:")
        for seed, record, run_dir in zip(args.seeds, records, run_dirs):
            print(f"seed {seed}: final test error {record.final_test_err():.4f} ({run_dir})")
        summary = aggregate(list(records))
        print(f"\naggregate over {len(args.seeds)} seeds (mean +/- sample std), algo {algo}:")
        for row in summary:
            print(f"  g{row['generation']} i{row['iteration']}: {_mean_std(row)}")
        path = _out_root(args) / f"{name}-aggregate.csv"
        with reading(path):
            write_aggregate_csv(path, summary)
        finals.append((name, summary[-1], [record.final_test_err() for record in records]))
    if len(variants) > 1:
        width = max(len(name) for name, _, _ in variants)
        print(f"\nfinal rows (mean +/- sample std) and seeds at or below {variants[0][0]}:")
        for name, final, errors in finals:
            below = sum(err <= first for err, first in zip(errors, finals[0][2]))
            print(f"  {name:<{width}}  {_mean_std(final)}  {below}/{len(args.seeds)}")
    if "fusion" in args.vary[0][1] and (made := max(len(r.reports) for r, _ in runs)) < 3:
        print(f"note: each run made {made} of the 3 discoveries fusion needs to combine two "
              "masters, so it played no part in these rows", file=sys.stderr)
    return 0


def _mean_std(row: dict[str, float]) -> str:
    return (f"test {row['test_err_mean']:.4f} +/- {row['test_err_std']:.4f}  "
            f"noise {row['noise_rate_mean']:.4f} +/- {row['noise_rate_std']:.4f}")


def _cmd_report(args) -> int:
    raw_config, rows = read_manifest(args.manifest)
    print(f"run manifest: {args.manifest}")
    print(f"  algo: {raw_config.get('algo', '?')}")
    for key in sorted(raw_config):
        if key != "algo":
            print(f"  {key} = {raw_config[key]}")
    _print_rows(rows)
    if args.verify:
        ok = verify_manifest(args.manifest)
        print(f"re-run reproduces metrics bit-identically: {'yes' if ok else 'NO'}")
        return 0 if ok else 1
    return 0


def _print_rows(rows) -> None:
    print(f"{'gen':>3} {'iter':>4} {'train_err':>10} {'test_err':>9} "
          f"{'noise':>7} {'labelled':>9} {'wall_s':>7}")
    for r in rows:
        print(f"{r.generation:>3} {r.iteration:>4} {r.train_err:>10.4f} "
              f"{r.test_err:>9.4f} {r.noise_rate:>7.4f} {r.labeled_size:>9} "
              f"{r.wall_time:>7.2f}")


# --- argument parsing -------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors through our exit codes
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="snowball",
                     description="Semi-supervised learning with master-teacher-student "
                                 "evolution and confident-sample discovery.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    for command, help_text, func in (
            ("train", "run one pipeline and persist its artifacts", _cmd_train),
            ("sweep", "run pipelines and config values over seeds and aggregate", _cmd_sweep)):
        # no abbreviations: sweep would read '--seed 9' as '--seeds 9'
        p_run = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p_run.add_argument("--config", help="flat key = value config file")
        p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override one config key (repeatable)")
        p_run.add_argument("--dataset", choices=DATASETS)
        p_run.add_argument("--labels-per-class", type=int)
        p_run.add_argument("--out-dir", help=f"output root (default ${OUT_DIR_ENV} or ./runs)")
        p_run.add_argument("--name", help="run directory name")
        p_run.set_defaults(func=func)
    p_train, p_sweep = sub.choices["train"], sub.choices["sweep"]
    p_train.add_argument("--seed", type=int)  # sweep's seeds come from --seeds
    p_train.add_argument("--algo", choices=ALGOS, default="snowball")
    p_train.add_argument("--dump-discovery", action="store_true",
                         help="also write per-iteration discovery report CSVs")
    p_sweep.add_argument("--algo", default="snowball", help=f"a comma list of {', '.join(ALGOS)}",
                         type=lambda text: _comma_list(text, f"--algo {text!r}", str))
    p_sweep.add_argument("--seeds", type=parse_seeds, default="0..4", help="'0..4' or '0,1,2'")
    p_sweep.add_argument("--vary", type=parse_vary, default=[("", {})], metavar="KEY=V1,V2,...",
                         help="run each value of one config key")

    p_rep = sub.add_parser("report",
                           help="render a run manifest; --verify re-runs it")
    p_rep.add_argument("manifest")
    p_rep.add_argument("--verify", action="store_true")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def cli_run(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, and map errors onto exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # overflow is reported as a numerical error below, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 1
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except (DivergenceError, NumericsError) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if isinstance(code, int) else 0


def main() -> None:
    sys.exit(cli_run())


if __name__ == "__main__":
    main()
