"""Decoding sweep runner, log-curve fitting, and the trade-off table.

A sweep is a grid of (model, strategy, parameter) cells. Each cell
decodes one continuation per prefix (all prefixes of the cell in one
lockstep batch), persists them, computes the configured metrics, and
emits one SweepRecord. Cells run one after another, in grid order,
and are independent: the seed for sample i of a cell is ``seed XOR
stable_hash(model | strategy | param | i)``, so a record does not depend
on which cells ran before it. A failed cell is recorded with its config
hash and its error alone, and the sweep moves on.

Re-running a sweep recomputes only missing, failed or stale cells: every
record stores a hash of the cell configuration plus a digest of its
samples file, and cells whose record matches are reused as-is.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from ..corpus import CorpusSplits
from ..decode import DecoderConfig, generate_batch, param_value
from ..errors import ConfigError, DataError, DegenerateFit, InsufficientSamples, atomic_write, open_text, write_json
from ..lm.ngram import NGramLM, check_settings, ngram_fit
from ..lm.store import load_model
from ..metrics import (
    BleuConfig,
    SampleSet,
    check_reverse_settings,
    corpus_bleu,
    forward_ppl,
    mean_seq_rep,
    reverse_ppl,
    self_bleu,
)
from ..rng import stable_hash
from .samples import save_sample_set


@dataclass(frozen=True)
class MetricInputs:
    """What every metric of one run shares, built once by :func:`metric_inputs`.

    ``settings`` is any object with the metric settings ``max_n``,
    ``subsample``, ``subsample_seed``, ``fwd_order``, ``fwd_k_s``,
    ``rev_order`` and ``rev_k_s`` (a :class:`SweepConfig` or the CLI's
    options). An input no requested metric needs is None.
    """

    settings: object
    bleu_cfg: BleuConfig
    refs: SampleSet | None = None
    fwd_scorer: NGramLM | None = None


@dataclass(frozen=True)
class Metric:
    """One trade-off metric: its ``genteval eval`` kind, direction and scorer.

    ``config`` maps the settings to the report's ``config`` dict;
    ``compute`` maps (samples, inputs) to (value, nulls excluded). The
    scorers call the metric functions by their module-level names, so
    a wrapper installed on this module's attributes sees every call.
    """

    kind: str  # "quality" | "diversity"
    higher_better: bool
    config: Callable[[object], dict]
    compute: Callable[[SampleSet, MetricInputs], tuple[float | None, int]]


def _bleu_config(s) -> dict:
    return {"max_n": s.max_n, "subsample": s.subsample, "subsample_seed": s.subsample_seed}


# The one metric table, in sweep CSV column order.
METRICS: dict[str, Metric] = {
    "corpus_bleu": Metric(
        "quality", True, _bleu_config,
        lambda sset, inp: (corpus_bleu(sset, inp.refs, inp.bleu_cfg), 0),
    ),
    "self_bleu": Metric(
        "diversity", False, _bleu_config,
        lambda sset, inp: (self_bleu(sset, inp.bleu_cfg), 0),
    ),
    "seq_rep_4": Metric(
        "diversity", False, lambda s: {"n": 4},
        lambda sset, inp: mean_seq_rep(sset, 4),
    ),
    "forward_ppl": Metric(
        "quality", False, lambda s: {"order": s.fwd_order, "k_s": s.fwd_k_s},
        lambda sset, inp: (forward_ppl(inp.fwd_scorer, sset), 0),
    ),
    "reverse_ppl": Metric(
        "diversity", False, lambda s: {"order": s.rev_order, "k_s": s.rev_k_s},
        lambda sset, inp: (
            reverse_ppl(sset, inp.refs, order=inp.settings.rev_order, k_s=inp.settings.rev_k_s),
            0,
        ),
    ),
}
CSV_COLUMNS = ("model", "strategy", "param", "n_samples", *METRICS, "seed", "schema")
SCHEMA_TAG = "v1"


def metric_inputs(
    settings, names, splits: CorpusSplits, prefix_len: int, gen_len: int
) -> MetricInputs:
    """Check the settings of the metrics ``names``, then build the inputs they
    need, each part only if needed. Metrics that need references and find
    none (the test chunks end within ``prefix_len``) raise InsufficientSamples."""
    bleu_cfg = BleuConfig(
        max_n=settings.max_n, subsample=settings.subsample, subsample_seed=settings.subsample_seed
    )
    if "forward_ppl" in names:
        check_settings(settings.fwd_order, settings.fwd_k_s)
    if "reverse_ppl" in names:
        check_reverse_settings(settings.rev_order, settings.rev_k_s)
    refs = fwd_scorer = None
    needs_refs = [name for name in names if name in ("corpus_bleu", "reverse_ppl")]
    if needs_refs:
        refs = reference_set(splits, prefix_len, gen_len)
        if not len(refs):
            raise InsufficientSamples(
                f"no reference continuations for {' and '.join(needs_refs)}: the test split's "
                f"{len(splits.test)} chunks of seq_len {splits.seq_len} leave none after prefix_len {prefix_len}"
            )
    if "forward_ppl" in names:
        fwd_scorer = ngram_fit(splits.train, splits.vocab, settings.fwd_order, settings.fwd_k_s)
    return MetricInputs(settings, bleu_cfg, refs, fwd_scorer)


@dataclass(frozen=True)
class SweepConfig:
    """Grid definition plus generation and metric settings.

    ``models`` holds model names (or paths, resolved by the caller).
    ``strategies`` maps strategy name to its parameter list; greedy
    takes the single parameter None. Every cell is checked by its decoder
    config, which also gives its parameter the strategy's type, and no cell
    may repeat. ``subsample`` caps the candidate set for the BLEU
    metrics (large runs typically cap at 500); None scores everything.
    """

    models: tuple[str, ...]
    strategies: tuple[tuple[str, tuple], ...]
    prefix_len: int = 50
    gen_len: int = 100
    n_prefixes: int | None = None
    seed: int = 0
    metrics: tuple[str, ...] = tuple(METRICS)
    max_n: int = 4
    subsample: int | None = None
    subsample_seed: int = 0
    rev_order: int = 2
    rev_k_s: float = 1.0
    fwd_order: int = 2
    fwd_k_s: float = 1.0

    def __post_init__(self) -> None:
        if not self.models:
            raise ConfigError("sweep needs at least one model")
        if len(set(self.models)) != len(self.models):
            raise ConfigError("duplicate model names in sweep")
        check_positive(prefix_len=self.prefix_len, gen_len=self.gen_len, n_prefixes=self.n_prefixes)
        for name in self.metrics:
            if name not in METRICS:
                raise ConfigError(f"unknown sweep metric {name!r}")
        seen, grid = set(), []
        for strategy, params in self.strategies:
            if not params:
                raise ConfigError(f"strategy {strategy!r} has no parameters")
            params = tuple(DecoderConfig(strategy, param_value(strategy, p), self.gen_len).param
                           for p in params)
            for p in params:
                if (strategy, p) in seen:
                    raise ConfigError(f"duplicate cell {strategy}({p})")
                seen.add((strategy, p))
            grid.append((strategy, params))
        object.__setattr__(self, "strategies", tuple(grid))

    def cells(self) -> list[tuple[str, str, object]]:
        out = []
        for model in self.models:
            for strategy, params in self.strategies:
                for p in params:
                    out.append((model, strategy, p))
        return out


@dataclass
class SweepRecord:
    model: str
    strategy: str
    param: float | int | None
    n_samples: int
    metrics: dict[str, float | None]
    seed: int
    failed: str | None = None
    config_hash: str = ""
    samples_file: str = ""
    samples_sha256: str = ""


def check_positive(**values) -> None:
    for name, value in values.items():
        if value is not None and value < 1:
            raise ConfigError(f"{name} must be positive")


def prefix_windows(splits: CorpusSplits, split: str, prefix_len: int, n_prefixes: int | None) -> np.ndarray:
    """The first ``prefix_len`` tokens of each of the first ``n_prefixes``
    sequences of ``split`` (all of them when None), as one matrix: what
    ``genteval generate`` and a sweep decode from."""
    check_positive(prefix_len=prefix_len, n_prefixes=n_prefixes)
    prefixes = getattr(splits, split)[:n_prefixes, :prefix_len]
    if not len(prefixes):
        raise DataError(f"split {split!r} has no sequences")
    return prefixes


def cell_key(model: str, strategy: str, param) -> str:
    raw = f"{model}__{strategy}__{param}"
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", raw)


def sample_seed(base_seed: int, model: str, strategy: str, param, index: int) -> int:
    """Per-sample seed: base XOR a stable hash of the cell and index."""
    return base_seed ^ stable_hash(f"{model}|{strategy}|{param}|{index}")


def decode_cell(model, model_name: str, prefixes, dcfg: DecoderConfig, base_seed: int) -> SampleSet:
    """One continuation per prefix, sample i seeded by :func:`sample_seed`.

    All prefixes decode in one :func:`genteval.decode.generate_batch`
    call, in index order. ``genteval generate`` and a sweep cell both
    decode through here, so they batch alike and write the same samples.
    """
    seeds = [sample_seed(base_seed, model_name, dcfg.strategy, dcfg.param, i) for i in range(len(prefixes))]
    return SampleSet(
        map(str, range(len(prefixes))), model.vocab, generate_batch(model, prefixes, dcfg, seeds), prefixes,
        {"model": model_name, "strategy": dcfg.strategy, "param": dcfg.param, "seed": base_seed},
    )


def _config_digest(cfg: SweepConfig, model: str, strategy: str, param, n_prefixes: int) -> str:
    payload = json.dumps(
        {
            "model": model,
            "strategy": strategy,
            "param": param,
            "seed": cfg.seed,
            "prefix_len": cfg.prefix_len,
            "gen_len": cfg.gen_len,
            "n_prefixes": n_prefixes,
            "metrics": list(cfg.metrics),
            "max_n": cfg.max_n,
            "subsample": cfg.subsample,
            "subsample_seed": cfg.subsample_seed,
            "rev": [cfg.rev_order, cfg.rev_k_s],
            "fwd": [cfg.fwd_order, cfg.fwd_k_s],
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reference_set(splits: CorpusSplits, prefix_len: int, gen_len: int) -> SampleSet:
    """Human continuations from the test split, matching the generated span;
    none when its chunks are no longer than the prefix."""
    test = splits.test if splits.seq_len > prefix_len else splits.test[:0]
    return SampleSet(
        (f"ref-{i}" for i in range(len(test))), splits.vocab,
        test[:, prefix_len : prefix_len + gen_len], test[:, :prefix_len],
        {"model": "human", "strategy": "human", "param": None, "seed": None},
    )


def _resolve_models(cfg: SweepConfig, models) -> tuple[dict, dict]:
    """Load each model once; a load failure fails that model's cells."""
    loaded: dict[str, object] = {}
    errors: dict[str, str] = {}
    for name in cfg.models:
        source = name if models is None else models.get(name, name)
        if isinstance(source, (str, Path)):
            try:
                loaded[name] = load_model(source)
            except Exception as exc:  # noqa: BLE001 - recorded per cell
                errors[name] = f"{type(exc).__name__}: {exc}"
        else:
            loaded[name] = source
    return loaded, errors


def run_sweep(
    cfg: SweepConfig,
    splits: CorpusSplits,
    out_dir: str | Path,
    models: dict[str, object] | None = None,
) -> list[SweepRecord]:
    """Run every cell of the grid, returning records in grid order.

    ``models`` maps names from ``cfg.models`` to live model objects or
    saved-model paths; names absent from the mapping are treated as
    paths themselves.
    """
    prefixes = prefix_windows(splits, "train", cfg.prefix_len, cfg.n_prefixes)
    inputs = metric_inputs(cfg, cfg.metrics, splits, cfg.prefix_len, cfg.gen_len)
    out = Path(out_dir)
    loaded, load_errors = _resolve_models(cfg, models)

    records = []
    for model_name, strategy, param in cfg.cells():
        digest = _config_digest(cfg, model_name, strategy, param, len(prefixes))
        key = cell_key(model_name, strategy, param)
        record_path = out / "records" / f"{key}.json"
        samples_path = out / "samples" / f"{key}.jsonl"
        record = _try_reuse(record_path, samples_path, digest)
        if record is None:
            record = SweepRecord(model_name, strategy, param, 0, {}, cfg.seed, config_hash=digest)
            try:
                if model_name in load_errors:
                    raise ConfigError(load_errors[model_name])
                dcfg = DecoderConfig(strategy, param, cfg.gen_len)
                sset = decode_cell(loaded[model_name], model_name, prefixes, dcfg, cfg.seed)
                save_sample_set(samples_path, sset)
                record = replace(
                    record,
                    n_samples=len(sset),
                    metrics={name: METRICS[name].compute(sset, inputs)[0] for name in cfg.metrics},
                    samples_file=samples_path.name,
                    samples_sha256=_file_digest(samples_path),
                )
            except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                record.failed = f"{type(exc).__name__}: {exc}"
            write_json(record_path, asdict(record))
        records.append(record)
    write_sweep_csv(out / "sweep.csv", records)
    return records


def _try_reuse(record_path: Path, samples_path: Path, digest: str) -> SweepRecord | None:
    if not record_path.exists():
        return None
    try:
        with open(record_path, encoding="utf-8") as f:
            record = SweepRecord(**json.load(f))
    except (TypeError, ValueError):  # not JSON, not UTF-8, or not a record
        return None
    if record.config_hash != digest:
        return None
    if record.failed is not None:
        return None
    if record.samples_file:
        if not samples_path.exists():
            return None
        if record.samples_sha256 and _file_digest(samples_path) != record.samples_sha256:
            return None
    return record


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def write_sweep_csv(path: str | Path, records: list[SweepRecord]) -> None:
    with atomic_write(path, encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.model,
                    r.strategy,
                    _format_cell(r.param),
                    r.n_samples,
                    *(_format_cell(r.metrics.get(name)) for name in METRICS),
                    r.seed,
                    SCHEMA_TAG,
                ]
            )


def read_sweep_csv(path: str | Path) -> list[SweepRecord]:
    """Read a sweep CSV; a bad header, schema tag or cell raises DataError naming ``path:line``."""
    records = []
    with open_text(path, newline="") as f:
        reader = csv.DictReader(f)
        try:
            if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_COLUMNS:
                raise DataError(f"{path}:1: unexpected sweep CSV columns")
            for row in reader:
                if row["schema"] != SCHEMA_TAG:
                    raise DataError(f"{path}:{reader.line_num}: unknown schema tag {row['schema']!r}")
                records.append(
                    SweepRecord(
                        model=row["model"],
                        strategy=row["strategy"],
                        param=param_value(row["strategy"], row["param"] or None),
                        n_samples=int(row["n_samples"]),
                        metrics={name: float(row[name]) if row[name] else None for name in METRICS},
                        seed=int(row["seed"]),
                    )
                )
        except UnicodeDecodeError:
            raise  # open_text names the line
        except (csv.Error, TypeError, ValueError) as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    return records


# ---------------------------------------------------------------------------
# Curve fitting and the trade-off table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogFit:
    """Least-squares fit of y = a * ln(x) + b."""

    a: float
    b: float
    residual_sum: float


def fit_log_curve(points) -> LogFit:
    """Closed-form normal equations on (ln x, y) pairs.

    Needs at least two positive x values with distinct logarithms;
    anything else cannot identify a slope. Distinct x values can share
    ln x when they are a few ulps apart.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if any(x <= 0 for x, _ in pts):
        raise DegenerateFit("log fit needs strictly positive x values")
    if len({x for x, _ in pts}) < 2:
        raise DegenerateFit("log fit needs at least two distinct x values")
    us = [math.log(x) for x, _ in pts]
    ys = [y for _, y in pts]
    n = len(pts)
    u_mean = sum(us) / n
    y_mean = sum(ys) / n
    var = sum((u - u_mean) ** 2 for u in us)
    if var == 0:
        raise DegenerateFit("log fit needs at least two distinct ln x values")
    cov = sum((u - u_mean) * (y - y_mean) for u, y in zip(us, ys))
    a = cov / var
    b = y_mean - a * u_mean
    residual = sum((y - (a * u + b)) ** 2 for u, y in zip(us, ys))
    return LogFit(a=a, b=b, residual_sum=residual)


@dataclass(frozen=True)
class TradeoffRow:
    model: str
    strategy: str
    param: float | int | None
    x: float | None
    y: float | None


@dataclass(frozen=True)
class TradeoffTable:
    quality_metric: str
    diversity_metric: str
    rows: tuple[TradeoffRow, ...]
    fits: dict = field(default_factory=dict)  # model -> LogFit | None


def tradeoff_table(
    records: list[SweepRecord],
    quality_metric: str,
    diversity_metric: str,
) -> TradeoffTable:
    """Quality-vs-diversity points with one log fit per model.

    x is the diversity value as-is; y is the quality value, negated when
    the metric is higher-better, so "down and to the left" is always
    worse. Rows with a missing value keep their
    place in the table with blanks and are excluded from fits; a model
    whose usable points cannot support a fit gets fits[model] = None.
    """
    if quality_metric not in METRICS or diversity_metric not in METRICS:
        known = ", ".join(sorted(METRICS))
        raise ConfigError(f"metrics must be one of: {known}")
    rows = []
    per_model: dict[str, list[tuple[float, float]]] = {}
    for r in records:
        quality = r.metrics.get(quality_metric)
        diversity = r.metrics.get(diversity_metric)
        y = None
        if quality is not None:
            y = -quality if METRICS[quality_metric].higher_better else quality
        rows.append(TradeoffRow(r.model, r.strategy, r.param, diversity, y))
        if diversity is not None and diversity > 0 and y is not None:
            per_model.setdefault(r.model, []).append((diversity, y))
    fits = {}
    for model in sorted({r.model for r in records}):
        try:
            fits[model] = fit_log_curve(per_model.get(model, []))
        except DegenerateFit:
            fits[model] = None
    return TradeoffTable(quality_metric, diversity_metric, tuple(rows), fits)


def write_tradeoff(table: TradeoffTable, csv_path: str | Path, fits_path: str | Path) -> None:
    with atomic_write(csv_path, encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["model", "strategy", "param", "x", "y"])
        for row in table.rows:
            writer.writerow(
                [
                    row.model,
                    row.strategy,
                    _format_cell(row.param),
                    _format_cell(row.x),
                    _format_cell(row.y),
                ]
            )
    write_json(fits_path, {
        "quality_metric": table.quality_metric,
        "diversity_metric": table.diversity_metric,
        "fits": {
            model: (
                None
                if fit is None
                else {"a": fit.a, "b": fit.b, "residual_sum": fit.residual_sum}
            )
            for model, fit in table.fits.items()
        },
    })
