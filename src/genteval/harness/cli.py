"""Command-line front end for the whole toolkit.

Subcommands: ingest, train, generate, eval (quality | diversity |
consistency | acceptability), sweep, fit, trace. Global options
``--config`` (a JSON file of option values), ``--seed``, ``--out-dir``
and ``--workers`` (accepted and ignored) apply everywhere. Each option
is declared once, in the parser, with its built-in default; a config
file replaces those defaults, and any flag given on the command line
overrides both.

Config file keys use the flag names with underscores, in one flat
object shared by all subcommands; keys a subcommand does not use are
ignored. A null leaves the built-in default; a list or object is taken
only by the options that read one (``--ratios``, ``--objectives``,
``--strategies``, ``--models``, ``--metrics``); any other value parses as
the text of its flag would, type and choices included.
Exit codes: 0 success, 2 configuration error (including usage errors),
3 data error; a failure prints one line to stderr. Artifacts never embed
absolute paths or timestamps, so two runs from one config produce
byte-identical output trees.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from ..consistency import (
    load_stories,
    load_triples,
    save_selection_result,
    selection_accuracy,
)
from ..corpus import (
    Vocab,
    build_pair_datasets,
    encode,
    read_ids_file,
    load_splits,
    save_splits,
    segment_sentences,
    split_corpus,
    surface_tokens,
    tfidf_scores,
    tokenize,
)
from ..decode import PARAM_FLAGS, DecoderConfig, parse_strategies, strategy_name, token_prob_trace
from ..errors import (
    AlignmentError, ConfigError, DataError, EmptyInput, InsufficientData, atomic_write, open_text,
    write_json, write_jsonl,
)
from ..lm.ffn import FeedForwardLM, check_sizes
from ..lm.ngram import check_settings, ngram_fit
from ..lm.store import load_model, save_model
from ..losses import (
    OBJECTIVES,
    TrainConfig,
    align_labels,
    label_vocab,
    labels_to_ids,
    load_label_file,
    train,
)
from ..metrics import acceptability_penlp
from .samples import load_sample_set, save_sample_set, write_metric_report
from .sweep import (
    METRICS,
    SweepConfig,
    check_positive,
    decode_cell,
    metric_inputs,
    prefix_windows,
    read_sweep_csv,
    run_sweep,
    tradeoff_table,
    write_tradeoff,
)

class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are one-line config errors (exit 2)."""

    def error(self, message: str):
        raise ConfigError(message)


def _build_parser(config: dict | None = None, command: str | None = None) -> argparse.ArgumentParser:
    """The CLI; ``config`` values become the defaults of ``command``'s options.

    With a known ``command`` only its subparser is built, which parses
    that command's arguments exactly as the full parser does; otherwise
    every subcommand is, for the help listing and the unknown-command error.
    """
    parser = _Parser(
        prog="genteval",
        description="Evaluate language models on open-ended generation: "
        "quality, diversity, and consistency.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, metric_settings: bool = False) -> argparse.ArgumentParser | None:
        """``name``'s subparser with its shared options; None when only another command is built."""
        if command in _COMMANDS and command != name:
            return None
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file of option values")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", default=".")
        p.add_argument("--workers", type=int, default=1, help="ignored; sweep cells run serially")
        if metric_settings:
            p.add_argument("--max-n", type=int, default=4)
            p.add_argument("--subsample", type=int)
            p.add_argument("--subsample-seed", type=int, default=0)
            p.add_argument("--fwd-order", type=int, default=2)
            p.add_argument("--fwd-k-s", type=float, default=1.0)
            p.add_argument("--rev-order", type=int, default=2)
            p.add_argument("--rev-k-s", type=float, default=1.0)
        return p

    if p := add("ingest", "tokenize and split a corpus"):
        p.add_argument("--input")
        p.add_argument("--format", choices=("text", "ids"), default="text")
        p.add_argument("--scheme", choices=("word", "char"), default="word")
        p.add_argument("--seq-len", type=int, default=100)
        p.add_argument("--ratios", default="0.8,0.1,0.1", help="train,dev,test fractions")

    if p := add("train", "train an n-gram or feed-forward LM"):
        p.add_argument("--manifest")
        p.add_argument("--backend", choices=("ffn", "ngram"), default="ffn")
        p.add_argument("--model-out")
        p.add_argument("--order", type=int, default=2, help="n-gram order")
        p.add_argument("--k-s", type=float, default=1.0, help="n-gram add-k smoothing")
        p.add_argument("--context", type=int, default=8, help="ffn window size")
        p.add_argument("--embed-dim", type=int, default=32)
        p.add_argument("--hidden-dim", type=int, default=64)
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch-size", type=int)
        p.add_argument("--learning-rate", type=float)
        p.add_argument("--margin", type=float)
        p.add_argument("--objectives", help='e.g. "mle:1.0,ul:0.5"')
        p.add_argument("--mix-prob", type=float)
        p.add_argument("--ul-prefix-len", type=int)
        p.add_argument("--ul-gen-len", type=int)
        p.add_argument("--ul-ngram", type=int)
        p.add_argument("--pairs-text", help="raw text for nsp/sop pairs")
        p.add_argument("--pairs-count", type=int, default=200)
        p.add_argument("--labels", help="TSV label file for pos/dp")
        p.add_argument("--doc-len", type=int, help="tf-idf document length")

    if p := add("generate", "decode continuations into a sample file"):
        p.add_argument("--model")
        p.add_argument("--manifest")
        p.add_argument("--split", choices=("train", "dev", "test"), default="train")
        p.add_argument("--strategy", default="greedy")
        for flag, (_, kind) in PARAM_FLAGS.items():
            p.add_argument(f"--{flag}", type=kind)
        p.add_argument("--prefix-len", type=int, default=50)
        p.add_argument("--gen-len", type=int, default=100)
        p.add_argument("--n-prefixes", type=int)
        p.add_argument("--samples-out")

    if p := add("eval", "score samples or datasets", metric_settings=True):
        p.add_argument("kind", choices=("quality", "diversity", "consistency", "acceptability"))
        p.add_argument("--samples", help="generated SampleSet JSONL")
        p.add_argument("--manifest")
        p.add_argument("--model")
        p.add_argument("--triples")
        p.add_argument("--stories")
        p.add_argument("--sentences", help="file of sentences for acceptability, one per line")
        p.add_argument("--scheme", choices=("word", "char"), default="word")
        p.add_argument("--alpha", type=float, default=0.6)
        p.add_argument("--prefix-len", type=int)
        p.add_argument("--gen-len", type=int)

    if p := add("sweep", "run the model x strategy x param grid", metric_settings=True):
        p.add_argument("--manifest")
        p.add_argument("--models", help='e.g. "mle=out/mle.lmek,ul=out/ul.lmek"')
        p.add_argument("--strategies", help='e.g. "greedy;topp:0.2,0.9;topk:2,10"')
        p.add_argument("--prefix-len", type=int, default=50)
        p.add_argument("--gen-len", type=int, default=100)
        p.add_argument("--n-prefixes", type=int)
        p.add_argument("--metrics", default=",".join(METRICS))

    if p := add("fit", "fit the quality-diversity trade-off curves"):
        p.add_argument("--csv", help="sweep.csv from a finished sweep")
        p.add_argument("--quality", default="corpus_bleu")
        p.add_argument("--diversity", default="self_bleu")

    if p := add("trace", "per-token probability trace as CSV"):
        p.add_argument("--model")
        p.add_argument("--ids", help='space-separated token ids, e.g. "4 1 7"')
        p.add_argument("--text", help="text to encode with --scheme against the model vocab")
        p.add_argument("--scheme", choices=("word", "char"), default="word")
        p.add_argument("--context-ids")
        p.add_argument("--truncate", help='"topk:K" or "topp:P"')
        p.add_argument("--trace-out")

    if config:
        _apply_config(sub.choices[command], config)
    return parser


# The options whose parsers read a config-file list or object as well as the flag's text.
_LIST_OPTIONS = ("ratios", "objectives", "strategies", "models", "metrics")


def _apply_config(p: argparse.ArgumentParser, config: dict) -> None:
    """Make ``config``'s values the defaults of the options of subparser ``p``.

    A null leaves the built-in default. A list or object is taken as is
    by the options of ``_LIST_OPTIONS`` and refused by every other one;
    every other value is parsed as the text of its flag would be, type
    and choices included.
    """
    for a in p._actions:
        value = config.get(a.dest)
        if not a.option_strings or a.dest in ("help", "config") or value is None:
            continue
        listed = isinstance(value, (list, dict))
        if listed and a.type is None and a.dest not in _LIST_OPTIONS:
            raise ConfigError(f"argument {a.option_strings[0]}: takes one value, not a list or object")
        if not (listed and a.dest in _LIST_OPTIONS):  # a typed option refuses a list's text itself
            try:
                value = p._get_value(a, str(value))
                p._check_value(a, value)
            except argparse.ArgumentError as exc:
                raise ConfigError(str(exc)) from None
        p.set_defaults(**{a.dest: value})


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """Flags over the ``--config`` file over the built-in defaults."""
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(command=argv[0] if argv else None).parse_args(argv)
    if args.config is not None:
        args = _build_parser(_load_config(args.config), args.command).parse_args(argv)
    return args


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return data


def _require(opt: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(opt, name) is None:
            raise ConfigError(f"--{name.replace('_', '-')} is required")


def _option_parser(parse):
    """Make a malformed value (not a number, a string or a list of pairs) a config error."""

    def wrapped(raw):
        try:
            return parse(raw)
        except (AttributeError, TypeError, ValueError):
            raise ConfigError(f"malformed option value {raw!r}") from None

    return wrapped


@_option_parser
def _parse_ratios(text: str) -> tuple[float, ...]:
    parts = text.split(",") if isinstance(text, str) else list(text)
    return tuple(float(x) for x in parts)


@_option_parser
def _parse_id_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _vocab_ids(text: str, vocab: Vocab) -> tuple[int, ...]:
    """The ids of a ``trace --ids``/``--context-ids`` value: at least one, each inside ``vocab``."""
    ids = _parse_id_list(text)
    if not ids:
        raise EmptyInput("token sequence must contain at least one id")
    lo, hi = min(ids), max(ids)
    if lo < 0 or hi >= vocab.size:
        raise ConfigError(f"token id {lo if lo < 0 else hi} out of range for vocab of {vocab.size}")
    return ids


_parse_strategies = _option_parser(parse_strategies)


@_option_parser
def _parse_metrics(raw) -> tuple[str, ...]:
    """Metric names from "a,b" text or a config-file list."""
    names = raw.split(",") if isinstance(raw, str) else raw
    return tuple(name.strip() for name in names if name.strip())


@_option_parser
def _parse_models(raw) -> dict[str, str]:
    """Accept "name=path,..." / "path,..." or a dict / list from config."""
    if isinstance(raw, dict):
        return {str(k): os.fspath(v) for k, v in raw.items()}
    if isinstance(raw, str):
        entries = [e.strip() for e in raw.split(",") if e.strip()]
    else:
        entries = [os.fspath(e) for e in raw]
    mapping = {}
    for entry in entries:
        if "=" in entry:
            name, _, path = entry.partition("=")
        else:
            name, path = Path(entry).stem, entry
        if name in mapping:
            raise ConfigError(f"duplicate model name {name!r}")
        mapping[name] = path
    return mapping


@_option_parser
def _parse_objectives(raw) -> tuple[tuple[str, float], ...]:
    if not isinstance(raw, str):  # a config-file list; a bool weight stays for TrainConfig to refuse
        return tuple((kind.strip(), w if isinstance(w, bool) else float(w)) for kind, w in raw)
    out = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        kind, _, weight = part.partition(":")
        out.append((kind.strip(), float(weight) if weight else 1.0))
    return tuple(out)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_ingest(opt: argparse.Namespace) -> int:
    _require(opt, "input")
    if opt.format == "ids":
        ids, _, vocab_size = read_ids_file(opt.input)
        if not ids.size:
            raise DataError(f"{opt.input}: no token ids")
        vocab = Vocab.placeholder(vocab_size)
        tokenizer = {"scheme": "external", "vocab_size": vocab_size}
    else:
        with open_text(opt.input) as f:
            ids, vocab = tokenize(f.read(), opt.scheme)
        tokenizer = {"scheme": opt.scheme, "vocab": list(vocab.tokens)}
    splits = split_corpus(ids, vocab, opt.seq_len, _parse_ratios(opt.ratios))
    manifest_path = save_splits(opt.out_dir, splits, tokenizer, opt.seed)
    counts = splits.counts
    print(f"splits: train={counts[0]} dev={counts[1]} test={counts[2]}")
    print(f"manifest: {manifest_path}")
    return 0


def _build_train_config(opt: argparse.Namespace) -> TrainConfig:
    """The training options that were given, over the TrainConfig defaults."""
    # Every TrainConfig field is the option of the same name.
    given = {f.name: getattr(opt, f.name) for f in fields(TrainConfig)}
    given["objectives"] = None if opt.objectives is None else _parse_objectives(opt.objectives)
    return TrainConfig(**{k: v for k, v in given.items() if v is not None})


# Pool builders, called as builder(opt, splits, scheme, pool): each returns
# the pool's items and the number of labels they classify into.


def _pair_items(opt, splits, scheme: str, mode: str):
    if opt.pairs_text is None:
        raise ConfigError(f"objective {mode!r} needs --pairs-text")
    if scheme == "external":
        raise ConfigError("nsp/sop need a manifest with a text tokenizer")
    with open_text(opt.pairs_text) as f:
        text = f.read()
    sentences = []
    for sent in segment_sentences(text):
        try:
            sentences.append(encode(sent, splits.vocab, scheme, on_oov="skip"))
        except EmptyInput:
            continue
    try:
        return tuple(build_pair_datasets(sentences, mode, opt.pairs_count, opt.seed)), 0
    except InsufficientData as exc:
        raise InsufficientData(
            f"{opt.pairs_text}: {exc} (sentences split only after ./!/? followed by an uppercase letter)"
        ) from None


def _tfidf_items(opt, splits, scheme: str, pool: str):
    doc_len = opt.doc_len if opt.doc_len is not None else splits.seq_len
    targets, width = tfidf_scores(splits.train.reshape(-1), doc_len), splits.seq_len
    chunks = splits.train[: len(targets) // width]  # the chunks that lie within whole documents
    return tuple((seq, tuple(targets[c * width : (c + 1) * width])) for c, seq in enumerate(chunks)), 0


def _label_items(opt, splits, scheme: str, pool: str):
    if opt.labels is None:
        raise ConfigError("objectives pos/dp need --labels")
    if scheme == "external":
        raise ConfigError("pos/dp need a manifest with a text tokenizer")
    sentences = load_label_file(opt.labels)
    table = label_vocab(sentences)
    items = []
    skipped = 0
    for sent in sentences:
        word_tokens = [(surface, label) for surface, label, _ in sent]
        model_surfaces = surface_tokens(" ".join(w for w, _, _ in sent), scheme)
        try:
            aligned = align_labels(word_tokens, model_surfaces)
        except AlignmentError:
            skipped += 1
            continue
        if any(s not in splits.vocab for s in model_surfaces):
            skipped += 1
            continue
        label_ids = labels_to_ids(aligned, table)
        if all(lab is None for lab in label_ids):
            skipped += 1
            continue
        items.append((tuple(map(splits.vocab.id_of, model_surfaces)), tuple(label_ids)))
    if not items:
        raise DataError(f"{opt.labels}: no usable labeled sentences")
    if skipped:
        print(f"labels: skipped {skipped} sentences (alignment or vocab)", file=sys.stderr)
    return tuple(items), len(table)


_POOL_ITEMS = {"sequences": lambda opt, splits, *_: (splits.train, 0), "nsp": _pair_items, "sop": _pair_items,
               "tfidf": _tfidf_items, "pos": _label_items, "dp": _label_items}


def _cmd_train(opt: argparse.Namespace) -> int:
    _require(opt, "manifest")
    # Settings are checked before any split is read.
    if opt.backend == "ngram":
        check_settings(opt.order, opt.k_s)
    else:
        cfg = _build_train_config(opt)
        check_sizes(opt.context, opt.embed_dim, opt.hidden_dim)
    splits, manifest = load_splits(opt.manifest)
    scheme = manifest["tokenizer"].get("scheme", "external")
    model_out = Path(opt.model_out) if opt.model_out else Path(opt.out_dir) / "model.lmek"

    if opt.backend == "ngram":
        model = ngram_fit(splits.train, splits.vocab, opt.order, opt.k_s)
        save_model(model, model_out)
        print(f"model: {model_out}")
        return 0

    pools, n_labels = {}, 0
    for pool in cfg.pools:
        pools[pool], labels = _POOL_ITEMS[pool](opt, splits, scheme, pool)
        n_labels = max(n_labels, labels)

    regression = any(OBJECTIVES[kind].head == "regression" for kind, _ in cfg.active)
    model = FeedForwardLM.init(splits.vocab, context=opt.context, embed_dim=opt.embed_dim, hidden_dim=opt.hidden_dim,
                               seed=opt.seed, n_labels=n_labels, regression=regression)
    history = train(model, pools, cfg, seed=opt.seed)
    write_json(model_out.parent / "train_history.json", history)
    save_model(model, model_out)
    print(f"model: {model_out}")
    print(f"steps: {len(history)}  final total loss: {history[-1]['total']:.6f}")
    return 0


def _cmd_generate(opt: argparse.Namespace) -> int:
    _require(opt, "model", "manifest")
    strategy, param, t = strategy_name(opt.strategy), None, None
    for flag, (owner, _) in PARAM_FLAGS.items():
        value = getattr(opt, flag)
        if value is None:
            continue
        if owner == strategy:
            param = value
        elif (strategy, owner) == ("penalized", "temperature"):  # penalized samples at --t
            t = value
        else:
            raise ConfigError(f"parameter {flag} not valid for strategy {strategy}")
    dcfg = DecoderConfig(strategy, param, opt.gen_len, t)
    model = load_model(opt.model)
    splits, _ = load_splits(opt.manifest)
    prefixes = prefix_windows(splits, opt.split, opt.prefix_len, opt.n_prefixes)
    sset = decode_cell(model, Path(opt.model).stem, prefixes, dcfg, opt.seed)
    samples_out = Path(opt.samples_out) if opt.samples_out else Path(opt.out_dir) / "samples.jsonl"
    save_sample_set(samples_out, sset)
    print(f"samples: {samples_out} ({len(sset)} continuations)")
    return 0


def _eval_metrics(opt: argparse.Namespace) -> int:
    """Report every metric of kind ``opt.kind`` through the sweep's table."""
    _require(opt, "samples", "manifest")
    check_positive(prefix_len=opt.prefix_len, gen_len=opt.gen_len)
    splits, _ = load_splits(opt.manifest)
    gen = load_sample_set(opt.samples, splits.vocab)
    # By default, the first sample's prefix (or 1) and continuation lengths.
    prefix_len = opt.prefix_len if opt.prefix_len is not None else int(gen.prefix_bounds[1]) or 1
    gen_len = opt.gen_len if opt.gen_len is not None else int(gen.bounds[1])
    provenance = dict(gen.provenance)
    provenance["samples"] = Path(opt.samples).name
    names = [name for name, metric in METRICS.items() if metric.kind == opt.kind]
    inputs = metric_inputs(opt, names, splits, prefix_len, gen_len)
    out = Path(opt.out_dir)
    for name in names:
        value, nulls = METRICS[name].compute(gen, inputs)
        write_metric_report(
            out / f"report_{name}.json",
            name,
            value,
            METRICS[name].config(opt),
            provenance,
            len(gen),
            nulls_excluded=nulls,
        )
        print(f"{name}: {'null' if value is None else f'{value:.6f}'}")
    return 0


def _cmd_eval(opt: argparse.Namespace) -> int:
    if opt.kind in ("quality", "diversity"):
        return _eval_metrics(opt)
    out = Path(opt.out_dir)
    if opt.kind == "consistency":
        if (opt.triples is None) == (opt.stories is None):
            raise ConfigError("eval consistency needs exactly one of --triples/--stories")
        _require(opt, "model")
        model = load_model(opt.model)
        if opt.triples is not None:
            loaded, report_path = load_triples(opt.triples), out / "report_nli.json"
        else:
            loaded, report_path = load_stories(opt.stories), out / "report_story.json"
        result = selection_accuracy(
            model,
            loaded.records,
            lambda text: encode(text, model.vocab, opt.scheme, on_oov="skip"),
        )
        save_selection_result(result, report_path, loaded.issues)
        print(
            f"accuracy: {result.accuracy:.4f} over {result.n} items "
            f"({result.ties} ties, {len(loaded.issues)} skipped lines)"
        )
        print(f"report: {report_path}")
        return 0
    # acceptability
    _require(opt, "model", "sentences")
    model = load_model(opt.model)
    with open_text(opt.sentences) as f:
        lines = [line.strip() for line in f if line.strip()]
    if not lines:
        raise DataError(f"{opt.sentences}: no sentences")
    seqs = []
    for line in lines:
        try:
            seqs.append(encode(line, model.vocab, opt.scheme, on_oov="skip"))
        except EmptyInput:
            seqs.append(())  # no in-vocab token: a null row
    scores = acceptability_penlp(model, [s for s in seqs if len(s)], alpha=opt.alpha)
    nulls = len(seqs) - len(scores)
    values = iter(scores)
    rows = [{"index": i, "penlp": next(values) if len(s) else None, "n_tokens": len(s)} for i, s in enumerate(seqs)]
    items_path = out / "acceptability.items.jsonl"
    write_jsonl(items_path, rows)
    mean = sum(scores) / len(scores) if scores else None
    write_metric_report(
        out / "report_acceptability.json",
        "acceptability",
        mean,
        {"alpha": opt.alpha, "scheme": opt.scheme},
        {"model": Path(opt.model).stem, "sentences": Path(opt.sentences).name},
        len(lines),
        nulls_excluded=nulls,
    )
    print(f"acceptability: {'null' if mean is None else f'{mean:.6f}'} ({items_path})")
    return 0


def _cmd_sweep(opt: argparse.Namespace) -> int:
    _require(opt, "manifest", "models", "strategies")
    mapping = _parse_models(opt.models)
    # Every other SweepConfig field is the option of the same name.
    parsed = {"models": tuple(mapping), "metrics": _parse_metrics(opt.metrics),
              "strategies": _parse_strategies(opt.strategies)}
    cfg = SweepConfig(**{f.name: parsed.get(f.name, getattr(opt, f.name)) for f in fields(SweepConfig)})
    out = Path(opt.out_dir)
    splits, _ = load_splits(opt.manifest)
    records = run_sweep(cfg, splits, out, models=mapping)
    failed = [r for r in records if r.failed]
    print(f"sweep: {len(records)} cells, {len(failed)} failed -> {out / 'sweep.csv'}")
    for r in failed:
        print(f"failed cell {r.model}/{r.strategy}/{r.param}: {r.failed}", file=sys.stderr)
    return 0


def _cmd_fit(opt: argparse.Namespace) -> int:
    _require(opt, "csv")
    out = Path(opt.out_dir)
    records = read_sweep_csv(opt.csv)
    table = tradeoff_table(records, opt.quality, opt.diversity)
    write_tradeoff(table, out / "tradeoff.csv", out / "fits.json")
    for model, fit in sorted(table.fits.items()):
        if fit is None:
            print(f"{model}: fit degenerate (too few usable points)")
        else:
            print(f"{model}: y = {fit.a:.6f} * ln(x) + {fit.b:.6f}  (residual {fit.residual_sum:.6f})")
    print(f"tradeoff: {out / 'tradeoff.csv'}")
    return 0


def _cmd_trace(opt: argparse.Namespace) -> int:
    _require(opt, "model")
    if (opt.ids is None) == (opt.text is None):
        raise ConfigError("trace needs exactly one of --ids/--text")
    truncation = None
    if opt.truncate is not None:
        cells = [(name, p) for name, params in _parse_strategies(opt.truncate) for p in params]
        if len(cells) != 1:
            raise ConfigError('truncation must be one "topk:K" or "topp:P"')
        truncation = DecoderConfig(*cells[0], max_len=1)
    model = load_model(opt.model)
    if opt.ids is not None:
        seq = _vocab_ids(opt.ids, model.vocab)
    else:
        seq = encode(opt.text, model.vocab, opt.scheme, on_oov="error").tolist()
    context = _vocab_ids(opt.context_ids, model.vocab) if opt.context_ids else ()
    raw, trunc = token_prob_trace(model, seq, truncation, context)
    trace_out = Path(opt.trace_out) if opt.trace_out else Path(opt.out_dir) / "trace.csv"
    with atomic_write(trace_out, encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["position", "token_id", "token", "prob", "truncated_prob"])
        for pos, (tok, p, q) in enumerate(zip(seq, raw.tolist(), trunc.tolist())):
            writer.writerow([pos, tok, model.vocab.tokens[tok], repr(p), repr(q)])
    print(f"trace: {trace_out} ({len(seq)} positions)")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "train": _cmd_train,
    "generate": _cmd_generate,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "fit": _cmd_fit,
    "trace": _cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        return _fail("config error", exc, 2)
    except (DataError, OSError, UnicodeDecodeError) as exc:
        return _fail("data error", exc, 3)


def _fail(kind: str, exc: Exception, code: int) -> int:
    """Report ``exc`` on one stderr line, even when its text quotes a newline."""
    print(f"{kind}: " + " ".join(str(exc).splitlines()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
