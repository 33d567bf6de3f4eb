"""Sample persistence, sweep orchestration, curve fits, trade-off tables."""

import contextlib
import json
import math
import sys
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genteval.corpus import CorpusSplits, Vocab, ngram_windows, write_ids_file
from genteval.decode import DecoderConfig, parse_strategies
from genteval.errors import ConfigError, DataError, DegenerateFit, atomic_write
from genteval.harness.samples import load_sample_set, save_sample_set, write_metric_report
from genteval.harness.sweep import (
    CSV_COLUMNS,
    SCHEMA_TAG,
    LogFit,
    SweepConfig,
    SweepRecord,
    cell_key,
    fit_log_curve,
    read_sweep_csv,
    reference_set,
    run_sweep,
    sample_seed,
    tradeoff_table,
    write_sweep_csv,
    write_tradeoff,
)
from genteval.metrics import Sample, SampleSet

from oracles import StackedRows, naive_load_sample_set

VOCAB = Vocab.placeholder(6)


class CountingModel(StackedRows):
    """Deterministic stub whose next_dist calls are observable."""

    def __init__(self, vocab, shift=0):
        self.vocab = vocab
        self.shift = shift
        self.calls = 0

    def next_dist(self, context):
        self.calls += 1
        dist = np.full(self.vocab.size, 0.05 / (self.vocab.size - 1))
        dist[(len(context) + self.shift) % self.vocab.size] = 0.95
        return dist / dist.sum()

    def score(self, seq, context=()):
        return len(seq) * math.log(1.0 / self.vocab.size)


def mk_splits(train=4, test=3, length=10):
    def chunk(tag, i):
        return [(i + j + tag) % VOCAB.size for j in range(length)]

    return CorpusSplits(
        VOCAB, length, (0.8, 0.0, 0.2),
        train=[chunk(0, i) for i in range(train)], test=[chunk(1, i) for i in range(test)],
    )


def mk_cfg(**kw):
    kw.setdefault("models", ("m1",))
    kw.setdefault("strategies", (("greedy", (None,)), ("topk", (2, 3))))
    kw.setdefault("prefix_len", 3)
    kw.setdefault("gen_len", 5)
    return SweepConfig(**kw)


# ---------------------------------------------------------------------------
# Sample persistence
# ---------------------------------------------------------------------------


def _sample_set():
    prov = {"model": "toy", "strategy": "topp", "param": 0.9, "seed": 3}
    return SampleSet(["0", "1", "2"], VOCAB, [(2, 3, i) for i in range(3)], [(0, 1)] * 3, prov)


def test_sample_roundtrip_preserves_ids_and_provenance(tmp_path):
    path = tmp_path / "samples.jsonl"
    original = _sample_set()
    save_sample_set(path, original)
    loaded = load_sample_set(path, vocab=VOCAB)
    assert [s.id for s in loaded.samples] == ["0", "1", "2"]
    assert [s.continuation.tolist() for s in loaded.samples] == [
        s.continuation.tolist() for s in original.samples
    ]
    assert loaded.provenance == original.provenance


def test_sample_jsonl_has_pinned_keys(tmp_path):
    path = tmp_path / "samples.jsonl"
    save_sample_set(path, _sample_set())
    row = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    assert set(row) == {
        "id", "model", "strategy", "param", "seed", "prefix_ids", "continuation_ids",
    }


def test_a_writer_that_fails_midway_keeps_the_previous_file(tmp_path):
    path = tmp_path / "samples.jsonl"
    save_sample_set(path, _sample_set())
    before = path.read_bytes()
    unwritable = SampleSet(["0", object()], VOCAB, [(2, 3), (2, 4)])
    with pytest.raises(TypeError):  # after the first line went out
        save_sample_set(path, unwritable)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["samples.jsonl"]
    with pytest.raises(KeyboardInterrupt):
        with atomic_write(tmp_path / "new.txt", encoding="utf-8") as f:
            f.write("partial")
            raise KeyboardInterrupt
    assert [p.name for p in tmp_path.iterdir()] == ["samples.jsonl"]

    def failing_source():
        yield (1, 2)
        raise RuntimeError("source failed")

    ids = tmp_path / "data" / "train.ids.txt"
    ids.parent.mkdir()
    write_ids_file(ids, [(3, 4)], vocab_size=9)
    before = ids.read_bytes()
    with pytest.raises(RuntimeError):
        write_ids_file(ids, failing_source(), vocab_size=9)
    assert ids.read_bytes() == before
    assert [p.name for p in ids.parent.iterdir()] == ["train.ids.txt"]


def test_load_sample_set_errors(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(DataError):
        load_sample_set(empty, VOCAB)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_sample_set(bad, VOCAB)


def _outcome(load, path):
    try:
        return load(path)
    except DataError as exc:  # the two loaders must fail alike
        return str(exc)


# Rows of ids that may leave the vocab of 6 (below 0, at 6, far past it), in
# the prefix or the continuation; nothing else in the file is wrong.
_ROW_IDS = st.lists(st.integers(0, 5) | st.sampled_from([-1, -7, 6, 9, 2**70]), max_size=5)


@given(rows=st.lists(st.tuples(_ROW_IDS, _ROW_IDS.filter(bool)), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_load_sample_set_checks_ids_as_the_per_row_check_did(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("samples") / "s.jsonl"
    path.write_text("".join(
        json.dumps({"id": i, "model": "m", "prefix_ids": p, "continuation_ids": c}) + "\n\n" * (i % 2)
        for i, (p, c) in enumerate(rows)
    ), encoding="utf-8")

    def fast(path):
        sset = load_sample_set(path, VOCAB)
        rows = [(s.id, tuple(s.prefix.tolist()), tuple(s.continuation.tolist())) for s in sset.samples]
        return rows, sset.provenance

    assert _outcome(fast, path) == _outcome(lambda p: naive_load_sample_set(p, VOCAB), path)


def test_metric_report_keys(tmp_path):
    path = tmp_path / "report.json"
    write_metric_report(
        path, "self_bleu", 0.25, {"max_n": 4}, {"model": "toy"}, 10, nulls_excluded=1
    )
    data = json.loads(path.read_text(encoding="utf-8"))
    assert set(data) == {
        "metric", "value", "config", "provenance", "n_samples", "nulls_excluded",
    }
    assert data["value"] == 0.25 and data["nulls_excluded"] == 1


# ---------------------------------------------------------------------------
# Sweep configuration
# ---------------------------------------------------------------------------


def test_cells_cover_grid_in_order():
    cfg = mk_cfg(models=("m1", "m2"))
    assert cfg.cells() == [
        ("m1", "greedy", None),
        ("m1", "topk", 2),
        ("m1", "topk", 3),
        ("m2", "greedy", None),
        ("m2", "topk", 2),
        ("m2", "topk", 3),
    ]


def test_sweep_config_rejects_duplicates():
    with pytest.raises(ConfigError):
        mk_cfg(strategies=(("topk", (2, 2)),))
    with pytest.raises(ConfigError):
        mk_cfg(models=("m1", "m1"))
    with pytest.raises(ConfigError):
        mk_cfg(metrics=("bogus",))


def test_cell_key_is_path_safe():
    assert "/" not in cell_key("runs/model", "topp", 0.9)
    assert cell_key("m", "topk", 2) != cell_key("m", "topk", 3)


def test_sample_seed_varies_per_index_and_cell():
    seeds = {sample_seed(7, "m", "topp", 0.9, i) for i in range(50)}
    assert len(seeds) == 50
    assert sample_seed(7, "m", "topp", 0.9, 0) == sample_seed(7, "m", "topp", 0.9, 0)
    assert sample_seed(7, "m", "topp", 0.9, 0) != sample_seed(7, "m", "topk", 2, 0)


# sample_seed of samples 0 and 3 of cell m/<spec> at base seed 7, as computed
# before the strategy table moved into decode. The seed hashes str(param), so
# these pin each parameter's type: topk:40 stays 40, temperature:1 stays 1.0.
_FROZEN_SEEDS = {
    "greedy": (11070713176002198970, 10911758193573370697),
    "beam:4": (4356883094966602761, 15152942434592410782),
    "temperature:1": (3248580014347983152, 6441054474462168147),
    "temp:0.8": (8545874988144759380, 1322561487466395619),
    "topk:40": (16436721261280439829, 8257377725250173324),
    "topp:0.9": (4017251578694135109, 11053629851708410692),
    "penalized:1.5": (18326288704410012915, 12703631045951938638),
}


@pytest.mark.parametrize("spec", list(_FROZEN_SEEDS))
def test_strategy_specs_keep_their_sample_seeds(spec):
    ((strategy, (param,)),) = parse_strategies(spec)
    cfg = DecoderConfig(strategy, param, 5)
    assert cfg.param == param and type(cfg.param) is type(param)
    assert tuple(sample_seed(7, "m", cfg.strategy, cfg.param, i) for i in (0, 3)) == _FROZEN_SEEDS[spec]


def test_strategy_specs_round_trip_through_the_sweep_csv(tmp_path):
    cfg = mk_cfg(strategies=parse_strategies(";".join(_FROZEN_SEEDS)))
    write_sweep_csv(tmp_path / "sweep.csv", [SweepRecord(m, s, p, 1, {}, 0) for m, s, p in cfg.cells()])
    back = [(r.strategy, r.param, type(r.param)) for r in read_sweep_csv(tmp_path / "sweep.csv")]
    assert back == [(s, p, type(p)) for _, s, p in cfg.cells()]
    assert [type(p) for _, _, p in cfg.cells()] == [type(None), int, float, float, int, float, float]


@pytest.mark.parametrize("bad", [
    dict(strategies=(("topk", (0,)),)),
    dict(strategies=(("greedy", (3.0,)),)),
    dict(strategies=(("topp", (1.5,)),)),
    dict(strategies=(("beam", (None,)),)),
    dict(strategies=(("topk", (2, 2.0)),)),
    dict(n_prefixes=0),
    dict(prefix_len=0),
])
def test_sweep_config_checks_every_cell(bad):
    with pytest.raises(ConfigError):
        mk_cfg(**bad)


def test_sweep_config_gives_each_param_its_field_type():
    cfg = mk_cfg(strategies=(("greedy", (None,)), ("topk", (40.0,)), ("beam", ("2",)), ("temperature", (1,))))
    assert [(s, p, type(p)) for _, s, p in cfg.cells()] == [
        ("greedy", None, type(None)), ("topk", 40, int), ("beam", 2, int), ("temperature", 1.0, float)
    ]


def test_reference_set_skips_short_chunks():
    splits = CorpusSplits(VOCAB, 6, (0, 0, 1), test=[[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]])
    refs = reference_set(splits, prefix_len=3, gen_len=10)
    assert [s.id for s in refs.samples] == ["ref-0", "ref-1"]
    # continuation is everything after the prefix, capped by gen_len
    assert [s.continuation.tolist() for s in refs.samples] == [[3, 4, 5], [2, 1, 0]]
    assert [s.prefix.tolist() for s in refs.samples] == [[0, 1, 2], [5, 4, 3]]
    # Every chunk of a split is seq_len ids long, so none outlasts a prefix that long.
    assert len(reference_set(splits, prefix_len=6, gen_len=10)) == 0


# ---------------------------------------------------------------------------
# Sweep runs
# ---------------------------------------------------------------------------


def test_run_sweep_produces_grid_records_and_files(tmp_path):
    cfg = mk_cfg(models=("m1", "m2"))
    models = {"m1": CountingModel(VOCAB, 0), "m2": CountingModel(VOCAB, 2)}
    records = run_sweep(cfg, mk_splits(), tmp_path, models=models)
    assert [(r.model, r.strategy, r.param) for r in records] == cfg.cells()
    assert all(r.failed is None for r in records)
    assert all(r.n_samples == 4 for r in records)
    for r in records:
        assert set(r.metrics) == set(cfg.metrics)
        assert all(v is not None for v in r.metrics.values())
    assert len(list((tmp_path / "records").glob("*.json"))) == 6
    assert len(list((tmp_path / "samples").glob("*.jsonl"))) == 6
    assert (tmp_path / "sweep.csv").exists()


def test_run_sweep_empty_strategies_yields_header_only_csv(tmp_path):
    cfg = mk_cfg(strategies=())
    records = run_sweep(cfg, mk_splits(), tmp_path, models={"m1": CountingModel(VOCAB)})
    assert records == []
    lines = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    assert lines[0].split(",") == list(CSV_COLUMNS)


def test_run_sweep_is_deterministic_across_directories(tmp_path):
    cfg = mk_cfg()
    out = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        run_sweep(cfg, mk_splits(), d, models={"m1": CountingModel(VOCAB)})
        out.append((d / "sweep.csv").read_bytes())
    assert out[0] == out[1]


def test_a_sweep_windows_each_sample_set_once(tmp_path):
    """Each cell windows its samples once; the forward-ppl fit and the
    reference table window once per sweep. With continuations shorter than
    4, Self-BLEU asks for fewer orders than seq-rep-4 does, and the cell
    still windows once."""
    for gen_len in (5, 3):
        windowed = []

        def counted(flat, lengths, max_n):
            windowed.append(len(lengths))
            return ngram_windows(flat, lengths, max_n)

        cfg = mk_cfg(models=("m1", "m2"), gen_len=gen_len)
        models = {"m1": CountingModel(VOCAB, 0), "m2": CountingModel(VOCAB, 2)}
        with contextlib.ExitStack() as stack:
            for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "genteval"]:
                if getattr(module, "ngram_windows", None) is ngram_windows:
                    stack.enter_context(mock.patch.object(module, "ngram_windows", counted))
            records = run_sweep(cfg, mk_splits(), tmp_path / str(gen_len), models=models)
        assert len(records) == 6 and all(r.failed is None and len(r.metrics) == 5 for r in records)
        assert len(windowed) <= len(records) + 2


def test_run_sweep_reuses_finished_cells(tmp_path):
    cfg = mk_cfg()
    model = CountingModel(VOCAB)
    first = run_sweep(cfg, mk_splits(), tmp_path, models={"m1": model})
    model.calls = 0
    second = run_sweep(cfg, mk_splits(), tmp_path, models={"m1": model})
    assert model.calls == 0  # everything came from the on-disk records
    assert [asdict(r) for r in first] == [asdict(r) for r in second]


def test_run_sweep_recomputes_when_config_changes(tmp_path):
    model = CountingModel(VOCAB)
    run_sweep(mk_cfg(), mk_splits(), tmp_path, models={"m1": model})
    model.calls = 0
    run_sweep(mk_cfg(seed=1), mk_splits(), tmp_path, models={"m1": model})
    assert model.calls > 0


def test_run_sweep_recomputes_on_corrupt_samples(tmp_path):
    cfg = mk_cfg(strategies=(("greedy", (None,)),))
    model = CountingModel(VOCAB)
    run_sweep(cfg, mk_splits(), tmp_path, models={"m1": model})
    target = next((tmp_path / "samples").glob("*.jsonl"))
    good = target.read_bytes()
    target.write_text("tampered\n", encoding="utf-8")
    model.calls = 0
    run_sweep(cfg, mk_splits(), tmp_path, models={"m1": model})
    assert model.calls > 0
    assert target.read_bytes() == good  # regenerated identically


@pytest.mark.parametrize("junk", [b"\xff\xfe{", b"[1, 2]", b'{"model": "m1"}'])
def test_run_sweep_recomputes_an_unreadable_record(tmp_path, junk):
    cfg = mk_cfg(strategies=(("greedy", (None,)),))
    model = CountingModel(VOCAB)
    run_sweep(cfg, mk_splits(), tmp_path, models={"m1": model})
    target = next((tmp_path / "records").glob("*.json"))
    good = target.read_bytes()
    target.write_bytes(junk)
    model.calls = 0
    run_sweep(cfg, mk_splits(), tmp_path, models={"m1": model})
    assert model.calls > 0
    assert target.read_bytes() == good


def test_run_sweep_isolates_failing_model_and_retries_it(tmp_path):
    cfg = mk_cfg(models=("m1", "m2"))
    models = {"m1": CountingModel(VOCAB), "m2": str(tmp_path / "missing.lm")}
    records = run_sweep(cfg, mk_splits(), tmp_path, models=models)
    by_model = {}
    for r in records:
        by_model.setdefault(r.model, []).append(r)
    assert all(r.failed is None for r in by_model["m1"])
    assert all(r.failed is not None for r in by_model["m2"])
    assert all(r.n_samples == 0 and r.metrics == {} for r in by_model["m2"])
    # failed cells are retried, not reused: supply a live model and rerun
    models["m2"] = CountingModel(VOCAB, 2)
    again = run_sweep(cfg, mk_splits(), tmp_path, models=models)
    assert all(r.failed is None for r in again)


# ---------------------------------------------------------------------------
# CSV io
# ---------------------------------------------------------------------------


def test_sweep_csv_roundtrip(tmp_path):
    cfg = mk_cfg()
    records = run_sweep(cfg, mk_splits(), tmp_path, models={"m1": CountingModel(VOCAB)})
    back = read_sweep_csv(tmp_path / "sweep.csv")
    assert len(back) == len(records)
    for orig, rec in zip(records, back):
        assert (rec.model, rec.strategy, rec.param) == (orig.model, orig.strategy, orig.param)
        assert isinstance(rec.param, int) or rec.param is None
        assert rec.n_samples == orig.n_samples and rec.seed == orig.seed
        for name, value in orig.metrics.items():
            assert rec.metrics[name] == value  # repr round-trips floats exactly


def test_read_sweep_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text("model,oops\nx,y\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"sweep\.csv:1: unexpected sweep CSV columns"):
        read_sweep_csv(path)


def test_read_sweep_csv_rejects_unknown_schema(tmp_path):
    path = tmp_path / "sweep.csv"
    record = SweepRecord("m", "greedy", None, 1, {"corpus_bleu": 0.5}, 0)
    write_sweep_csv(path, [record])
    text = path.read_text(encoding="utf-8").replace(SCHEMA_TAG, "v999")
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=r"sweep\.csv:2: unknown schema tag 'v999'"):
        read_sweep_csv(path)


# ---------------------------------------------------------------------------
# Log fits and the trade-off table
# ---------------------------------------------------------------------------


def test_fit_log_curve_recovers_exact_coefficients():
    points = [(x, 2.0 * math.log(x) + 1.0) for x in (1.0, 2.0, 4.0, 8.0, 16.0)]
    fit = fit_log_curve(points)
    assert fit.a == pytest.approx(2.0, abs=1e-12)
    assert fit.b == pytest.approx(1.0, abs=1e-12)
    assert fit.residual_sum == pytest.approx(0.0, abs=1e-12)
    assert fit.a + fit.b == pytest.approx(3.0, abs=1e-12)  # the curve at x = e


def test_fit_log_curve_constant_y():
    fit = fit_log_curve([(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)])
    assert fit.a == pytest.approx(0.0, abs=1e-12)
    assert fit.b == pytest.approx(5.0, abs=1e-12)


def test_fit_log_curve_two_points_interpolates():
    fit = fit_log_curve([(1.0, 0.0), (math.e, 3.0)])
    assert fit.residual_sum == pytest.approx(0.0, abs=1e-12)
    assert fit.a == pytest.approx(3.0, abs=1e-12)


def test_fit_log_curve_degenerate_inputs():
    with pytest.raises(DegenerateFit):
        fit_log_curve([(2.0, 1.0), (2.0, 3.0)])  # one distinct x
    with pytest.raises(DegenerateFit):
        fit_log_curve([(0.0, 1.0), (2.0, 3.0)])  # non-positive x
    with pytest.raises(DegenerateFit):
        fit_log_curve([])


def test_fit_log_curve_distinct_x_with_equal_logs():
    # Two self_bleu values a few ulps apart, seen from a near-untrained
    # model; their logarithms are the same double.
    xs = (2.4636069805109172e-08, 2.4636069805109176e-08)
    assert xs[0] != xs[1] and math.log(xs[0]) == math.log(xs[1])
    with pytest.raises(DegenerateFit):
        fit_log_curve([(xs[0], 1.0), (xs[1], 2.0)])
    records = [_record("m", 0.5, corpus_bleu=0.1, self_bleu=xs[0]),
               _record("m", 0.9, corpus_bleu=0.2, self_bleu=xs[1])]
    assert tradeoff_table(records, "corpus_bleu", "self_bleu").fits == {"m": None}


def _record(model, param, **metrics):
    return SweepRecord(model, "topp", param, 4, metrics, 0)


def test_tradeoff_negates_higher_better_quality():
    records = [_record("m", 0.5, corpus_bleu=0.3, self_bleu=0.8)]
    table = tradeoff_table(records, "corpus_bleu", "self_bleu")
    row = table.rows[0]
    assert row.x == 0.8 and row.y == -0.3


def test_tradeoff_keeps_lower_better_quality_sign():
    records = [_record("m", 0.5, seq_rep_4=0.2, self_bleu=0.8)]
    table = tradeoff_table(records, "seq_rep_4", "self_bleu")
    assert table.rows[0].y == 0.2


def test_tradeoff_rejects_unknown_metric():
    with pytest.raises(ConfigError):
        tradeoff_table([], "bogus", "self_bleu")


def test_tradeoff_null_rows_kept_but_not_fit(tmp_path):
    records = [
        _record("m", 0.1, corpus_bleu=None, self_bleu=0.9),
        _record("m", 0.5, corpus_bleu=0.4, self_bleu=0.7),
        _record("m", 0.9, corpus_bleu=0.2, self_bleu=0.3),
    ]
    table = tradeoff_table(records, "corpus_bleu", "self_bleu")
    assert len(table.rows) == 3
    assert table.rows[0].y is None
    assert isinstance(table.fits["m"], LogFit)
    # the None row is excluded, so the fit uses exactly two points
    assert table.fits["m"].residual_sum == pytest.approx(0.0, abs=1e-12)


def test_tradeoff_all_null_model_gets_none_fit(tmp_path):
    records = [_record("m", 0.5, corpus_bleu=None, self_bleu=None)]
    table = tradeoff_table(records, "corpus_bleu", "self_bleu")
    assert table.fits["m"] is None
    csv_path = tmp_path / "tradeoff.csv"
    fits_path = tmp_path / "fits.json"
    write_tradeoff(table, csv_path, fits_path)
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "model,strategy,param,x,y"
    assert lines[1] == "m,topp,0.5,,"
    fits = json.loads(fits_path.read_text(encoding="utf-8"))
    assert fits["fits"] == {"m": None}


def test_write_tradeoff_serializes_fit(tmp_path):
    records = [
        _record("m", 0.2, corpus_bleu=0.4, self_bleu=0.6),
        _record("m", 0.8, corpus_bleu=0.1, self_bleu=0.2),
    ]
    table = tradeoff_table(records, "corpus_bleu", "self_bleu")
    write_tradeoff(table, tmp_path / "t.csv", tmp_path / "f.json")
    payload = json.loads((tmp_path / "f.json").read_text(encoding="utf-8"))
    assert payload["quality_metric"] == "corpus_bleu"
    assert set(payload["fits"]["m"]) == {"a", "b", "residual_sum"}
