"""End-to-end command-line runs, exercised in process via main()."""

import json
import math

import pytest

from genteval.corpus import write_ids_file
from genteval.harness.cli import DEFAULTS, _build_parser, main
from genteval.harness.sweep import SweepRecord, cell_key, read_sweep_csv, write_sweep_csv
from toytext import make_text


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus + manifest + trained bigram model shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    text_path = root / "corpus.txt"
    text_path.write_text(make_text(300, seed=4), encoding="utf-8")
    data = root / "data"
    rc = main(
        ["ingest", "--input", str(text_path), "--out-dir", str(data), "--seq-len", "30"]
    )
    assert rc == 0
    model_dir = root / "model"
    rc = main(
        [
            "train",
            "--manifest", str(data / "manifest.json"),
            "--backend", "ngram",
            "--order", "2",
            "--out-dir", str(model_dir),
        ]
    )
    assert rc == 0
    return {
        "root": root,
        "text": text_path,
        "manifest": data / "manifest.json",
        "model": model_dir / "model.lmek",
    }


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def test_ingest_writes_split_files_and_manifest(workspace):
    data = workspace["manifest"].parent
    for name in ("train.ids.txt", "dev.ids.txt", "test.ids.txt", "manifest.json"):
        assert (data / name).exists()
    manifest = json.loads(workspace["manifest"].read_text(encoding="utf-8"))
    assert manifest["seq_len"] == 30
    assert manifest["tokenizer"]["scheme"] == "word"


def test_ingest_ids_format(tmp_path):
    ids_path = tmp_path / "corpus.ids.txt"
    write_ids_file(ids_path, [[i % 5 for i in range(40)], [3, 3, 4]], vocab_size=5)
    out = tmp_path / "out"
    rc = main(
        [
            "ingest",
            "--input", str(ids_path),
            "--format", "ids",
            "--out-dir", str(out),
            "--seq-len", "10",
        ]
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["tokenizer"] == {"scheme": "external", "vocab_size": 5}


def test_ingest_missing_input_is_config_error(tmp_path):
    assert main(["ingest", "--out-dir", str(tmp_path)]) == 2


def test_ingest_unreadable_input_is_data_error(tmp_path):
    rc = main(["ingest", "--input", str(tmp_path / "nope.txt"), "--out-dir", str(tmp_path)])
    assert rc == 3


def test_config_file_supplies_values_and_flags_override(tmp_path):
    text = tmp_path / "c.txt"
    text.write_text(make_text(200, seed=9), encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(text), "seq_len": 25}), encoding="utf-8")
    out1 = tmp_path / "from-config"
    assert main(["ingest", "--config", str(cfg), "--out-dir", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["seq_len"] == 25
    out2 = tmp_path / "flag-wins"
    assert main(
        ["ingest", "--config", str(cfg), "--out-dir", str(out2), "--seq-len", "20"]
    ) == 0
    manifest = json.loads((out2 / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["seq_len"] == 20


def test_malformed_config_file_is_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{broken", encoding="utf-8")
    assert main(["ingest", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_ngram_writes_model(workspace):
    assert workspace["model"].exists()


def test_train_ffn_writes_history(workspace, tmp_path):
    rc = main(
        [
            "train",
            "--manifest", str(workspace["manifest"]),
            "--backend", "ffn",
            "--epochs", "1",
            "--context", "4",
            "--embed-dim", "8",
            "--hidden-dim", "8",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    assert (tmp_path / "model.lmek").exists()
    history = json.loads((tmp_path / "train_history.json").read_text(encoding="utf-8"))
    assert history and all("total" in step for step in history)


def test_train_rejects_both_label_heads(workspace, tmp_path):
    rc = main(
        [
            "train",
            "--manifest", str(workspace["manifest"]),
            "--backend", "ffn",
            "--objectives", "pos:1.0,dp:1.0",
            "--labels", str(tmp_path / "whatever.tsv"),
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 2


# ---------------------------------------------------------------------------
# generate / eval
# ---------------------------------------------------------------------------


def _generate(workspace, out, extra=()):
    return main(
        [
            "generate",
            "--model", str(workspace["model"]),
            "--manifest", str(workspace["manifest"]),
            "--strategy", "topp",
            "--p", "0.9",
            "--prefix-len", "5",
            "--gen-len", "8",
            "--n-prefixes", "6",
            "--out-dir", str(out),
            *extra,
        ]
    )


def test_generate_writes_samples_with_pinned_keys(workspace, tmp_path):
    assert _generate(workspace, tmp_path) == 0
    lines = (tmp_path / "samples.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6
    row = json.loads(lines[0])
    assert set(row) == {
        "id", "model", "strategy", "param", "seed", "prefix_ids", "continuation_ids",
    }
    assert row["strategy"] == "topp" and row["param"] == 0.9
    assert len(row["continuation_ids"]) == 8


def test_generate_reruns_byte_identically(workspace, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _generate(workspace, a) == 0
    assert _generate(workspace, b) == 0
    assert (a / "samples.jsonl").read_bytes() == (b / "samples.jsonl").read_bytes()


@pytest.mark.parametrize("strategy", [["--strategy", "topk", "--k", "5"], ["--strategy", "beam", "--b", "3"]])
def test_generate_and_sweep_cell_write_identical_samples(workspace, tmp_path, strategy):
    # An ffn's batched rows depend on the batch, so the two paths must
    # batch the same prefixes for their samples to agree.
    model_dir = tmp_path / "ffn"
    assert main(
        [
            "train", "--manifest", str(workspace["manifest"]), "--backend", "ffn",
            "--epochs", "1", "--context", "4", "--embed-dim", "8", "--hidden-dim", "16",
            "--out-dir", str(model_dir),
        ]
    ) == 0
    model = model_dir / "model.lmek"
    shape = ["--manifest", str(workspace["manifest"]), "--prefix-len", "5", "--gen-len", "7",
             "--n-prefixes", "6", "--seed", "13"]
    assert main(["generate", "--model", str(model), *strategy, *shape,
                 "--out-dir", str(tmp_path / "gen")]) == 0
    name, param = strategy[1], strategy[3]
    assert main(["sweep", "--models", f"model={model}", "--strategies", f"{name}:{param}",
                 "--metrics", "seq_rep_4", *shape, "--out-dir", str(tmp_path / "sweep")]) == 0

    def rows(path):
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]

    generated = rows(tmp_path / "gen" / "samples.jsonl")
    cell = rows(next((tmp_path / "sweep" / "samples").glob("*.jsonl")))
    assert len(generated) == 6
    assert [(r["prefix_ids"], r["continuation_ids"]) for r in generated] == [
        (r["prefix_ids"], r["continuation_ids"]) for r in cell
    ]


@pytest.mark.parametrize("cut", ["header", "payload", "odd"])
def test_generate_rejects_truncated_model_file(workspace, tmp_path, capsys, cut):
    blob = workspace["model"].read_bytes()
    head_end = 13 + int.from_bytes(blob[5:13], "little")
    keep = {"header": head_end - 10, "payload": len(blob) - 8 * 40, "odd": len(blob) - 3}[cut]
    broken = tmp_path / "broken.lmek"
    broken.write_bytes(blob[:keep])
    capsys.readouterr()
    rc = _generate(workspace, tmp_path, extra=["--model", str(broken)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("data error:") and err.count("\n") == 1 and "Traceback" not in err


def test_generate_accepts_temp_alias(workspace, tmp_path):
    rc = main(
        [
            "generate",
            "--model", str(workspace["model"]),
            "--manifest", str(workspace["manifest"]),
            "--strategy", "temp",
            "--t", "0.7",
            "--prefix-len", "5",
            "--gen-len", "4",
            "--n-prefixes", "2",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    row = json.loads((tmp_path / "samples.jsonl").read_text(encoding="utf-8").splitlines()[0])
    assert row["strategy"] == "temperature"


def test_eval_quality_reports(workspace, tmp_path):
    assert _generate(workspace, tmp_path) == 0
    rc = main(
        [
            "eval", "quality",
            "--samples", str(tmp_path / "samples.jsonl"),
            "--manifest", str(workspace["manifest"]),
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    for name in ("report_corpus_bleu.json", "report_forward_ppl.json"):
        report = json.loads((tmp_path / name).read_text(encoding="utf-8"))
        assert math.isfinite(report["value"])
        assert report["n_samples"] == 6
        assert report["provenance"]["samples"] == "samples.jsonl"


def test_eval_diversity_reports(workspace, tmp_path):
    assert _generate(workspace, tmp_path) == 0
    rc = main(
        [
            "eval", "diversity",
            "--samples", str(tmp_path / "samples.jsonl"),
            "--manifest", str(workspace["manifest"]),
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    for name in ("report_self_bleu.json", "report_seq_rep_4.json", "report_reverse_ppl.json"):
        assert (tmp_path / name).exists()
    rep = json.loads((tmp_path / "report_seq_rep_4.json").read_text(encoding="utf-8"))
    assert rep["value"] is None or 0.0 <= rep["value"] <= 1.0


_GOOD_ROW = {"id": "0", "prefix_ids": [0, 1], "continuation_ids": [2, 3, 1]}


@pytest.mark.parametrize("kind", ["quality", "diversity"])
@pytest.mark.parametrize(
    "bad_row",
    [
        '{"id": "1", "prefix_ids": [0]}',
        "[1, 2]",
        '{"id": "1", "prefix_ids": [0], "continuation_ids": [2, 1000000]}',
        '{"id": "1", "prefix_ids": [0], "continuation_ids": [2, 1.5]}',
        '{"id": "1", "prefix_ids": 0, "continuation_ids": [2]}',
        '{"id": "1", "prefix_ids": [0], "continuation_ids": []}',
    ],
    ids=["no-continuation", "not-object", "id-outside-vocab", "float-id", "ids-not-list", "empty"],
)
def test_eval_rejects_bad_sample_rows(workspace, tmp_path, capsys, kind, bad_row):
    samples = tmp_path / "samples.jsonl"
    samples.write_text(json.dumps(_GOOD_ROW) + "\n" + bad_row + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(
        [
            "eval", kind,
            "--samples", str(samples),
            "--manifest", str(workspace["manifest"]),
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("data error:") and err.count("\n") == 1 and "Traceback" not in err
    assert f"{samples}:2:" in err
    assert not list((tmp_path / "out").glob("report_*.json"))


def test_eval_consistency_requires_exactly_one_dataset(workspace, tmp_path):
    base = [
        "eval", "consistency",
        "--model", str(workspace["model"]),
        "--out-dir", str(tmp_path),
    ]
    assert main(base) == 2
    assert main(base + ["--triples", "x.tsv", "--stories", "y.tsv"]) == 2


def test_eval_consistency_triples_report(workspace, tmp_path):
    triples = tmp_path / "nli.tsv"
    triples.write_text(
        "the cat sat the home.\tthe dog ran\tthe sea held\n"
        "a man met a tree.\tthe sun sat\tthe fish left\n",
        encoding="utf-8",
    )
    rc = main(
        [
            "eval", "consistency",
            "--model", str(workspace["model"]),
            "--triples", str(triples),
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "report_nli.json").read_text(encoding="utf-8"))
    assert set(report) == {"accuracy", "n", "ties", "per_item", "issues"}
    assert report["n"] == 2
    assert (tmp_path / "report_nli.items.jsonl").exists()


def test_eval_acceptability(workspace, tmp_path):
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("the cat sat\nthe dog ran the road\n", encoding="utf-8")
    rc = main(
        [
            "eval", "acceptability",
            "--model", str(workspace["model"]),
            "--sentences", str(sentences),
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "report_acceptability.json").read_text(encoding="utf-8"))
    assert report["metric"] == "acceptability"
    assert report["value"] < 0  # log-probabilities are negative
    items = (tmp_path / "acceptability.items.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(items) == 2


# ---------------------------------------------------------------------------
# trace / sweep / fit
# ---------------------------------------------------------------------------


def test_trace_csv_shape(workspace, tmp_path):
    rc = main(
        [
            "trace",
            "--model", str(workspace["model"]),
            "--ids", "0 1 2",
            "--truncate", "topk:2",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    lines = (tmp_path / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "position,token_id,token,prob,truncated_prob"
    assert len(lines) == 4


def test_trace_rejects_bad_truncation_argument(workspace, tmp_path):
    rc = main(
        [
            "trace",
            "--model", str(workspace["model"]),
            "--ids", "0 1",
            "--truncate", "widen:3",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 2


def test_sweep_and_fit_pipeline(workspace, tmp_path):
    sweep_dir = tmp_path / "sweep"
    rc = main(
        [
            "sweep",
            "--manifest", str(workspace["manifest"]),
            "--models", f"bigram={workspace['model']}",
            "--strategies", "greedy;topk:2,5",
            "--prefix-len", "5",
            "--gen-len", "8",
            "--n-prefixes", "5",
            "--metrics", "corpus_bleu,self_bleu,seq_rep_4",
            "--out-dir", str(sweep_dir),
        ]
    )
    assert rc == 0
    rows = (sweep_dir / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 4  # header + 3 cells
    fit_dir = tmp_path / "fit"
    rc = main(
        [
            "fit",
            "--csv", str(sweep_dir / "sweep.csv"),
            "--out-dir", str(fit_dir),
        ]
    )
    assert rc == 0
    assert (fit_dir / "tradeoff.csv").exists()
    fits = json.loads((fit_dir / "fits.json").read_text(encoding="utf-8"))
    assert "bigram" in fits["fits"]


def test_fit_rejects_metric_without_sweep_column(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    write_sweep_csv(csv_path, [SweepRecord("m", "greedy", None, 3, {"corpus_bleu": 0.5}, 0)])
    capsys.readouterr()
    rc = main(["fit", "--csv", str(csv_path), "--quality", "acceptability",
               "--out-dir", str(tmp_path / "fit")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "fit" / "fits.json").exists()


@pytest.fixture(scope="module")
def toy_sweep(workspace, tmp_path_factory):
    """A six-strategy sweep of the bigram and a small ffn over the CLI corpus."""
    root = tmp_path_factory.mktemp("toy_sweep")
    assert main(
        [
            "train", "--manifest", str(workspace["manifest"]), "--backend", "ffn",
            "--epochs", "1", "--context", "4", "--embed-dim", "8", "--hidden-dim", "16",
            "--out-dir", str(root / "ffn"),
        ]
    ) == 0
    assert main(
        [
            "sweep", "--manifest", str(workspace["manifest"]),
            "--models", f"ngram={workspace['model']},ffn={root / 'ffn' / 'model.lmek'}",
            "--strategies", "greedy;beam:3;topk:5;topp:0.9;temperature:1.5;penalized:1.2",
            "--prefix-len", "5", "--gen-len", "8", "--n-prefixes", "6",
            "--out-dir", str(root / "sweep"),
        ]
    ) == 0
    return root / "sweep"


def _eval_cell(workspace, samples, out):
    """Every eval quality/diversity value for one samples file, or the failing exit code."""
    values = {}
    for kind in ("quality", "diversity"):
        rc = main(["eval", kind, "--samples", str(samples),
                   "--manifest", str(workspace["manifest"]), "--out-dir", str(out)])
        if rc != 0:
            return rc
    for report in out.glob("report_*.json"):
        data = json.loads(report.read_text(encoding="utf-8"))
        values[data["metric"]] = data["value"]
    return values


def test_eval_reproduces_every_sweep_cell(workspace, toy_sweep, tmp_path):
    vocab_size = len(json.loads(workspace["manifest"].read_text(encoding="utf-8"))["tokenizer"]["vocab"])
    records = read_sweep_csv(toy_sweep / "sweep.csv")
    assert len(records) == 12
    compared = 0
    for record in records:
        samples = toy_sweep / "samples" / f"{cell_key(record.model, record.strategy, record.param)}.jsonl"
        rows = [json.loads(line) for line in samples.read_text(encoding="utf-8").splitlines()]
        got = _eval_cell(workspace, samples, tmp_path / samples.stem)
        if any(i >= vocab_size for row in rows for i in row["continuation_ids"]):
            # An ffn can emit its pad token, which is outside the corpus vocab.
            assert record.model == "ffn" and got == 3
            continue
        want = dict(record.metrics)
        if record.model == "ffn":
            # See test_eval_reverse_ppl_matches_ffn_sweep_cells.
            del want["reverse_ppl"], got["reverse_ppl"]
        assert got == want, samples.name
        compared += 1
    assert compared >= 10  # all but cells holding a pad id


@pytest.mark.xfail(
    strict=True,
    reason="the sweep fits an ffn cell's reverse-ppl n-gram over the model vocab, which "
    "adds the pad token; eval only has the manifest vocab",
)
def test_eval_reverse_ppl_matches_ffn_sweep_cells(workspace, toy_sweep, tmp_path):
    record = next(r for r in read_sweep_csv(toy_sweep / "sweep.csv")
                  if (r.model, r.strategy) == ("ffn", "greedy"))
    got = _eval_cell(workspace, toy_sweep / "samples" / "ffn__greedy__None.jsonl", tmp_path)
    assert got["reverse_ppl"] == record.metrics["reverse_ppl"]


def test_sweep_rejects_unknown_strategy(workspace, tmp_path):
    rc = main(
        [
            "sweep",
            "--manifest", str(workspace["manifest"]),
            "--models", f"m={workspace['model']}",
            "--strategies", "bogus:1",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 2


def test_missing_model_file_is_data_error(workspace, tmp_path):
    rc = main(
        [
            "trace",
            "--model", str(tmp_path / "absent.lmek"),
            "--ids", "0",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 3


def test_parser_destinations_match_defaults():
    # _resolve reads only DEFAULTS keys, so a flag without a default would be ignored.
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
    assert set(subparsers.choices) == set(DEFAULTS)
    assert len(DEFAULTS) == 7
    for command, parser in subparsers.choices.items():
        dests = {a.dest for a in parser._actions} - {"help", "config"}
        assert dests == set(DEFAULTS[command]), command
