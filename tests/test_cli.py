"""End-to-end command-line runs, exercised in process via main()."""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from genteval.corpus import write_ids_file
from genteval.errors import ConfigError
from genteval.harness.cli import _COMMANDS, _apply_config, _build_parser, _load_config, _parse_args, main
from genteval.harness.sweep import CSV_COLUMNS, SweepRecord, cell_key, read_sweep_csv, write_sweep_csv
from genteval.lm.store import load_model
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
    space = {
        "root": root,
        "text": text_path,
        "manifest": data / "manifest.json",
        "model": model_dir / "model.lmek",
        "samples": root / "gen" / "samples.jsonl",
    }
    assert _generate(space, root / "gen") == 0
    return space


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


def test_train_config_file_reaches_the_trainer(workspace, tmp_path):
    # Each value differs from its default in a way the history shows: 3 epochs
    # of one step each, ul keys, every coin on the sequence-level branch, and
    # an n-gram order longer than the rollout, so no candidate and zero loss.
    config = tmp_path / "train.json"
    config.write_text(json.dumps({
        "epochs": 3, "batch_size": 10_000, "objectives": [["mle", 1.0], ["ul", 0.5]],
        "mix_prob": 1.0, "ul_prefix_len": 3, "ul_gen_len": 8, "ul_ngram": 9,
        "context": 2, "embed_dim": 4, "hidden_dim": 4,
    }), encoding="utf-8")
    argv = ["train", "--manifest", workspace["manifest"], "--config", config, "--out-dir", tmp_path]
    assert main([str(a) for a in argv]) == 0
    history = json.loads((tmp_path / "train_history.json").read_text(encoding="utf-8"))
    assert len(history) == 3
    assert all(set(step) == {"mle", "ul", "ul_branch", "total"} for step in history)
    assert all(step["ul_branch"] == 1.0 and step["ul"] == 0.0 for step in history)


def test_train_flags_override_config_values(workspace, tmp_path):
    # One step an epoch, so the history length is the epoch count.
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"epochs": 2, "batch_size": 10_000, "context": 2, "embed_dim": 4,
                                  "hidden_dim": 4}), encoding="utf-8")

    def epochs(*flags):
        out = tmp_path / str(len(flags))
        argv = ["train", "--manifest", workspace["manifest"], "--config", config, "--out-dir", out, *flags]
        assert main([str(a) for a in argv]) == 0
        return len(json.loads((out / "train_history.json").read_text(encoding="utf-8")))

    assert epochs() == 2
    assert epochs("--epochs", "1") == 1


def test_train_history_goes_beside_the_model_file(workspace, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["train", "--manifest", workspace["manifest"], "--backend", "ffn", "--epochs", "1",
            "--context", "2", "--embed-dim", "4", "--hidden-dim", "4", "--model-out", "elsewhere/m.lmek"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(a) for a in argv]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["elsewhere"]
    assert sorted(p.name for p in (tmp_path / "elsewhere").iterdir()) == ["m.lmek", "train_history.json"]


def test_train_aux_objectives_end_to_end_reruns_are_byte_identical(workspace, tmp_path):
    sentences = [s.strip() for s in workspace["text"].read_text(encoding="utf-8").split(".")][:30]
    pairs = tmp_path / "pairs.txt"  # capitalized starts, so the text splits into sentences
    pairs.write_text(" ".join(s[0].upper() + s[1:] + "." for s in sentences), encoding="utf-8")
    labels = tmp_path / "labels.tsv"
    labels.write_text("\n\n".join(
        "\n".join(f"{w}\t{'DET' if w in ('the', 'a') else 'WORD'}\t{int(w in ('the', 'a'))}"
                  for w in s.split())
        for s in sentences[:12]
    ) + "\n", encoding="utf-8")

    def train(objectives, out):
        argv = ["train", "--manifest", workspace["manifest"], "--backend", "ffn", "--objectives", objectives,
                "--pairs-text", pairs, "--pairs-count", "12", "--labels", labels, "--epochs", "2",
                "--batch-size", "8", "--context", "2", "--embed-dim", "4", "--hidden-dim", "8",
                "--out-dir", out]
        assert main([str(a) for a in argv]) == 0
        history = json.loads((out / "train_history.json").read_text(encoding="utf-8"))
        assert all(math.isfinite(v) for step in history for v in step.values())
        return {frozenset(step) - {"total"} for step in history}, [
            (out / name).read_bytes() for name in ("model.lmek", "train_history.json")]

    keys, first = train("mle:1.0,nsp:0.5,tfidf:0.5,pos:0.5", tmp_path / "a")
    assert keys == {frozenset({"mle", "nsp", "tfidf", "pos"})}
    assert train("mle:1.0,nsp:0.5,tfidf:0.5,pos:0.5", tmp_path / "b") == (keys, first)
    assert train("sop:1.0,dp:1.0", tmp_path / "c")[0] == {frozenset({"sop", "dp"})}
    # Without mle or ul the run has no sequence pool.
    keys, first = train("nsp:1.0,tfidf:0.5", tmp_path / "d")
    assert keys == {frozenset({"nsp", "tfidf"})}
    assert train("nsp:1.0,tfidf:0.5", tmp_path / "e") == (keys, first)


def test_lowercase_pairs_text_names_the_file_and_the_split_rule(workspace, tmp_path, capsys):
    # make_text writes lowercase sentences, so the text never splits.
    argv = ["train", "--manifest", workspace["manifest"], "--backend", "ffn", "--objectives", "mle:1.0,nsp:0.5",
            "--pairs-text", workspace["text"], "--pairs-count", "5", "--out-dir", tmp_path]
    err = _fails_with_one_line(capsys, argv, 3)
    assert f"{workspace['text']}: asked for 5 pairs but only 0 adjacent pairs exist" in err
    assert "followed by an uppercase letter" in err


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


@pytest.mark.parametrize("strategy", [["--strategy", "topk", "--k", "5"], ["--strategy", "beam", "--b", "3"],
                                      ["--strategy", "temperature", "--t", "0.8"],
                                      ["--strategy", "penalized", "--theta", "1.5"]])
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
        '{"id": "0", "prefix_ids": [0], "continuation_ids": [2]}',
    ],
    ids=["no-continuation", "not-object", "id-outside-vocab", "float-id", "ids-not-list", "empty", "repeated-id"],
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


@pytest.mark.parametrize(
    "flag, good, bad",
    [
        ("--triples", "the cat sat the home.\tthe dog ran\tthe sea held",
         "a man met a tree.\tzzz qqq\tthe fish left"),
        ("--stories", "the cat sat.\tthe dog ran.\ta man met.\tthe sea held.\tthe sun sat\tthe fish left\ta",
         "the cat sat.\tthe dog ran.\ta man met.\tthe sea held.\tthe sun sat\tzzz qqq\tb"),
    ],
)
def test_eval_consistency_item_with_no_in_vocab_token_names_its_line(workspace, tmp_path, capsys, flag, good, bad):
    data = tmp_path / "items.tsv"
    data.write_text(f"{good}\n# comment\n{bad}\n{good}\n", encoding="utf-8")
    argv = ["eval", "consistency", "--model", workspace["model"], flag, data, "--out-dir", tmp_path / "out"]
    err = _fails_with_one_line(capsys, argv, 3)
    assert err == f"data error: {data}:3: no in-vocab tokens\n"
    assert not list((tmp_path / "out").glob("report_*"))


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
        assert got == dict(record.metrics), samples.name
        compared += 1
    assert compared >= 10  # all but cells holding a pad id


def test_eval_reverse_ppl_matches_ffn_sweep_cells(workspace, toy_sweep, tmp_path):
    record = next(r for r in read_sweep_csv(toy_sweep / "sweep.csv")
                  if (r.model, r.strategy) == ("ffn", "greedy"))
    got = _eval_cell(workspace, toy_sweep / "samples" / "ffn__greedy__None.jsonl", tmp_path)
    assert got["reverse_ppl"] == record.metrics["reverse_ppl"]


_PIPELINE_SCRIPT = """
import sys
from pathlib import Path
from genteval.harness.cli import main

root = Path(sys.argv[1])
manifest, model, sweep = root / "data" / "manifest.json", root / "m.lmek", root / "sweep"
assert main(["ingest", "--input", str(root / "corpus.txt"), "--out-dir", str(root / "data"), "--seq-len", "30"]) == 0
assert main(["train", "--manifest", str(manifest), "--backend", "ngram", "--model-out", str(model)]) == 0
assert main(["sweep", "--manifest", str(manifest), "--models", f"m={model}", "--strategies", "greedy;topp:0.9",
             "--n-prefixes", "4", "--prefix-len", "3", "--gen-len", "5", "--out-dir", str(sweep)]) == 0
for kind in ("quality", "diversity"):
    assert main(["eval", kind, "--samples", str(sweep / "samples" / "m__topp__0.9.jsonl"),
                 "--manifest", str(manifest), "--out-dir", str(root / "eval")]) == 0
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""


def test_the_pipeline_never_imports_numpy_ma(tmp_path):
    """A plain ``np.unique`` (no ``return_*`` flag) imports ``numpy.ma`` on its
    first call in a process, a cost that every CLI process would pay anew."""
    (tmp_path / "corpus.txt").write_text(make_text(300, seed=4), encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _PIPELINE_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "eval" / "report_reverse_ppl.json").exists()


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


@pytest.mark.parametrize("grid", [
    "topk:0", "greedy:3", "topp:1.5", "greedy;beam:2,0",
    # config-file grids, whose params arrive as JSON numbers
    [["topk", [2.5]]], [["beam", [True]]], [["topk", [2, 3.5]]], [["topp", [True]]],
])
def test_bad_sweep_grid_exits_2_before_any_cell(workspace, tmp_path, capsys, grid):
    argv = ["sweep", "--manifest", workspace["manifest"], "--models", f"m={workspace['model']}",
            "--out-dir", tmp_path / "out"]
    if isinstance(grid, str):
        argv += ["--strategies", grid]
    else:
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({"strategies": grid}), encoding="utf-8")
        argv += ["--config", config]
    _fails_with_one_line(capsys, argv, 2)
    assert not (tmp_path / "out" / "records").exists()


_FAILED_RECORDS = {
    # One prefix: Self-BLEU fails after the sample file is written.
    "ok__greedy__None": ("7589d5d4ab48e7a844253aaef10091ba412478fabcd553472a6bb16fd4d38da3", None,
                         "InsufficientSamples: self_bleu needs at least two samples"),
    "ok__topk__2": ("ebafe83dce7cc824bac533a072bc6587c6cc0ccdf618326a946aeb45bfbb097b", 2,
                    "InsufficientSamples: self_bleu needs at least two samples"),
    # A model that cannot load fails each of its cells before any decode.
    "gone__greedy__None": ("a91133e10d67091374747e08bc2e91707c856a7514c812fed3a096620ae6a741", None,
                           "ConfigError: FileNotFoundError: [Errno 2] No such file or directory: 'absent.lmek'"),
    "gone__topk__2": ("a495e629dbc7fb7e6bb19ec76ef13696218b5f7aa24dfe65bdc25141c35418f8", 2,
                      "ConfigError: FileNotFoundError: [Errno 2] No such file or directory: 'absent.lmek'"),
}


def test_a_failed_cell_record_keeps_only_its_config_hash_and_error(workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "--manifest", workspace["manifest"], "--models", f"ok={workspace['model']},gone=absent.lmek",
            "--strategies", "greedy;topk:2", "--metrics", "seq_rep_4,self_bleu", "--prefix-len", "5",
            "--gen-len", "4", "--n-prefixes", "1", "--out-dir", "sweep"]
    expected = {}
    for key, (digest, param, error) in _FAILED_RECORDS.items():
        model, strategy, _ = key.split("__")
        record = {"config_hash": digest, "failed": error, "metrics": {}, "model": model, "n_samples": 0,
                  "param": param, "samples_file": "", "samples_sha256": "", "seed": 0, "strategy": strategy}
        expected[f"{key}.json"] = (json.dumps(record, sort_keys=True, indent=2) + "\n").encode()
    samples = tmp_path / "sweep" / "samples"
    for run in range(2):
        capsys.readouterr()
        assert main([str(a) for a in argv]) == 0
        assert capsys.readouterr().err.count("failed cell ") == 4, run
        assert _tree(tmp_path / "sweep" / "records") == {Path(k): v for k, v in expected.items()}, run
        # The sample files were written before Self-BLEU failed; a rerun
        # recomputes every failed cell, so it writes them again.
        assert sorted(p.name for p in samples.iterdir()) == ["ok__greedy__None.jsonl", "ok__topk__2.jsonl"]
        shutil.rmtree(samples)


def test_topk_past_a_model_vocab_fails_only_that_models_cells(workspace, toy_sweep, tmp_path, capsys):
    ffn = toy_sweep.parent / "ffn" / "model.lmek"
    k = load_model(ffn).vocab.size  # the ffn's pad token puts k one past the bigram's vocab
    assert k == load_model(workspace["model"]).vocab.size + 1
    capsys.readouterr()
    rc = main([str(a) for a in [
        "sweep", "--manifest", workspace["manifest"], "--models", f"ngram={workspace['model']},ffn={ffn}",
        "--strategies", f"greedy;topk:{k}", "--metrics", "seq_rep_4", "--prefix-len", "5", "--gen-len", "4",
        "--n-prefixes", "2", "--out-dir", tmp_path,
    ]])
    err = capsys.readouterr().err
    assert rc == 0
    assert err.startswith(f"failed cell ngram/topk/{k}: ConfigError: top-k needs") and err.count("\n") == 1, err
    records = read_sweep_csv(tmp_path / "sweep.csv")
    assert [(r.model, r.strategy, r.n_samples) for r in records] == [
        ("ngram", "greedy", 2), ("ngram", "topk", 0), ("ffn", "greedy", 2), ("ffn", "topk", 2)
    ]


@pytest.mark.parametrize("command", ["generate", "sweep"])
@pytest.mark.parametrize("flag, value", [("--n-prefixes", "0"), ("--n-prefixes", "-1"),
                                         ("--prefix-len", "0"), ("--prefix-len", "-1")])
def test_generate_and_sweep_reject_the_same_prefix_settings(workspace, tmp_path, capsys, command, flag, value):
    argv = {
        "generate": ["generate", "--model", workspace["model"]],
        "sweep": ["sweep", "--models", f"m={workspace['model']}", "--strategies", "greedy"],
    }[command]
    argv += ["--manifest", workspace["manifest"], flag, value, "--out-dir", tmp_path / "out"]
    assert f"{flag[2:].replace('-', '_')} must be positive" in _fails_with_one_line(capsys, argv, 2)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["quality", "diversity"])
@pytest.mark.parametrize("flag, value", [("--prefix-len", "0"), ("--prefix-len", "-1"),
                                         ("--gen-len", "0"), ("--gen-len", "-2")])
def test_eval_rejects_a_bad_length_like_generate_and_sweep(workspace, tmp_path, capsys, kind, flag, value):
    argv = ["eval", kind, "--samples", workspace["samples"], "--manifest", workspace["manifest"],
            flag, value, "--out-dir", tmp_path / "out"]
    assert f"{flag[2:].replace('-', '_')} must be positive" in _fails_with_one_line(capsys, argv, 2)
    assert not (tmp_path / "out").exists()


_BAD_METRIC_SETTINGS = [
    ("--fwd-order", "0", "quality", "n-gram order must be at least 1"),
    ("--fwd-k-s", "-1", "quality", "smoothing constant must be non-negative and finite"),
    ("--rev-order", "0", "diversity", "n-gram order must be at least 1"),
    ("--rev-k-s", "-1", "diversity", "smoothing constant must be non-negative and finite"),
    ("--rev-k-s", "0", "diversity", "reverse_ppl requires k_s > 0"),
    ("--max-n", "0", "diversity", "max_n must be at least 1"),
]


@pytest.mark.parametrize("flag, value, kind, message", _BAD_METRIC_SETTINGS)
def test_bad_metric_setting_stops_eval_before_any_report(workspace, tmp_path, capsys, flag, value, kind, message):
    argv = ["eval", kind, "--samples", workspace["samples"], "--manifest", workspace["manifest"],
            flag, value, "--out-dir", tmp_path / "out"]
    assert message in _fails_with_one_line(capsys, argv, 2)
    assert not (tmp_path / "out").exists()
    # The other kind does not run the metric the setting belongs to.
    other = "quality" if kind == "diversity" else "diversity"
    if flag != "--max-n":
        assert main([str(a) for a in argv[:1] + [other] + argv[2:]]) == 0


@pytest.mark.parametrize("flag, value, kind, message", _BAD_METRIC_SETTINGS)
def test_bad_metric_setting_stops_sweep_before_any_model_loads(workspace, tmp_path, capsys, flag, value, kind,
                                                               message):
    argv = ["sweep", "--manifest", workspace["manifest"], "--models", f"m={workspace['model']}",
            "--strategies", "greedy", "--prefix-len", "5", "--gen-len", "4", "--n-prefixes", "2",
            flag, value, "--out-dir", tmp_path / "out"]
    assert message in _fails_with_one_line(capsys, argv, 2)
    assert not (tmp_path / "out").exists()
    # A sweep that does not compute the metric does not check its setting.
    if flag != "--max-n":
        assert main([str(a) for a in argv + ["--metrics", "seq_rep_4"]]) == 0


@pytest.mark.parametrize("prefix_len", ["30", "64"])
@pytest.mark.parametrize("kind, metric", [("quality", "corpus_bleu"), ("diversity", "reverse_ppl")])
def test_eval_names_the_empty_reference_set_of_a_prefix_as_long_as_the_chunks(workspace, tmp_path, capsys,
                                                                               prefix_len, kind, metric):
    # The workspace's chunks are 30 ids long: a 30-id prefix leaves no reference continuation.
    argv = ["eval", kind, "--samples", workspace["samples"], "--manifest", workspace["manifest"],
            "--prefix-len", prefix_len, "--out-dir", tmp_path / "out"]
    err = _fails_with_one_line(capsys, argv, 3)
    assert f"no reference continuations for {metric}: " in err
    assert f"seq_len 30 leave none after prefix_len {prefix_len}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("prefix_len", ["30", "64"])
def test_sweep_with_no_reference_continuations_exits_3_before_any_cell(workspace, tmp_path, capsys, monkeypatch,
                                                                       prefix_len):
    from genteval.harness import sweep

    decoded = []
    monkeypatch.setattr(sweep, "generate_batch", lambda *args: decoded.append(args))
    argv = ["sweep", "--manifest", workspace["manifest"], "--models", f"m={workspace['model']}",
            "--strategies", "greedy", "--prefix-len", prefix_len, "--gen-len", "4", "--out-dir", tmp_path / "out"]
    err = _fails_with_one_line(capsys, argv, 3)
    assert "no reference continuations for corpus_bleu and reverse_ppl: " in err
    assert f"seq_len 30 leave none after prefix_len {prefix_len}" in err
    assert decoded == [] and not (tmp_path / "out").exists()
    # Metrics that read no references still run on whole chunks as prefixes.
    monkeypatch.undo()
    assert main([str(a) for a in argv + ["--metrics", "self_bleu,seq_rep_4,forward_ppl"]]) == 0


@pytest.mark.parametrize("flags, message", [
    (["--backend", "ngram", "--k-s", "nan"], "smoothing constant must be non-negative and finite, not nan"),
    (["--backend", "ffn", "--objectives", "pos:1,dp:1"], "pos and dp"),
])
def test_train_config_error_reads_no_split_and_makes_no_out_dir(workspace, tmp_path, capsys, flags, message):
    # A train split that is not an ids file would be a data error (exit 3)
    # if it were read before the settings are checked.
    data = tmp_path / "data"
    shutil.copytree(workspace["manifest"].parent, data)
    (data / "train.ids.txt").write_bytes(b"\xff not an ids file\n")
    argv = ["train", "--manifest", data / "manifest.json", *flags, "--out-dir", tmp_path / "kst" / "out"]
    assert message in _fails_with_one_line(capsys, argv, 2)
    assert not (tmp_path / "kst").exists()


@pytest.mark.parametrize("argv, code, written", [
    (["ingest", "--input", "{text}", "--seq-len", "1"], 2, None),
    (["trace", "--model", "{model}", "--ids", "1 99999"], 2, None),
    (["fit", "--csv", "{csv}", "--quality", "bogus"], 2, None),
    (["eval", "consistency", "--model", "{model}"], 2, None),
    (["eval", "acceptability", "--model", "{model}", "--sentences", "{sentences}", "--alpha", "-1"], 2, None),
    (["train", "--manifest", "{manifest}", "--backend", "ngram", "--model-out", "{new}/m.lmek"], 0, "m.lmek"),
    (["generate", "--model", "{model}", "--manifest", "{manifest}", "--prefix-len", "5", "--gen-len", "4",
      "--n-prefixes", "2", "--samples-out", "{new}/s.jsonl"], 0, "s.jsonl"),
    (["trace", "--model", "{model}", "--ids", "1 2", "--trace-out", "{new}/t.csv"], 0, "t.csv"),
])
def test_directories_are_made_only_by_the_first_write(workspace, tmp_path, capsys, argv, code, written):
    # A failed command leaves no --out-dir behind; a --*-out path in a new
    # directory is written there; neither makes an --out-dir it writes nothing into.
    csv_path, sentences = tmp_path / "sweep.csv", tmp_path / "sentences.txt"
    write_sweep_csv(csv_path, [SweepRecord("m", "greedy", None, 3, {"corpus_bleu": 0.5}, 0)])
    sentences.write_text("the cat sat\n", encoding="utf-8")
    paths = {**workspace, "csv": csv_path, "sentences": sentences, "new": tmp_path / "new" / "dir"}
    argv = [a.format(**paths) for a in argv] + ["--out-dir", str(tmp_path / "out")]
    if code:
        _fails_with_one_line(capsys, argv, code)
    else:
        assert main(argv) == 0, capsys.readouterr().err
        assert (tmp_path / "new" / "dir" / written).stat().st_size > 0
    assert not (tmp_path / "out").exists()
    assert [p.name for p in tmp_path.rglob(".*.tmp")] == []


def test_trace_context_ids_outside_an_ffn_vocab_are_config_errors(toy_sweep, tmp_path, capsys):
    ffn = toy_sweep.parent / "ffn" / "model.lmek"
    for bad in ("99999", "-5"):
        argv = ["trace", "--model", ffn, "--ids", "1 2", "--context-ids", bad, "--out-dir", tmp_path]
        assert f"token id {bad} out of range" in _fails_with_one_line(capsys, argv, 2)


def test_generate_parameter_flags_keep_their_names_types_and_order():
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
    actions = subparsers.choices["generate"]._actions
    flags = [(a.option_strings[0], a.type) for a in actions if a.dest in ("b", "t", "k", "p", "theta")]
    assert flags == [("--b", int), ("--t", float), ("--k", int), ("--p", float), ("--theta", float)]


def test_non_finite_temperature_or_penalty_fails_before_any_output(workspace, tmp_path, capsys):
    # With add-k 0 an unseen id has probability 0; an infinite theta then
    # made 0 * inf a NaN row, and an infinite t a -inf / inf one.
    zero_k = tmp_path / "zero_k.lmek"
    assert main(["train", "--manifest", str(workspace["manifest"]), "--backend", "ngram", "--k-s", "0",
                 "--model-out", str(zero_k)]) == 0
    out = tmp_path / "out"
    shared = ["--manifest", workspace["manifest"], "--out-dir", out]
    for flags, message in (
        (["--strategy", "penalized", "--theta", "inf", "--t", "0.8"], "penalty exponent"),
        (["--strategy", "penalized", "--theta", "1.5", "--t", "inf"], "temperature"),
        (["--strategy", "penalized", "--theta", "nan"], "penalty exponent"),
        (["--strategy", "temperature", "--t", "inf"], "temperature"),
    ):
        argv = ["generate", "--model", zero_k, *flags, *shared]
        assert f"{message} must be" in _fails_with_one_line(capsys, argv, 2)
    for grid, message in (("temperature:inf", "temperature"), ("penalized:inf", "penalty exponent"),
                          ("greedy;temperature:0.8,inf", "temperature")):
        argv = ["sweep", "--models", f"m={zero_k}", "--strategies", grid, *shared]
        assert f"{message} must be" in _fails_with_one_line(capsys, argv, 2)
    assert not out.exists()


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


def _config_and_flag_values(action):
    """Two values for one option, the first unlike its default: (config value, flag text, flag value)."""
    if action.choices:
        config = next(c for c in action.choices if c != action.default)
        flag = next(c for c in action.choices if c != config)
        return config, flag, flag
    if action.type is int:
        return 7, "9", 9
    if action.type is float:
        return 0.25, "0.75", 0.75
    return "from-config", "from-flag", "from-flag"


def test_config_sets_every_option_and_flags_win(tmp_path):
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
    assert len(subparsers.choices) == 7
    for command, parser in subparsers.choices.items():
        head = [command, "quality"] if command == "eval" else [command]
        options = [a for a in parser._actions if a.option_strings and a.dest not in ("help", "config")]
        assert options, command
        values = {a.dest: _config_and_flag_values(a) for a in options}
        config = tmp_path / f"{command}.json"
        config.write_text(
            json.dumps({"not_an_option": 1, **{k: v[0] for k, v in values.items()}}), encoding="utf-8"
        )
        defaults = vars(_parse_args(head))
        from_config = vars(_parse_args([*head, "--config", str(config)]))
        flags = [x for a in options for x in (a.option_strings[0], values[a.dest][1])]
        from_flags = vars(_parse_args([*head, "--config", str(config), *flags]))
        for a in options:
            assert defaults[a.dest] == a.default, (command, a.dest)
            assert from_config[a.dest] == values[a.dest][0], (command, a.dest)
            assert from_flags[a.dest] == values[a.dest][2], (command, a.dest)
        assert "not_an_option" not in from_config


def _parsed(argv):
    """The options ``argv`` parses to, or the config error it raises."""
    try:
        args = vars(_parse_args(argv))
    except ConfigError as exc:
        return f"config error: {exc}"
    args.pop("config")
    return args


def test_config_values_parse_like_their_flags(tmp_path):
    config = tmp_path / "config.json"
    for command, parser in _subparsers(_build_parser()).choices.items():
        head = [command, "quality"] if command == "eval" else [command]
        for a in parser._actions:
            if not a.option_strings or a.dest in ("help", "config"):
                continue
            for value in (5, 2.5, True, "x", -1):
                config.write_text(json.dumps({a.dest: value}), encoding="utf-8")
                from_config = _parsed([*head, "--config", str(config)])
                assert from_config == _parsed([*head, a.option_strings[0], str(value)]), (command, a.dest, value)


@pytest.mark.parametrize("argv, config, code", [
    (["sweep", "--manifest", "{manifest}", "--models", "m={model}", "--strategies", "greedy"], {"metrics": 5}, 2),
    (["sweep", "--manifest", "{manifest}", "--models", "m={model}", "--strategies", "greedy"],
     {"metrics": [["seq_rep_4"]]}, 2),
    (["sweep", "--manifest", "{manifest}", "--strategies", "greedy"], {"models": {"m": [1]}}, 2),
    (["sweep", "--manifest", "{manifest}", "--strategies", "greedy"], {"models": [None]}, 2),
    # A number is read as the text "5", as --strategies 5 is: no such strategy.
    (["sweep", "--manifest", "{manifest}", "--models", "m={model}"], {"strategies": 5}, 2),
    (["train"], {"manifest": 5}, 3),
    (["train", "--manifest", "{manifest}"], {"objectives": [[[1], 1]]}, 2),
    (["train", "--manifest", "{manifest}"], {"backend": "x"}, 2),
    (["train", "--manifest", "{manifest}"], {"model_out": ["m.lmek"]}, 2),
    (["ingest", "--input", "{text}"], {"format": "x"}, 2),
    (["generate", "--model", "{model}", "--manifest", "{manifest}"], {"split": "x"}, 2),
])
def test_bad_config_values_fail_with_one_line(workspace, tmp_path, capsys, argv, config, code):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    _fails_with_one_line(capsys, [*(a.format(**workspace) for a in argv), "--config", path, "--out-dir", out], code)
    assert not out.exists()


def test_a_null_config_value_leaves_the_default(workspace, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_n": None, "subsample": None}), encoding="utf-8")
    argv = ["eval", "quality", "--samples", workspace["samples"], "--manifest", workspace["manifest"],
            "--config", config, "--out-dir", tmp_path]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(a) for a in argv]) == 0
    report = json.loads((tmp_path / "report_corpus_bleu.json").read_text(encoding="utf-8"))
    assert report["config"]["max_n"] == 4 and report["config"]["subsample"] is None


# ---------------------------------------------------------------------------
# setup fast paths: one subparser per call, splits read on first use
# ---------------------------------------------------------------------------


def _subparsers(parser):
    return next(a for a in parser._actions if a.dest == "command")


def _parse_with_every_subparser(argv):
    """The slow path: all seven subparsers built, a config applied to argv[0]'s."""
    args = _build_parser().parse_args(argv)
    if args.config is not None:
        parser = _build_parser()
        _apply_config(_subparsers(parser).choices[args.command], _load_config(args.config))
        args = parser.parse_args(argv)
    return args


def test_one_subparser_parses_like_the_full_parser(tmp_path):
    full = _subparsers(_build_parser()).choices
    for command, parser in full.items():
        assert list(_subparsers(_build_parser(command=command)).choices) == [command]
        head = [command, "quality"] if command == "eval" else [command]
        options = [a for a in parser._actions if a.option_strings and a.dest not in ("help", "config")]
        values = {a.dest: _config_and_flag_values(a) for a in options}
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps({k: v[0] for k, v in values.items()}), encoding="utf-8")
        flags = [x for a in options for x in (a.option_strings[0], values[a.dest][1])]
        cases = [head, [*head, *flags], [*head, "--config", str(config)],
                 [*head, "--config", str(config), *flags]]
        cases += [[*head, a.option_strings[0], values[a.dest][1]] for a in options]
        for argv in cases:
            assert vars(_parse_args(argv)) == vars(_parse_with_every_subparser(argv)), argv


def _parse_outcome(parse, argv):
    """(exit code or config error text, standard output) of parsing ``argv``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            parse(argv)
            result = 0
        except SystemExit as exc:
            result = exc.code
        except ConfigError as exc:
            result = str(exc)
    return result, out.getvalue()


@pytest.mark.parametrize("argv", [[], ["--help"], ["nope"], ["eval"], ["eval", "nope"], ["train", "--bogus"],
                                  *([command, "--help"] for command in _COMMANDS)])
def test_help_and_usage_errors_match_the_full_parser(argv):
    got = _parse_outcome(_parse_args, argv)
    assert got == _parse_outcome(lambda a: _build_parser().parse_args(a), argv)
    if "--help" in argv:
        assert got[0] == 0 and got[1].startswith("usage: genteval")
    else:
        assert isinstance(got[0], str) and got[1] == ""


def test_help_listing_and_unknown_command_name_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    listing = capsys.readouterr().out
    assert all(command in listing for command in _COMMANDS)
    assert main(["nope"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: argument command: invalid choice: 'nope' (choose from ")
    assert all(repr(command) in err for command in _COMMANDS)
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--help"])
    assert exc.value.code == 0 and "--rev-k-s" in capsys.readouterr().out


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _split_runs(manifest, workspace, out):
    """Each command that reads splits, as (name, argv, the splits it reads)."""
    common = ["--manifest", manifest, "--out-dir", out]
    samples = ["--samples", workspace["samples"]]
    return [
        ("quality", ["eval", "quality", *samples, *common], {"train", "test"}),
        ("diversity", ["eval", "diversity", *samples, *common], {"test"}),
        ("sweep", ["sweep", "--models", f"m={workspace['model']}", "--strategies", "greedy;topk:3",
                   "--prefix-len", "5", "--gen-len", "4", "--n-prefixes", "3", *common], {"train", "test"}),
        ("ngram", ["train", "--backend", "ngram", *common], {"train"}),
        ("ffn", ["train", "--backend", "ffn", "--epochs", "1", "--context", "2", "--embed-dim", "4",
                 "--hidden-dim", "4", *common], {"train"}),
        ("generate", ["generate", "--model", workspace["model"], "--split", "test", "--prefix-len", "5",
                      "--gen-len", "4", *common], {"test"}),
    ]


def test_commands_write_the_same_artifacts_when_unread_splits_are_garbage(workspace, tmp_path):
    clean = workspace["manifest"].parent
    for name, _, reads in _split_runs(clean / "manifest.json", workspace, tmp_path):
        damaged = tmp_path / f"data-{name}"
        shutil.copytree(clean, damaged)
        for split in {"train", "dev", "test"} - reads:
            (damaged / f"{split}.ids.txt").write_bytes(b"\xff not an ids file\n")
        trees = []
        for data in (clean, damaged):
            out = tmp_path / name / data.name
            argv = next(r[1] for r in _split_runs(data / "manifest.json", workspace, out) if r[0] == name)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([str(a) for a in argv]) == 0, (name, data.name)
            trees.append(_tree(out))
        assert trees[0] and trees[0] == trees[1], name


@pytest.mark.parametrize("name, split", [("quality", "train"), ("quality", "test"), ("diversity", "test"),
                                         ("sweep", "train"), ("sweep", "test"), ("ngram", "train"),
                                         ("generate", "test")])
def test_a_damaged_split_a_command_reads_still_fails_it(workspace, tmp_path, capsys, name, split):
    data = tmp_path / "data"
    shutil.copytree(workspace["manifest"].parent, data)
    ids = data / f"{split}.ids.txt"
    lines = ids.read_text(encoding="utf-8").splitlines()
    lines[1] += " x"
    ids.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = next(r[1] for r in _split_runs(data / "manifest.json", workspace, tmp_path / "out") if r[0] == name)
    assert f"{ids}:2: " in _fails_with_one_line(capsys, argv, 3)


@pytest.mark.parametrize("short, long", [(True, False), (False, True), (True, True)])
def test_a_split_line_that_is_not_seq_len_ids_long_is_a_data_error(workspace, tmp_path, capsys, short, long):
    data = tmp_path / "data"
    shutil.copytree(workspace["manifest"].parent, data)
    ids = data / "test.ids.txt"
    header, *lines = ids.read_text(encoding="utf-8").splitlines()
    if short:
        lines[0] = lines[0].rsplit(" ", 1)[0]
    if long:
        lines[1] += " 0"
    ids.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    argv = ["eval", "quality", "--samples", workspace["samples"], "--manifest", data / "manifest.json",
            "--out-dir", tmp_path / "out"]
    line, n = (2, 29) if short else (3, 31)  # the first bad line; every chunk holds seq_len 30 ids
    assert f"data error: {ids}:{line}: {n} ids, not seq_len 30\n" == _fails_with_one_line(capsys, argv, 3)


def test_generate_from_a_damaged_dev_split_fails(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace["manifest"].parent, data)
    ids = data / "dev.ids.txt"
    ids.write_text(ids.read_text(encoding="utf-8").replace("\n", "\n-1 ", 1), encoding="utf-8")
    argv = ["generate", "--model", workspace["model"], "--manifest", data / "manifest.json", "--split", "dev",
            "--prefix-len", "5", "--gen-len", "4", "--out-dir", tmp_path / "out"]
    assert f"{ids}:2: " in _fails_with_one_line(capsys, argv, 3)


def test_sweep_output_does_not_depend_on_workers(workspace, tmp_path):
    # --workers is accepted and ignored: cells always run one after another.
    def tree(root):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    for workers in ("1", "4"):
        assert main(
            [
                "sweep", "--manifest", str(workspace["manifest"]),
                "--models", f"m1={workspace['model']},m2={workspace['model']}",
                "--strategies", "greedy;topk:2,5;topp:0.9", "--metrics", "self_bleu,seq_rep_4",
                "--prefix-len", "5", "--gen-len", "6", "--n-prefixes", "4",
                "--workers", workers, "--out-dir", str(tmp_path / workers),
            ]
        ) == 0
    serial = tree(tmp_path / "1")
    assert len(serial) == 2 * 2 * 4 + 1
    assert serial == tree(tmp_path / "4")


def _fails_with_one_line(capsys, argv, code):
    capsys.readouterr()
    rc = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert rc == code, err
    prefix = {2: "config error: ", 3: "data error: "}[code]
    assert err.startswith(prefix) and err.count("\n") == 1 and "Traceback" not in err, err
    return err


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["ingest", "--seq-len", "abc"], None, "argument --seq-len: invalid int value: 'abc'"),
        (["ingest", "--format", "xml"], None, "argument --format: invalid choice"),
        (["ingest", "--no-such-flag"], None, "unrecognized arguments"),
        (["no-such-command"], None, "invalid choice"),
        ([], None, "required"),
        (["eval"], None, "required"),
        (["ingest"], {"seq_len": "abc"}, "argument --seq-len: invalid int value: 'abc'"),
        (["ingest"], {"seq_len": [1]}, "argument --seq-len: invalid int value: '[1]'"),
        (["ingest"], {"seq_len": 2.5}, "argument --seq-len: invalid int value: '2.5'"),
        (["ingest"], {"seq_len": True}, "argument --seq-len: invalid int value: 'True'"),
        (["eval", "quality"], {"alpha": {}}, "argument --alpha: invalid float value: '{}'"),
        (["ingest"], b'{"input": "\xff"}', "cannot read config file"),
        (["ingest", "--input", "{text}", "--ratios", "0.8,x,0.1", "--out-dir", "{out}"], None,
         "malformed option value"),
        (["train", "--manifest", "{manifest}", "--objectives", "mle:x", "--out-dir", "{out}"], None,
         "malformed option value"),
        (["sweep", "--manifest", "{manifest}", "--models", "m={model}", "--strategies", "topk:two",
          "--out-dir", "{out}"], None, "malformed option value"),
        (["sweep", "--manifest", "{manifest}", "--models", "m={model}", "--out-dir", "{out}"],
         {"strategies": [5]}, "malformed option value [5]"),
        (["trace", "--model", "{model}", "--ids", "0 1", "--truncate", "topp:x", "--out-dir", "{out}"],
         None, "malformed option value"),
        *(
            (["trace", "--model", "{model}", "--ids", "0 1", "--truncate", bad, "--out-dir", "{out}"], None, want)
            for bad, want in (("topk:0", "top-k needs"), ("topk:{over}", "top-k needs"),
                              ("topp:0", "top-p needs"), ("topp:1.5", "top-p needs"))
        ),
        *(
            (["trace", "--model", "{model}", "--ids", "0 1", "--context-ids", bad, "--out-dir", "{out}"], None,
             f"token id {bad} out of range")
            for bad in ("99999", "-5")
        ),
        *(
            (["trace", "--model", "{model}", "--ids", "0 1", "--truncate", bad, "--out-dir", "{out}"], None, want)
            for bad, want in (("topk:2,3", "truncation must be one"), ("topk:2;topp:0.5", "truncation must be one"),
                              ("greedy", "truncation must be topk or topp"), ("topk", "needs parameter k"))
        ),
        *(
            (["train", "--manifest", "{manifest}", *flags, "--out-dir", "{out}"], None, want)
            for flags, want in (
                (["--objectives", "mle:1.0,ul:nan", "--ul-prefix-len", "5", "--ul-gen-len", "5"],
                 "objective weights must be non-negative and finite"),
                (["--learning-rate", "inf"], "learning_rate must be positive and finite"),
                (["--margin", "nan"], "margin must be finite"),
            )
        ),
        (["train", "--manifest", "{manifest}", "--out-dir", "{out}"], {"objectives": [["mle", True]]},
         "objective weight of 'mle' must be a number, not True"),
        (["train", "--manifest", "{manifest}", "--backend", "ngram", "--k-s", "nan", "--out-dir", "{out}"],
         None, "smoothing constant must be non-negative and finite, not nan"),
        *(
            (["eval", kind, "--samples", "{samples}", "--manifest", "{manifest}", flag, bad, "--out-dir", "{out}"],
             None, f"smoothing constant must be non-negative and finite, not {bad}")
            for kind, flag, bad in (("quality", "--fwd-k-s", "nan"), ("diversity", "--rev-k-s", "inf"))
        ),
        *(
            (["train", "--manifest", "{root}/none.json", "--backend", "ffn", flag, "0", "--out-dir", "{out}"],
             None, "context, embed_dim and hidden_dim must be positive")
            for flag in ("--context", "--embed-dim", "--hidden-dim")
        ),
        *(
            (["generate", "--model", "{model}", "--manifest", "{manifest}", *flags, "--out-dir", "{out}"], None, want)
            for flags, want in (
                (["--strategy", "topp", "--p", "0.9", "--k", "3"], "parameter k not valid for strategy topp"),
                (["--strategy", "greedy", "--t", "1.0"], "parameter t not valid for strategy greedy"),
                (["--strategy", "penalized", "--t", "0.8"], "strategy penalized needs parameter theta"),
            )
        ),
    ],
)
def test_usage_errors_are_one_line_config_errors(workspace, tmp_path, capsys, argv, config, message):
    over = load_model(workspace["model"]).vocab.size + 1  # one past the vocab
    argv = [a.format(out=tmp_path, over=over, **workspace) for a in argv]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        argv += ["--config", str(path)]
    assert message in _fails_with_one_line(capsys, argv, 2)


_BAD_TRAIN_CONFIGS = {
    "{oops": "cannot read config file {path}",
    '{"epochs": "x"}': "argument --epochs: invalid int value: 'x'",
    "[1, 2]": "{path}: config must be a JSON object",
}


@pytest.mark.parametrize("content", list(_BAD_TRAIN_CONFIGS))
def test_bad_train_config_is_one_line_config_error(workspace, tmp_path, capsys, content):
    path = tmp_path / "train.json"
    path.write_text(content, encoding="utf-8")
    argv = ["train", "--manifest", workspace["manifest"], "--config", path, "--out-dir", tmp_path]
    assert _BAD_TRAIN_CONFIGS[content].format(path=path) in _fails_with_one_line(capsys, argv, 2)


# ---------------------------------------------------------------------------
# malformed inputs: exit 2 or 3 with one line, never a traceback
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "case, where",
    [
        ("manifest-not-json", "manifest.json:"),
        ("manifest-without-tokenizer", "manifest.json:"),
        ("manifest-seq-len-zero", "manifest.json:"),
        ("id-not-integer", "train.ids.txt:3:"),
        ("id-outside-vocab", "train.ids.txt:2:"),
        ("vocab-size-disagrees", "train.ids.txt:1:"),
    ],
)
def test_malformed_splits_are_data_errors(workspace, tmp_path, capsys, case, where):
    data = tmp_path / "data"
    shutil.copytree(workspace["manifest"].parent, data)
    manifest, ids = data / "manifest.json", data / "train.ids.txt"
    lines = ids.read_text(encoding="utf-8").splitlines()
    vocab_size = int(lines[0].split("=")[1])
    if case == "manifest-not-json":
        manifest.write_text("{oops", encoding="utf-8")
    elif case == "manifest-without-tokenizer":
        content = json.loads(manifest.read_text(encoding="utf-8"))
        del content["tokenizer"]
        manifest.write_text(json.dumps(content), encoding="utf-8")
    elif case == "manifest-seq-len-zero":  # no chunk of a split could be read with it
        manifest.write_text(manifest.read_text(encoding="utf-8").replace('"seq_len": 30', '"seq_len": 0'), encoding="utf-8")
    else:
        if case == "id-not-integer":
            lines[2] += " x"
        elif case == "id-outside-vocab":
            lines[1] += f" {vocab_size}"
        else:
            lines[0] = f"#vocab_size={vocab_size + 1}"
        ids.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["train", "--manifest", manifest, "--backend", "ngram", "--out-dir", tmp_path / "out"]
    err = _fails_with_one_line(capsys, argv, 3)
    assert f"{data / where}" in err
    assert not (tmp_path / "out" / "model.lmek").exists()


@pytest.mark.parametrize(
    "case",
    ["bad-magic", "label-head", "csv-cell", "samples-utf8", "sentences-utf8", "triples-utf8",
     "stories-utf8", "labels-utf8"],
)
def test_malformed_reader_inputs_are_data_errors(workspace, tmp_path, capsys, case):
    model, manifest, out = workspace["model"], workspace["manifest"], tmp_path / "out"
    path = tmp_path / "input"
    train_pos = ["train", "--manifest", manifest, "--backend", "ffn", "--objectives", "pos:1.0",
                 "--labels", path, "--epochs", "1", "--out-dir", out]
    where = f"{path}:"
    if case == "bad-magic":
        path.write_bytes(b"NOTAMODEL")
        argv = ["trace", "--model", path, "--ids", "0", "--out-dir", out]
    elif case == "label-head":
        path.write_text("the\tDET\t0\ncat\tNOUN\tx\n", encoding="utf-8")
        argv, where = train_pos, f"{path}:2:"
    elif case == "csv-cell":
        write_sweep_csv(path, [SweepRecord("m", "topk", 2, 3, {"corpus_bleu": 0.5}, 0)])
        path.write_text(path.read_text(encoding="utf-8").replace("0.5", "abc"), encoding="utf-8")
        argv, where = ["fit", "--csv", path, "--out-dir", out], f"{path}:2:"
    else:
        kind = case.split("-")[0]
        good = {"samples": json.dumps(_GOOD_ROW), "sentences": "the cat sat",
                "triples": "the cat sat.\tthe dog ran\tthe sun sat",
                "stories": "\t".join(["the cat sat."] * 4 + ["the dog ran", "a sun sat", "a"]),
                "labels": "the\tDET"}[kind]
        path.write_bytes(good.encode("utf-8") + b"\n\xff\xfe\n")
        argv = {
            "samples": ["eval", "quality", "--samples", path, "--manifest", manifest],
            "sentences": ["eval", "acceptability", "--model", model, "--sentences", path],
            "triples": ["eval", "consistency", "--model", model, "--triples", path],
            "stories": ["eval", "consistency", "--model", model, "--stories", path],
            "labels": train_pos,
        }[kind] + ["--out-dir", out]
        where = f"{path}:2: 'utf-8' codec can't decode byte 0xff in position {len(good) + 1}"
    err = _fails_with_one_line(capsys, argv, 3)
    assert where in err


def _rewrite_ngram_records(src, dst, order, i, j, copy):
    """Write ``src``'s model file to ``dst`` with record j of the given
    order copied over record i (``copy``) or the two swapped."""
    blob = src.read_bytes()
    body = 13 + int.from_bytes(blob[5:13], "little")
    payload = np.frombuffer(blob, dtype="<f8", offset=body).copy()
    pos = 0
    for o in range(1, order):
        pos += 1 + int(payload[pos]) * (o + 1)
    records = payload[pos + 1 : pos + 1 + int(payload[pos]) * (order + 1)].reshape(-1, order + 1)
    if copy:
        records[i] = records[j]
    else:
        records[[i, j]] = records[[j, i]]
    dst.write_bytes(blob[:body] + payload.tobytes())
    return len(records)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("copy", [False, True], ids=["swapped", "repeated"])
def test_ngram_records_out_of_order_are_data_errors(workspace, tmp_path, capsys, order, copy):
    path = tmp_path / "model.lmek"
    _rewrite_ngram_records(workspace["model"], path, order, 0, 1, copy)
    argv = ["eval", "acceptability", "--model", path, "--sentences", tmp_path / "s.txt",
            "--out-dir", tmp_path / "out"]
    (tmp_path / "s.txt").write_text("the cat sat\n", encoding="utf-8")
    err = _fails_with_one_line(capsys, argv, 3)
    assert f"{path}: order-{order} n-grams are not strictly increasing" in err


@settings(derandomize=True, database=None, max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_reordered_or_repeated_ngram_records_fail_cleanly(workspace, tmp_path, data):
    path = tmp_path / "model.lmek"
    order = data.draw(st.sampled_from([1, 2]), label="order")
    n = _rewrite_ngram_records(workspace["model"], path, order, 0, 0, True)
    i = data.draw(st.integers(0, n - 1), label="i")
    j = data.draw(st.integers(0, n - 1).filter(lambda j: j != i), label="j")
    _rewrite_ngram_records(workspace["model"], path, order, i, j, data.draw(st.booleans(), label="copy"))
    argv = ["generate", "--model", path, "--manifest", workspace["manifest"], "--strategy", "greedy",
            "--prefix-len", "3", "--gen-len", "4", "--n-prefixes", "2", "--out-dir", tmp_path / "out"]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        rc = main([str(a) for a in argv])
    err = stderr.getvalue()
    assert rc == 3 and err.count("\n") == 1, err
    assert f"{path}: order-{order} n-grams are not strictly increasing" in err


@pytest.mark.parametrize("reader", ["sentences", "ingest-text", "ids", "sweep-csv", "pairs-text"])
def test_non_utf8_input_error_names_file_and_line(workspace, tmp_path, capsys, reader):
    model, manifest, out = workspace["model"], workspace["manifest"], tmp_path / "out"
    path = tmp_path / "input"
    head = {"sentences": "the cat sat\nthe dog ran\n", "ingest-text": "the cat sat.\n\n",
            "ids": "#vocab_size=9\n1 2 3\n", "pairs-text": "the cat sat. the dog ran.\n",
            "sweep-csv": ",".join(CSV_COLUMNS) + "\r\n"}[reader].encode("utf-8")
    path.write_bytes(head + b"ok \xe2\x82 \xff\n")  # a cut multi-byte sequence on line 3
    argv = {
        "sentences": ["eval", "acceptability", "--model", model, "--sentences", path],
        "ingest-text": ["ingest", "--input", path],
        "ids": ["ingest", "--input", path, "--format", "ids"],
        "sweep-csv": ["fit", "--csv", path],
        "pairs-text": ["train", "--manifest", manifest, "--backend", "ffn", "--objectives", "nsp:1.0",
                       "--pairs-text", path, "--epochs", "1"],
    }[reader] + ["--out-dir", out]
    err = _fails_with_one_line(capsys, argv, 3)
    line = head.count(b"\n") + 1
    assert f"data error: {path}:{line}: 'utf-8' codec can't decode" in err
    assert f"in position {len(head) + 3}-" in err


# One valid file of each input type, the file a mutation replaces, and the
# command that reads it; "{w}" is a fresh copy of the clean inputs.
_FUZZ_TARGETS = {
    "manifest": ("data/manifest.json", ["train", "--manifest", "{w}/data/manifest.json", "--backend", "ngram"]),
    "ids": ("data/train.ids.txt", ["train", "--manifest", "{w}/data/manifest.json", "--backend", "ngram"]),
    "model": ("ngram.lmek", ["generate", "--model", "{w}/ngram.lmek", "--manifest", "{w}/data/manifest.json",
                             "--strategy", "topp", "--p", "0.9", "--prefix-len", "3", "--gen-len", "4",
                             "--n-prefixes", "2"]),
    "ffn_model": ("ffn.lmek", ["eval", "acceptability", "--model", "{w}/ffn.lmek",
                               "--sentences", "{w}/sentences.txt"]),
    "samples": ("samples.jsonl", ["eval", "quality", "--samples", "{w}/samples.jsonl",
                                  "--manifest", "{w}/data/manifest.json"]),
    "triples": ("nli.tsv", ["eval", "consistency", "--model", "{w}/ngram.lmek", "--triples", "{w}/nli.tsv"]),
    "stories": ("stories.tsv", ["eval", "consistency", "--model", "{w}/ngram.lmek",
                                "--stories", "{w}/stories.tsv"]),
    "labels": ("labels.tsv", ["train", "--manifest", "{w}/data/manifest.json", "--backend", "ffn",
                              "--objectives", "pos:1.0", "--labels", "{w}/labels.tsv", "--epochs", "1",
                              "--context", "2", "--embed-dim", "4", "--hidden-dim", "4"]),
    "sentences": ("sentences.txt", ["eval", "acceptability", "--model", "{w}/ngram.lmek",
                                    "--sentences", "{w}/sentences.txt"]),
    "sweep_csv": ("sweep.csv", ["fit", "--csv", "{w}/sweep.csv"]),
    "config": ("config.json", ["ingest", "--config", "{w}/config.json"]),
    "train_config": ("train.json", ["train", "--manifest", "{w}/data/manifest.json", "--backend", "ffn",
                                    "--config", "{w}/train.json"]),
}


@pytest.fixture(scope="module")
def fuzz_inputs(workspace, tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    clean = root / "clean"
    shutil.copytree(workspace["manifest"].parent, clean / "data")
    shutil.copy(workspace["model"], clean / "ngram.lmek")
    shutil.copy(workspace["text"], clean / "corpus.txt")
    assert main(["train", "--manifest", str(workspace["manifest"]), "--backend", "ffn", "--epochs", "1",
                 "--context", "2", "--embed-dim", "4", "--hidden-dim", "4", "--model-out",
                 str(clean / "ffn.lmek"), "--out-dir", str(root / "ffn")]) == 0
    assert _generate(workspace, root / "gen", extra=["--samples-out", str(clean / "samples.jsonl")]) == 0
    (clean / "nli.tsv").write_text(
        "the cat sat the home.\tthe dog ran\tthe sea held\na man met a tree.\tthe sun sat\tthe fish left\n",
        encoding="utf-8",
    )
    (clean / "stories.tsv").write_text(
        "\t".join(["the cat sat.", "a dog ran.", "the man met a tree.", "the sun sat.",
                   "the fish left", "a sea held", "b"]) + "\n",
        encoding="utf-8",
    )
    (clean / "labels.tsv").write_text(
        "the\tDET\t1\ncat\tNOUN\t1\nsat\tVERB\t0\n\na\tDET\t1\ndog\tNOUN\t-1\n", encoding="utf-8"
    )
    (clean / "sentences.txt").write_text("the cat sat\nthe dog ran the road\n", encoding="utf-8")
    write_sweep_csv(
        clean / "sweep.csv",
        [
            SweepRecord(m, "topp", p, 4, {"corpus_bleu": 0.1 + p / 4, "self_bleu": 0.2 + p / 2}, 0)
            for m in ("m1", "m2") for p in (0.3, 0.6, 0.9)
        ],
    )
    config = {"input": str(clean / "corpus.txt"), "seq_len": 30, "ratios": "0.8,0.1,0.1",
              "scheme": "word", "seed": 3}
    (clean / "config.json").write_text(json.dumps(config), encoding="utf-8")
    train = {"epochs": 1, "batch_size": 8, "learning_rate": 0.01, "objectives": [["mle", 1.0], ["ul", 0.5]],
             "mix_prob": 0.5, "ul_prefix_len": 3, "ul_gen_len": 4, "ul_ngram": 2, "margin": 1.0,
             "context": 2, "embed_dim": 4, "hidden_dim": 4}
    (clean / "train.json").write_text(json.dumps(train), encoding="utf-8")
    return root


@pytest.mark.parametrize("kind", sorted(_FUZZ_TARGETS))
@settings(derandomize=True, database=None, max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_truncated_or_mutated_input_fails_cleanly(fuzz_inputs, kind, data):
    name, argv = _FUZZ_TARGETS[kind]
    work = fuzz_inputs / f"work-{kind}"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(fuzz_inputs / "clean", work)
    target = work / name
    blob = target.read_bytes()
    pos = data.draw(st.integers(0, len(blob) - 1), label="position")
    if data.draw(st.booleans(), label="truncate"):
        target.write_bytes(blob[:pos])
    else:
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]), label="byte")
        target.write_bytes(blob[:pos] + bytes([byte]) + blob[pos + 1:])
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        rc = main([a.format(w=work) for a in argv] + ["--out-dir", str(work / "out")])
    err = stderr.getvalue()
    assert rc in (0, 2, 3), err
    assert "Traceback" not in err
    if rc:
        assert err.count("\n") == 1, err


# The inputs whose readers hold ids as arrays, each with the eval kind that
# reads it, cut or with one byte changed at seeded places: 15 cases a file.
_PROBED = {"train": "data/train.ids.txt", "test": "data/test.ids.txt", "manifest": "data/manifest.json",
           "samples": "samples.jsonl"}


@pytest.mark.parametrize("case", range(15))
@pytest.mark.parametrize("kind", sorted(_PROBED))
def test_a_cut_or_flipped_ids_input_exits_0_2_or_3_with_one_line(fuzz_inputs, tmp_path, kind, case):
    shutil.copytree(fuzz_inputs / "clean" / "data", tmp_path / "data")
    shutil.copy(fuzz_inputs / "clean" / "samples.jsonl", tmp_path / "samples.jsonl")
    target = tmp_path / _PROBED[kind]
    blob = target.read_bytes()
    rng = np.random.default_rng([32, case, sorted(_PROBED).index(kind)])
    pos = int(rng.integers(len(blob)))
    if case % 2:
        target.write_bytes(blob[:pos])
    else:
        target.write_bytes(blob[:pos] + bytes([(blob[pos] + int(rng.integers(1, 256))) % 256]) + blob[pos + 1:])
    argv = ["eval", "diversity" if kind == "test" else "quality", "--samples", tmp_path / "samples.jsonl",
            "--manifest", tmp_path / "data" / "manifest.json", "--out-dir", tmp_path / "out"]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        rc = main([str(a) for a in argv])
    err = stderr.getvalue()
    assert rc in (0, 2, 3) and "Traceback" not in err, err
    if rc:
        assert err.count("\n") == 1, err
