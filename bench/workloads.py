"""Workload definitions and the worker that runs one repetition.

A repetition is one closed-loop pass over a workload's pipeline: each
CLI stage (``genteval.harness.cli.main``) starts only after the previous
one has returned. It runs in a fresh Python process so that peak memory
and lazy initialisation belong to that pass alone:

    python3 bench/workloads.py --workload NAME --inputs DIR --out DIR [--trace]

The worker writes ``result.json`` into ``--out`` (stage timings, exit
codes, work counts, peak RSS and, when traced, the per-layer metrics);
the program's own artifacts go under ``--out``/art.

Between stages the worker may write derived inputs (the ffn training
slice, sample files in the manifest's ids); that glue is not timed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

import inputs  # noqa: E402  (sibling module; bench/ is on sys.path)

# The program's own seed. It is held constant so the UL coin flips and
# sampler streams follow the same pattern for every input seed, which
# keeps the work per repetition the same across seeds.
PROGRAM_SEED = 1
BATCH_SIZE = 16

STRATEGIES = "greedy;beam:4;topk:40;topp:0.9;temperature:0.8;penalized:1.5"
SWEEP_CELLS = 2 * len(STRATEGIES.split(";"))  # two models


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" | "train" | "score"
    scheme: str
    why: str
    corpus_size: int  # word tokens or characters
    seq_len: int
    slice_seqs: int  # training sequences for the ffn
    epochs: int = 1
    order: int = 2
    n_prefixes: int = 0
    prefix_len: int = 16
    gen_len: int = 0
    n_samples: int = 0
    n_items: int = 0
    lexicon: int = 4999  # word scheme: V = lexicon + the period

    @property
    def vocab_size(self) -> int:
        return len(inputs.CHAR_ALPHABET) if self.scheme == "char" else self.lexicon + 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_word", "sweep", "word",
            "V=5000: next_dist and decoding dominate the 2 models x 6 strategies sweep",
            corpus_size=60000, seq_len=64, slice_seqs=32,
            n_prefixes=8, prefix_len=16, gen_len=12,
        ),
        Workload(
            "sweep_char", "sweep", "char",
            "V=100: per-call decode overhead and the metrics dominate the sweep, not O(V) work",
            corpus_size=40000, seq_len=128, slice_seqs=32, order=4,
            n_prefixes=20, prefix_len=32, gen_len=48,
        ),
        Workload(
            "train_word", "train", "word",
            "V=5000 ffn training with MLE + token/sequence UL: forward/backward, losses and Adam",
            corpus_size=60000, seq_len=64, slice_seqs=48, epochs=2,
        ),
        Workload(
            "score_word", "score", "word",
            "eval only, no decoding: BLEU, Self-BLEU, n-gram fits, consistency and acceptability",
            corpus_size=24000, seq_len=64, slice_seqs=32,
            prefix_len=16, gen_len=40, n_samples=100, n_items=150,
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """A much smaller copy of a workload, for the self-test."""
    return replace(
        w,
        corpus_size=6000 if w.scheme == "word" else 4000,
        slice_seqs=min(w.slice_seqs, 32),
        n_prefixes=min(w.n_prefixes, 3),
        gen_len=min(w.gen_len, 8),
        n_samples=min(w.n_samples, 12),
        n_items=min(w.n_items, 12),
        lexicon=600,
    )


def make_inputs(w: Workload, seed: int, out: Path) -> None:
    """Write every input file of the workload; a pure function of ``seed``."""
    out.mkdir(parents=True, exist_ok=True)
    if w.scheme == "char":
        (out / "corpus.txt").write_text(inputs.char_corpus(seed, w.corpus_size), encoding="utf-8")
        return
    text, lexicon = inputs.word_corpus(seed, w.lexicon, w.corpus_size)
    (out / "corpus.txt").write_text(text, encoding="utf-8")
    if w.kind != "score":
        return
    sets = inputs.sample_sets(seed, lexicon, w.n_samples, w.gen_len)
    (out / "sample_sets.json").write_text(json.dumps(sets), encoding="utf-8")
    (out / "nli.tsv").write_text("\n".join(inputs.nli_triples(seed, lexicon, w.n_items)) + "\n", encoding="utf-8")
    (out / "stories.tsv").write_text("\n".join(inputs.stories(seed, lexicon, w.n_items)) + "\n", encoding="utf-8")
    (out / "sentences.txt").write_text("\n".join(inputs.sentences(seed, lexicon, w.n_items)) + "\n", encoding="utf-8")
    (out / "sweep.csv").write_text(inputs.sweep_csv(seed, 2, 6), encoding="utf-8")


# ---------------------------------------------------------------------------
# Glue between stages
# ---------------------------------------------------------------------------


def write_slice(data: Path, dest: Path, n_seqs: int) -> None:
    """A manifest sharing ``data``'s vocab whose train split is its first ``n_seqs`` chunks."""
    dest.mkdir(parents=True, exist_ok=True)
    manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
    header, *lines = (data / "train.ids.txt").read_text(encoding="utf-8").splitlines()
    lines = lines[:n_seqs]
    (dest / "train.ids.txt").write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    for name in ("dev", "test"):
        (dest / f"{name}.ids.txt").write_text("\n".join([header, lines[0]]) + "\n", encoding="utf-8")
    manifest["counts"] = [len(lines), 1, 1]
    (dest / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_sample_files(inp: Path, data: Path, dest: Path) -> dict[str, Path]:
    """Encode the generated surface lists with the ingested vocab, one JSONL per set."""
    dest.mkdir(parents=True, exist_ok=True)
    vocab = json.loads((data / "manifest.json").read_text(encoding="utf-8"))["tokenizer"]["vocab"]
    index = {tok: i for i, tok in enumerate(vocab)}
    paths = {}
    for name, samples in json.loads((inp / "sample_sets.json").read_text(encoding="utf-8")).items():
        path = dest / f"{name}.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for i, surfaces in enumerate(samples):
                row = {"id": str(i), "model": name, "strategy": "external", "param": None,
                       "seed": 0, "prefix_ids": [], "continuation_ids": [index[s] for s in surfaces]}
                f.write(json.dumps(row, sort_keys=True) + "\n")
        paths[name] = path
    return paths


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------


class Pipeline:
    """Runs CLI stages in order and records what each did."""

    def __init__(self, tracer=None, fault=None) -> None:
        from genteval.harness import cli

        self.cli = cli
        self.tracer = tracer
        self.fault = fault
        self.stages: list[dict] = []

    def run(self, phase: str, argv: list[str], art: Path) -> int:
        argv = [str(a) for a in argv]
        if self.fault is not None:
            argv = self.fault(argv, art)
        stage = argv[0]
        start = perf_counter()
        error = None
        try:
            if self.tracer is not None:
                rc = self.tracer.call(f"harness.cli.{stage}", self.cli.main, (argv,))
            else:
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a crashing stage is a counted failure
            rc = 1
            error = traceback.format_exc(limit=3)
        elapsed = perf_counter() - start
        self.stages.append({"phase": phase, "argv": argv, "rc": rc, "s": elapsed, "error": error})
        return rc


def run_rep(w: Workload, inp: Path, out: Path, tracer=None, fault=None) -> dict:
    """One closed-loop pass over the workload; returns the result record."""
    art = out / "art"
    art.mkdir(parents=True, exist_ok=True)
    data = art / "data"
    p = Pipeline(tracer, fault)
    seed = ["--seed", PROGRAM_SEED]
    p.run("setup", ["ingest", "--input", inp / "corpus.txt", "--scheme", w.scheme,
                    "--seq-len", w.seq_len, "--ratios", "0.8,0.1,0.1", "--out-dir", data, *seed], art)
    glue = out / "glue"
    work: dict[str, float] = {}
    if (data / "manifest.json").exists():
        write_slice(data, glue / "slice", w.slice_seqs)

    if w.kind == "train":
        p.run("main", ["train", "--manifest", glue / "slice" / "manifest.json", "--backend", "ffn",
                       "--epochs", w.epochs, "--batch-size", BATCH_SIZE, "--objectives", "mle:1.0,ul:0.5",
                       "--mix-prob", 0.5, "--ul-prefix-len", 16, "--ul-gen-len", 24, "--ul-ngram", 4,
                       "--out-dir", art / "ffn", *seed], art)
        work["tokens"] = w.slice_seqs * w.seq_len * w.epochs
    else:
        p.run("setup", ["train", "--manifest", data / "manifest.json", "--backend", "ngram",
                        "--order", w.order, "--out-dir", art / "ngram", *seed], art)
        p.run("setup", ["train", "--manifest", glue / "slice" / "manifest.json", "--backend", "ffn",
                        "--epochs", 1, "--batch-size", BATCH_SIZE, "--out-dir", art / "ffn", *seed], art)
        models = {"ngram": art / "ngram" / "model.lmek", "ffn": art / "ffn" / "model.lmek"}

    if w.kind == "sweep":
        # --workers 1: on a shared two-core host, a pool of two GIL-bound
        # threads doubled the run-to-run spread of the sweep time.
        p.run("main", ["sweep", "--manifest", data / "manifest.json",
                       "--models", ",".join(f"{k}={v}" for k, v in models.items()),
                       "--strategies", STRATEGIES, "--prefix-len", w.prefix_len, "--gen-len", w.gen_len,
                       "--n-prefixes", w.n_prefixes, "--workers", 1,
                       "--out-dir", art / "sweep", *seed], art)
        work["tokens"] = SWEEP_CELLS * w.n_prefixes * w.gen_len
        p.run("post", ["fit", "--csv", art / "sweep" / "sweep.csv", "--out-dir", art / "fit", *seed], art)

    if w.kind == "score":
        sets, n_refs = {}, 0
        if (data / "manifest.json").exists():
            sets = write_sample_files(inp, data, glue / "samples")
            n_refs = json.loads((data / "manifest.json").read_text(encoding="utf-8"))["counts"][2]
        work["tokens"] = 0
        for name, path in sets.items():
            for kind in ("quality", "diversity"):
                p.run("main", ["eval", kind, "--samples", path, "--manifest", data / "manifest.json",
                               "--prefix-len", w.prefix_len, "--gen-len", w.gen_len,
                               "--out-dir", art / "eval" / name, *seed], art)
                work["tokens"] += (w.n_samples + n_refs) * w.gen_len
        work["items"] = 0
        for model, path in models.items():
            for flag, fname in (("--triples", "nli.tsv"), ("--stories", "stories.tsv")):
                p.run("consistency", ["eval", "consistency", "--model", path, flag, inp / fname,
                                      "--out-dir", art / "consistency" / model, *seed], art)
                work["items"] += w.n_items
            p.run("post", ["eval", "acceptability", "--model", path, "--sentences", inp / "sentences.txt",
                           "--out-dir", art / "acceptability" / model, *seed], art)
        p.run("post", ["fit", "--csv", inp / "sweep.csv", "--out-dir", art / "fit", *seed], art)

    result = {
        "workload": w.name,
        "stages": p.stages,
        "work": work,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["missing"] = tracer.missing
        result["count_errors"] = sorted(tracer.count_errors)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC_DIR))
    import genteval.harness.cli  # noqa: F401  (every layer module is loaded before wrapping)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    w = WORKLOADS[args.workload]
    result = run_rep(tiny(w) if args.tiny else w, args.inputs, args.out, tracer=tracer)
    (args.out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
