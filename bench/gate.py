"""Correctness gate for one workload run.

``check_rep`` runs on every repetition and only reads artifacts: every
stage exited 0, no sweep cell failed, sample counts and lengths match
the configuration, every id lies inside the vocab, BLEU-type values lie
in [0, 1] and perplexities are finite. ``deep_check`` runs once per run
and recomputes results independently: the greedy cells against the
benchmark's own argmax-over-``next_dist`` decode, and corpus BLEU and
Self-BLEU with a brute-force BLEU written here, not imported from the
program. Byte-identical artifacts across repetitions are checked by
comparing ``artifact_digest`` values.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import BATCH_SIZE, SWEEP_CELLS


def artifact_digest(art: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in art.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(art)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _ids_lines(path: Path) -> list[list[int]]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return [[int(t) for t in line.split()] for line in lines if line.strip()]


def _finite_positive(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0


def _unit(x) -> bool:
    return isinstance(x, (int, float)) and 0.0 <= x <= 1.0


class Problems(list):
    def need(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)


def check_rep(w, out: Path, result: dict) -> tuple[int, int, list[str]]:
    """Artifact checks for one repetition: (attempted ops, failed ops, problems)."""
    art = out / "art"
    bad = Problems()
    attempted = len(result["stages"])
    failed = 0
    for s in result["stages"]:
        if s["rc"] != 0:
            failed += 1
            crash = f" ({s['error'].strip().splitlines()[-1]})" if s["error"] else ""
            bad.append(f"stage {' '.join(s['argv'][:2])} exited {s['rc']}{crash}")
    data = art / "data"
    if not (data / "manifest.json").exists():
        return attempted, failed, bad + ["no manifest"]
    manifest = _read_json(data / "manifest.json")
    vocab = len(manifest["tokenizer"]["vocab"])
    bad.need(vocab == w.vocab_size, f"ingest built a vocab of {vocab}, inputs have {w.vocab_size}")
    if w.kind == "sweep":
        a, f = _check_sweep(w, art, vocab, bad)
        attempted, failed = attempted + a, failed + f
    elif w.kind == "train":
        _check_train(w, art, bad)
    else:
        _check_score(w, art, bad)
    return attempted, failed, bad


def _check_sweep(w, art: Path, vocab: int, bad: Problems) -> tuple[int, int]:
    records = sorted((art / "sweep" / "records").glob("*.json"))
    bad.need(len(records) == SWEEP_CELLS, f"expected {SWEEP_CELLS} sweep records, found {len(records)}")
    failed = 0
    for path in records:
        r = _read_json(path)
        if r["failed"]:
            failed += 1
            bad.append(f"cell {path.stem} failed: {r['failed']}")
            continue
        bad.need(r["n_samples"] == w.n_prefixes, f"{path.stem}: n_samples {r['n_samples']}")
        m = r["metrics"]
        for name in ("corpus_bleu", "self_bleu", "seq_rep_4"):
            bad.need(_unit(m.get(name)), f"{path.stem}: {name}={m.get(name)} outside [0, 1]")
        for name in ("forward_ppl", "reverse_ppl"):
            bad.need(_finite_positive(m.get(name)), f"{path.stem}: {name}={m.get(name)} not finite")
        limit = vocab + (1 if r["model"] == "ffn" else 0)  # the ffn appends a pad token
        rows = _jsonl(art / "sweep" / "samples" / r["samples_file"])
        bad.need(len(rows) == w.n_prefixes, f"{path.stem}: {len(rows)} sample rows")
        for row in rows:
            ids = row["continuation_ids"]
            bad.need(len(ids) == w.gen_len, f"{path.stem}: continuation of {len(ids)} tokens")
            bad.need(all(0 <= i < limit for i in ids), f"{path.stem}: id outside vocab of {limit}")
    for name in ("fits.json", "tradeoff.csv"):
        bad.need((art / "fit" / name).exists(), f"fit did not write {name}")
    return len(records), failed


def _check_train(w, art: Path, bad: Problems) -> None:
    path = art / "ffn" / "train_history.json"
    if not path.exists():
        bad.append("no train_history.json")
        return
    history = _read_json(path)
    steps = -(-w.slice_seqs // BATCH_SIZE) * w.epochs
    bad.need(len(history) == steps, f"{len(history)} train steps, expected {steps}")
    bad.need(all(math.isfinite(h["total"]) for h in history), "non-finite training loss")
    branches = {h.get("ul_branch") for h in history}
    bad.need(branches == {0.0, 1.0}, f"UL branches reached: {sorted(branches, key=str)}")
    bad.need((art / "ffn" / "model.lmek").exists(), "model was not saved")


def _check_score(w, art: Path, bad: Problems) -> None:
    for set_dir in sorted((art / "eval").glob("*")):
        for metric, check in (("corpus_bleu", _unit), ("self_bleu", _unit), ("seq_rep_4", _unit),
                              ("forward_ppl", _finite_positive), ("reverse_ppl", _finite_positive)):
            path = set_dir / f"report_{metric}.json"
            if not path.exists():
                bad.append(f"{set_dir.name}: no {path.name}")
                continue
            report = _read_json(path)
            bad.need(check(report["value"]), f"{set_dir.name}: {metric}={report['value']}")
            bad.need(report["n_samples"] == w.n_samples, f"{set_dir.name}: n_samples {report['n_samples']}")
    for model in ("ngram", "ffn"):
        for name in ("report_nli.json", "report_story.json"):
            path = art / "consistency" / model / name
            if not path.exists():
                bad.append(f"{model}: no {name}")
                continue
            report = _read_json(path)
            bad.need(report["n"] == w.n_items and _unit(report["accuracy"]), f"{model}/{name}: {report}")
        path = art / "acceptability" / model / "report_acceptability.json"
        ok = path.exists() and math.isfinite(_read_json(path)["value"] or math.nan)
        bad.need(ok, f"{model}: acceptability report missing or not finite")
    bad.need((art / "fit" / "fits.json").exists(), "fit did not write fits.json")


# ---------------------------------------------------------------------------
# Independent recomputation
# ---------------------------------------------------------------------------


def _grams(ids, n: int) -> dict[tuple, int]:
    out: dict[tuple, int] = {}
    for i in range(len(ids) - n + 1):
        g = tuple(ids[i : i + n])
        out[g] = out.get(g, 0) + 1
    return out


def brute_bleu(cand, refs, max_n: int = 4, eps: float = 1e-9) -> float:
    """Clipped-precision BLEU by scanning every reference for every gram."""
    c_len = len(cand)
    orders = min(max_n, c_len)
    log_sum = 0.0
    for n in range(1, orders + 1):
        ref_grams = [_grams(r, n) for r in refs]
        matched = sum(min(c, max(rg.get(g, 0) for rg in ref_grams)) for g, c in _grams(cand, n).items())
        log_sum += math.log(matched / (c_len - n + 1) if matched else eps)
    r_len = min((abs(len(r) - c_len), len(r)) for r in refs)[1]
    return math.exp(min(0.0, 1.0 - r_len / c_len)) * math.exp(log_sum / orders)


def brute_corpus_bleu(cands, refs) -> float:
    return sum(brute_bleu(c, refs) for c in cands) / len(cands)


def brute_self_bleu(cands) -> float:
    return sum(brute_bleu(c, cands[:i] + cands[i + 1 :]) for i, c in enumerate(cands)) / len(cands)


def _refs(art: Path, prefix_len: int, gen_len: int) -> list[list[int]]:
    return [ids[prefix_len : prefix_len + gen_len] for ids in _ids_lines(art / "data" / "test.ids.txt")
            if len(ids) > prefix_len]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def deep_check(w, out: Path) -> tuple[list[str], int, int]:
    """Recompute greedy decodes and BLEU; returns (problems, greedy matched, greedy total)."""
    from genteval.lm.store import load_model

    art = out / "art"
    bad = Problems()
    matched = total = 0
    if w.kind == "sweep":
        train = _ids_lines(art / "data" / "train.ids.txt")[: w.n_prefixes]
        refs = _refs(art, w.prefix_len, w.gen_len)
        cells = {(r["model"], r["strategy"]): r for r in map(_read_json, (art / "sweep" / "records").glob("*.json"))}
        for model_name in ("ngram", "ffn"):
            model = load_model(art / model_name / "model.lmek")
            rows = _jsonl(art / "sweep" / "samples" / cells[model_name, "greedy"]["samples_file"])
            for ids, row in zip(train, rows):
                ctx = ids[: w.prefix_len]
                for _ in range(w.gen_len):
                    ctx.append(int(np.argmax(np.asarray(model.next_dist(ctx), dtype=np.float64))))
                total += 1
                matched += ctx[w.prefix_len :] == row["continuation_ids"]
            record = cells[model_name, "topp"]
            cands = [row["continuation_ids"] for row in _jsonl(art / "sweep" / "samples" / record["samples_file"])]
            cb, sb = brute_corpus_bleu(cands, refs), brute_self_bleu(cands)
            bad.need(_close(record["metrics"]["corpus_bleu"], cb), f"{model_name} topp corpus_bleu != brute force {cb}")
            bad.need(_close(record["metrics"]["self_bleu"], sb), f"{model_name} topp self_bleu != brute force {sb}")
        bad.need(matched == total, f"greedy matched the reference decode on {matched}/{total} prefixes")
    elif w.kind == "train":
        model = load_model(art / "ffn" / "model.lmek")
        vocab = len(_read_json(art / "data" / "manifest.json")["tokenizer"]["vocab"])
        bad.need(model.vocab.size == vocab + 1, f"trained model vocab {model.vocab.size}")
        bad.need(all(np.isfinite(p).all() for p in model.params.values()), "non-finite parameters")
    else:
        refs = _refs(art, w.prefix_len, w.gen_len)
        for name, metric in (("markov", "corpus_bleu"), ("phrase6", "self_bleu")):
            cands = [row["continuation_ids"] for row in _jsonl(out / "glue" / "samples" / f"{name}.jsonl")]
            value = _read_json(art / "eval" / name / f"report_{metric}.json")["value"]
            expect = brute_corpus_bleu(cands, refs) if metric == "corpus_bleu" else brute_self_bleu(cands)
            bad.need(_close(value, expect), f"{name} {metric} {value} != brute force {expect}")
    return bad, matched, total
