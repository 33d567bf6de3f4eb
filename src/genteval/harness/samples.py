"""SampleSet persistence and metric report files.

Samples travel as JSONL, one object per line with keys id, model,
strategy, param, seed, prefix_ids, continuation_ids. Metric reports are
small JSON documents carrying the value next to everything needed to
reproduce it.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..corpus import TokenSequence, Vocab
from ..errors import ConfigError, DataError, open_text, write_json, write_jsonl
from ..metrics import Sample, SampleSet

# The provenance keys every sample row repeats.
_PROVENANCE = ("model", "strategy", "param", "seed")


def save_sample_set(path: str | Path, sset: SampleSet) -> None:
    prov = {key: sset.provenance.get(key) for key in _PROVENANCE}
    write_jsonl(path, (
        {
            "id": s.id,
            **prov,
            "prefix_ids": list(s.prefix.ids) if s.prefix else [],
            "continuation_ids": list(s.continuation.ids),
        }
        for s in sset.samples
    ))


def _row_sequence(row: dict, key: str, vocab: Vocab, where: str) -> TokenSequence | None:
    ids = row.get(key)
    if not isinstance(ids, list) or not all(type(i) is int for i in ids):
        raise DataError(f"{where}: {key} must be a list of integer token ids")
    if not ids:
        return None
    try:
        return TokenSequence(tuple(ids), vocab)
    except ConfigError as exc:  # an id outside the vocab
        raise DataError(f"{where}: {exc}") from None


def load_sample_set(path: str | Path, vocab: Vocab) -> SampleSet:
    """Read a sample JSONL whose token ids must index ``vocab``; a repeated sample id is a DataError."""
    first = None
    samples, ids = [], set()
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{where}: bad JSON ({exc})") from None
            if not isinstance(row, dict) or "id" not in row:
                raise DataError(f"{where}: a sample must be a JSON object with an id")
            prefix = _row_sequence(row, "prefix_ids", vocab, where)
            continuation = _row_sequence(row, "continuation_ids", vocab, where)
            if continuation is None:
                raise DataError(f"{where}: empty continuation_ids")
            sid = str(row["id"])
            if sid in ids:
                raise DataError(f"{where}: repeated sample id {sid!r}")
            ids.add(sid)
            first = first or row
            samples.append(Sample(id=sid, prefix=prefix, continuation=continuation))
    if first is None:
        raise DataError(f"{path}: no samples")
    return SampleSet(tuple(samples), {key: first.get(key) for key in _PROVENANCE})


def write_metric_report(
    path: str | Path,
    metric: str,
    value,
    config: dict,
    provenance: dict,
    n_samples: int,
    nulls_excluded: int = 0,
) -> None:
    write_json(path, {
        "metric": metric,
        "value": value,
        "config": config,
        "provenance": provenance,
        "n_samples": n_samples,
        "nulls_excluded": nulls_excluded,
    })
