"""SampleSet persistence and metric report files.

Samples travel as JSONL, one object per line with keys id, model,
strategy, param, seed, prefix_ids, continuation_ids; a loaded set holds
them as flat id arrays (see :class:`genteval.metrics.SampleSet`), whose
ids one check per file holds to the vocab. Metric reports are
small JSON documents carrying the value next to everything needed to
reproduce it.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

from ..corpus import Vocab, row_lists
from ..errors import DataError, open_text, write_json, write_jsonl
from ..metrics import SampleSet

# The provenance keys every sample row repeats.
_PROVENANCE = ("model", "strategy", "param", "seed")


def save_sample_set(path: str | Path, sset: SampleSet) -> None:
    prov = {key: sset.provenance.get(key) for key in _PROVENANCE}
    prefixes = row_lists(sset.prefix_flat.tolist(), sset.prefix_bounds)
    continuations = row_lists(sset.flat.tolist(), sset.bounds)
    write_jsonl(path, (
        {"id": name, **prov, "prefix_ids": prefix, "continuation_ids": continuation}
        for name, prefix, continuation in zip(sset.names, prefixes, continuations)
    ))


def load_sample_set(path: str | Path, vocab: Vocab) -> SampleSet:
    """Read a sample JSONL whose token ids must index ``vocab``; a repeated sample id is a DataError.

    One range check covers the ids of the whole file; only a file that fails
    it is searched for its first bad row, prefix before continuation.
    """
    first = None
    names, prefixes, continuations, lines, seen = [], [], [], [], set()
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
            prefix, continuation = row.get("prefix_ids"), row.get("continuation_ids")
            for key, ids in (("prefix_ids", prefix), ("continuation_ids", continuation)):
                if not isinstance(ids, list) or not set(map(type, ids)) <= {int}:
                    raise DataError(f"{where}: {key} must be a list of integer token ids")
            if not continuation:
                raise DataError(f"{where}: empty continuation_ids")
            sid = str(row["id"])
            if sid in seen:
                raise DataError(f"{where}: repeated sample id {sid!r}")
            seen.add(sid)
            names.append(sid)
            prefixes.append(prefix)
            continuations.append(continuation)
            lines.append(where)
            first = first or row
    if first is None:
        raise DataError(f"{path}: no samples")
    every = list(chain.from_iterable(prefixes + continuations))
    if min(every, default=0) < 0 or max(every, default=0) >= vocab.size:  # then find the first bad row
        for where, ids in ((w, ids) for w, *row in zip(lines, prefixes, continuations) for ids in row):
            lo, hi = min(ids, default=0), max(ids, default=0)
            if lo < 0 or hi >= vocab.size:
                raise DataError(f"{where}: token id {lo if lo < 0 else hi} out of range for vocab of {vocab.size}")
    return SampleSet(names, vocab, continuations, prefixes, {key: first.get(key) for key in _PROVENANCE})


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
