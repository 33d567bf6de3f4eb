"""Binary model container.

Layout: the 5-byte magic ``LMEK1``, a little-endian uint64 header
length, a UTF-8 JSON header, then the payload as raw little-endian
float64 values. The header carries the backend name, hyperparameters,
and the vocab surfaces; the payload carries parameters (ffn) or count
tables (ngram). Counts are stored as float64 records, which is exact
for any count below 2**53.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from ..corpus import Vocab
from ..errors import ConfigError, DataError
from .ffn import FeedForwardLM
from .ngram import NGramLM

MAGIC = b"LMEK1"


def _pack(header: dict, payload: np.ndarray) -> bytes:
    head = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    body = payload.astype("<f8").tobytes()
    return MAGIC + struct.pack("<Q", len(head)) + head + body


def save_model(model, path: str | Path) -> None:
    if isinstance(model, FeedForwardLM):
        names = sorted(model.params)
        header = {
            "backend": "ffn",
            "context": model.context,
            "embed_dim": model.embed_dim,
            "hidden_dim": model.hidden_dim,
            "n_labels": model.n_labels,
            "regression": model.regression,
            "pad_id": model.pad_id,
            "vocab": list(model.vocab.tokens),
            "tensors": [[n, list(model.params[n].shape)] for n in names],
        }
        payload = np.concatenate(
            [model.params[n].reshape(-1) for n in names]
        ) if names else np.empty(0)
    elif isinstance(model, NGramLM):
        header = {
            "backend": "ngram",
            "order": model.order,
            "k_s": model.k_s,
            "vocab": list(model.vocab.tokens),
        }
        flat: list[float] = []
        for o in range(1, model.order + 1):
            table = model.counts[o]
            flat.append(float(len(table)))
            for gram in sorted(table):
                flat.extend(float(i) for i in gram)
                flat.append(float(table[gram]))
        payload = np.array(flat)
    else:
        raise ConfigError(f"cannot serialize model of type {type(model).__name__}")
    Path(path).write_bytes(_pack(header, payload))


def load_model(path: str | Path):
    """Read a model file; a truncated or malformed one raises DataError."""
    blob = Path(path).read_bytes()
    if blob[: len(MAGIC)] != MAGIC:
        raise ConfigError(f"{path}: not a model file (bad magic)")
    head_start = len(MAGIC) + 8
    if len(blob) < head_start:
        raise DataError(f"{path}: truncated model file")
    (head_len,) = struct.unpack_from("<Q", blob, len(MAGIC))
    body_start = head_start + head_len
    if len(blob) < body_start:
        raise DataError(f"{path}: truncated model header")
    try:
        header = json.loads(blob[head_start:body_start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: unreadable model header ({exc})") from None
    if (len(blob) - body_start) % 8:
        raise DataError(f"{path}: truncated model payload")
    payload = np.frombuffer(blob, dtype="<f8", offset=body_start)
    try:
        return _decode(header, payload, path)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed model header ({type(exc).__name__}: {exc})") from None


def _decode(header: dict, payload: np.ndarray, path):
    vocab = Vocab(header["vocab"])
    if header["backend"] == "ffn":
        params = {}
        pos = 0
        for name, shape in header["tensors"]:
            size = int(np.prod(shape)) if shape else 1
            _need(payload, pos + size, path)
            params[name] = payload[pos : pos + size].reshape(shape).copy()
            pos += size
        return FeedForwardLM(
            vocab,
            context=int(header["context"]),
            embed_dim=int(header["embed_dim"]),
            hidden_dim=int(header["hidden_dim"]),
            params=params,
            pad_id=int(header["pad_id"]),
            n_labels=int(header["n_labels"]),
            regression=bool(header["regression"]),
        )
    if header["backend"] == "ngram":
        order = int(header["order"])
        counts: dict[int, dict[tuple[int, ...], int]] = {}
        pos = 0
        for o in range(1, order + 1):
            _need(payload, pos + 1, path)
            n_entries = int(payload[pos])
            pos += 1
            end = pos + n_entries * (o + 1)
            _need(payload, end, path)
            # One record per gram: its o ids, then its count, all stored
            # as integral float64 values that int64 holds exactly.
            records = payload[pos:end].reshape(n_entries, o + 1).astype(np.int64)
            counts[o] = dict(zip(map(tuple, records[:, :o].tolist()), records[:, o].tolist()))
            pos = end
        return NGramLM(vocab, order, float(header["k_s"]), counts)
    raise ConfigError(f"{path}: unknown backend {header['backend']!r}")


def _need(payload: np.ndarray, size: int, path) -> None:
    if payload.size < size:
        raise DataError(f"{path}: model payload holds {payload.size} values, needs {size}")
