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
import math
import struct
from pathlib import Path

import numpy as np

from ..corpus import GramTable, Vocab
from ..errors import ConfigError, DataError, atomic_write
from .ffn import FeedForwardLM, param_shapes
from .ngram import NGramLM

MAGIC = b"LMEK1"


def _pack(header: dict, payload: np.ndarray) -> bytes:
    head = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    body = payload.astype("<f8").tobytes()
    return MAGIC + struct.pack("<Q", len(head)) + head + body


def _filed(name: str, arr: np.ndarray) -> np.ndarray:
    """The ffn holds ``w2`` as ``(H, V)`` and model files keep it as
    ``(V, H)``: ``w2`` is transposed, the same way on save and on load,
    and every other tensor passes as it is."""
    return arr.T if name == "w2" else arr


def save_model(model, path: str | Path) -> None:
    if isinstance(model, FeedForwardLM):
        names = sorted(model.params)
        tensors = {n: _filed(n, model.params[n]) for n in names}
        header = {
            "backend": "ffn",
            "context": model.context,
            "embed_dim": model.embed_dim,
            "hidden_dim": model.hidden_dim,
            "n_labels": model.n_labels,
            "regression": model.regression,
            "pad_id": model.pad_id,
            "vocab": list(model.vocab.tokens),
            "tensors": [[n, list(tensors[n].shape)] for n in names],
        }
        payload = np.concatenate(
            [tensors[n].reshape(-1) for n in names]
        ) if names else np.empty(0)
    elif isinstance(model, NGramLM):
        header = {
            "backend": "ngram",
            "order": model.order,
            "k_s": model.k_s,
            "vocab": list(model.vocab.tokens),
        }
        payload = np.concatenate([
            np.concatenate(([len(model.counts[o])], np.column_stack(
                [model.table.grams(o), model.counts[o]]).ravel()))
            for o in range(1, model.order + 1)
        ])
    else:
        raise ConfigError(f"cannot serialize model of type {type(model).__name__}")
    with atomic_write(path, "wb") as f:
        f.write(_pack(header, payload))


def load_model(path: str | Path):
    """Read a model file; a truncated, malformed or foreign one raises DataError."""
    blob = Path(path).read_bytes()
    if blob[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: not a model file (bad magic)")
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
    if not np.isfinite(payload).all():
        raise DataError(f"{path}: model payload holds a non-finite value")
    try:
        return _decode(header, payload, path)
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed model header ({type(exc).__name__}: {exc})") from None


def _decode(header: dict, payload: np.ndarray, path):
    vocab = Vocab(header["vocab"])
    if header["backend"] == "ffn":
        hyper = {k: int(header[k]) for k in ("context", "embed_dim", "hidden_dim", "n_labels")}
        regression = bool(header["regression"])
        # broadcast_to gives each held shape's filed shape without allocating.
        shapes = {
            n: _filed(n, np.broadcast_to(0.0, s)).shape
            for n, s in param_shapes(vocab.size, regression=regression, **hyper).items()
        }
        names = sorted(shapes)
        if header["tensors"] != [[n, list(shapes[n])] for n in names]:
            raise DataError(f"{path}: tensor shapes do not fit the model header")
        pad_id = int(header["pad_id"])
        if not 0 <= pad_id < vocab.size:
            raise DataError(f"{path}: pad id {pad_id} outside the vocab")
        params = {}
        pos = 0
        for name in names:
            size = math.prod(shapes[name])
            _need(payload, pos + size, path)
            params[name] = _filed(name, payload[pos : pos + size].reshape(shapes[name])).copy()
            pos += size
        model = FeedForwardLM(
            vocab, params=params, pad_id=pad_id, regression=regression, **hyper
        )
    elif header["backend"] == "ngram":
        order = int(header["order"])
        grams, counts = {}, {}
        pos = 0
        for o in range(1, order + 1):
            _need(payload, pos + 1, path)
            n_entries = int(payload[pos])
            if n_entries < 0 or n_entries != payload[pos]:
                raise DataError(f"{path}: bad order-{o} n-gram count {payload[pos]!r}")
            pos += 1
            end = pos + n_entries * (o + 1)
            _need(payload, end, path)
            # One record per gram: its o ids, then its count, all stored
            # as integral float64 values that int64 holds exactly.
            records = payload[pos:end].reshape(n_entries, o + 1)
            grams[o], counts[o] = records[:, :o], records[:, o]
            if not (
                (records == np.floor(records)).all()
                and ((grams[o] >= 0) & (grams[o] < vocab.size)).all()
                and ((counts[o] >= 1) & (counts[o] <= 2**53)).all()
                and counts[o].sum() <= 2**53
            ):
                raise DataError(f"{path}: an order-{o} n-gram record is not ids and a count")
            pos = end
        try:
            table = GramTable.of_grams([grams[o].astype(np.int64) for o in range(1, order + 1)])
            model = NGramLM(vocab, order, float(header["k_s"]), table, counts)
        except DataError as exc:
            raise type(exc)(f"{path}: {exc}") from None
    else:
        raise DataError(f"{path}: unknown backend {header['backend']!r}")
    if pos != payload.size:
        raise DataError(f"{path}: model payload holds {payload.size} values, uses {pos}")
    return model


def _need(payload: np.ndarray, size: int, path) -> None:
    if payload.size < size:
        raise DataError(f"{path}: model payload holds {payload.size} values, needs {size}")
