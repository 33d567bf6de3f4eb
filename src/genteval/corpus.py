"""Corpus ingestion: tokenization, chunking, splits, sentence pairing, TF-IDF.

All downstream components consume token ids, never raw text. The two
built-in schemes are deliberately simple and reversible enough for
desk-scale experiments:

* ``word``: split on Unicode whitespace, with punctuation characters
  (Unicode category P*) detached as single-character tokens, so
  ``"Hi, there"`` becomes ``["Hi", ",", "there"]``.
* ``char``: one token per Unicode scalar, whitespace included, which
  makes detokenization an exact inverse.

Text is NFC-normalized before tokenization; no other normalization is
applied (no lowercasing, no unicode folding).

Ids travel as int64 arrays: :func:`tokenize` and :func:`encode` return
one, and each split of :class:`CorpusSplits` is a read-only ``(n,
seq_len)`` matrix, one row per line of its ids file. A token-id sequence
is such an array or matrix row everywhere below the CLI.
"""

from __future__ import annotations

import json
import math
import unicodedata
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadOrder,
    ConfigError,
    CorpusTooSmall,
    DataError,
    EmptyInput,
    InsufficientData,
    atomic_write,
    open_text,
    write_json,
)
from .rng import SplitMix64

SCHEMES = ("word", "char")


class Vocab:
    """Immutable token-id table; ids are assigned in first-occurrence order."""

    __slots__ = ("tokens", "_index")

    def __init__(self, tokens: Iterable[str]) -> None:
        self.tokens = tuple(tokens)
        self._index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self._index) != len(self.tokens):
            raise ConfigError("vocab contains duplicate surfaces")

    @classmethod
    def placeholder(cls, size: int) -> "Vocab":
        """Vocab with synthetic surfaces, for externally tokenized ids."""
        return cls(f"<{i}>" for i in range(size))

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self._index[token]

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __len__(self) -> int:
        return len(self.tokens)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocab) and self.tokens == other.tokens

    def __hash__(self) -> int:
        return hash(self.tokens)

    def __repr__(self) -> str:
        return f"Vocab(size={self.size})"


@dataclass(frozen=True)
class SentencePair:
    """``second`` read after ``first``, both id arrays; an item's (positive, negative) order is its label."""

    first: np.ndarray
    second: np.ndarray


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _word_surfaces(text: str) -> list[str]:
    out: list[str] = []
    for chunk in text.split():
        # Alphanumeric characters are all in L* or N*, so such a chunk
        # has no punctuation to split on; a one-character chunk is one token.
        if chunk.isalnum() or len(chunk) == 1:
            out.append(chunk)
            continue
        run = []
        for ch in chunk:
            if _is_punct(ch):
                if run:
                    out.append("".join(run))
                    run = []
                out.append(ch)
            else:
                run.append(ch)
        if run:
            out.append("".join(run))
    return out


def surface_tokens(text: str, scheme: str) -> list[str]:
    """Tokenize to surfaces without building a vocab. NFC-normalizes first."""
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown tokenizer scheme {scheme!r}")
    text = unicodedata.normalize("NFC", text)
    if scheme == "word":
        return _word_surfaces(text)
    return list(text)


def tokenize(text: str, scheme: str = "word") -> tuple[np.ndarray, Vocab]:
    """Tokenize text to one int64 id array, assigning fresh ids in first-occurrence order."""
    surfaces = surface_tokens(text, scheme)
    if not surfaces:
        raise EmptyInput("no tokens after normalization")
    vocab = Vocab(dict.fromkeys(surfaces))
    return np.fromiter(map(vocab._index.__getitem__, surfaces), dtype=np.int64, count=len(surfaces)), vocab


def encode(text: str, vocab: Vocab, scheme: str = "word", on_oov: str = "error") -> np.ndarray:
    """Tokenize text against a fixed vocab, to a non-empty int64 id array.

    ``on_oov`` is "error" to raise on unknown surfaces or "skip" to drop
    them (the CLI uses "skip" so held-out evaluation text with a few
    unseen words still scores).
    """
    surfaces = surface_tokens(text, scheme)
    ids = []
    for s in surfaces:
        if s in vocab:
            ids.append(vocab.id_of(s))
        elif on_oov == "error":
            raise EmptyInput(f"surface {s!r} not in vocab")
    if not ids:
        raise EmptyInput("no in-vocab tokens")
    return np.array(ids, dtype=np.int64)


class CorpusSplits:
    """Train/dev/test chunks over one vocab, each split a read-only ``(n, seq_len)`` int64 matrix.

    Splits made in memory hold their matrices, checked against the vocab;
    a split not given is empty. Those of a saved manifest (``directory``
    set, see :func:`load_splits`) read and check a split's ids file when
    code first reads that split, so a command opens only the files it uses.
    """

    def __init__(self, vocab: Vocab, seq_len: int, ratios, directory: Path | None = None, **splits) -> None:
        self.vocab, self.seq_len, self.ratios, self.directory = vocab, seq_len, tuple(ratios), directory
        for name in _SPLIT_FILES if directory is None else ():
            ids = np.asarray(splits.get(name, ()), dtype=np.int64).reshape(-1, seq_len)
            if ids.size and (ids.min() < 0 or ids.max() >= vocab.size):
                raise ConfigError(f"{name} split has a token id out of range for vocab of {vocab.size}")
            ids.setflags(write=False)
            vars(self)[name] = ids

    def _read(self, name: str) -> np.ndarray:
        path = self.directory / _SPLIT_FILES[name]
        flat, bounds, vocab_size = read_ids_file(path)
        if vocab_size != self.vocab.size:
            raise DataError(f"{path}:1: vocab size {vocab_size} != manifest {self.vocab.size}")
        lengths = np.diff(bounds)
        bad = np.flatnonzero((lengths != 0) & (lengths != self.seq_len))  # blank lines hold no chunk
        if bad.size:
            raise DataError(f"{path}:{bad[0] + 2}: {lengths[bad[0]]} ids, not seq_len {self.seq_len}")
        flat.setflags(write=False)
        return flat.reshape(-1, self.seq_len)

    train = cached_property(lambda self: self._read("train"))
    dev = cached_property(lambda self: self._read("dev"))
    test = cached_property(lambda self: self._read("test"))

    @property
    def counts(self) -> tuple[int, int, int]:
        return (len(self.train), len(self.dev), len(self.test))


def split_corpus(
    ids: np.ndarray,
    vocab: Vocab,
    seq_len: int,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
) -> CorpusSplits:
    """Chunk ``ids`` into consecutive ``seq_len`` windows and split by ratio.

    The trailing remainder shorter than ``seq_len`` is dropped. With N
    chunks, train takes the first floor(N*r1), dev the next floor(N*r2),
    and test everything left, so the three parts partition the chunks.
    Each split is a view of ``ids`` reshaped to ``(n, seq_len)``.
    """
    if seq_len < 2:
        raise ConfigError("seq_len must be at least 2")
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ConfigError("need three non-negative ratios")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError("ratios must sum to 1")
    ids = np.asarray(ids, dtype=np.int64)
    n_chunks = len(ids) // seq_len
    if n_chunks < 3:
        raise CorpusTooSmall(f"corpus yields {n_chunks} chunks, need at least 3")
    chunks = ids[: n_chunks * seq_len].reshape(n_chunks, seq_len)
    n_train = int(n_chunks * ratios[0])
    n_dev = int(n_chunks * ratios[1])
    return CorpusSplits(
        vocab, seq_len, ratios,
        train=chunks[:n_train], dev=chunks[n_train : n_train + n_dev], test=chunks[n_train + n_dev :],
    )


def flat_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """``(flat, bounds)``: the int64 ids of ``rows`` (a matrix, or id arrays,
    matrix rows, lists or tuples) end to end, row i being ``flat[bounds[i]:bounds[i + 1]]``.
    Arrays join in one copy; Python ints stream into the result, which is faster than
    converting each list."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        return rows.reshape(-1), np.arange(len(rows) + 1) * rows.shape[1]
    rows = list(rows)
    bounds = np.cumsum([0, *map(len, rows)])
    if rows and all(isinstance(r, np.ndarray) for r in rows):
        return np.concatenate(rows).astype(np.int64, copy=False), bounds
    return np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(bounds[-1])), bounds


def row_lists(flat, bounds: np.ndarray) -> list:
    """The rows of a flat list or array (as views), row i being ``flat[bounds[i]:bounds[i + 1]]``."""
    bounds = bounds.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def positions(lengths) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, room)`` of sequences of ``lengths`` laid end to end: the
    sequence each position belongs to, and how many ids its sequence holds
    from that position on."""
    lengths = np.asarray(lengths, dtype=np.int64)
    owner = np.repeat(np.arange(len(lengths)), lengths)
    return owner, np.repeat(np.cumsum(lengths), lengths) - np.arange(len(owner))


class GramTable:
    """The distinct n-grams of some id lists: per order, sorted int64 keys.

    A gram's key is its prefix's row among the grams one order below (0 at
    order 1) times ``base``, plus its last id: keys ascend with the grams,
    and each prefix's continuations are one block of rows. ``keys[o - 1]``
    holds order o's keys, then ``END``. ``base`` is 2 above every id held:
    :meth:`clip` reads every other id as base - 1, or as -1 if negative,
    and neither of those ids, nor row -1, is part of any gram's key.
    """

    END = np.iinfo(np.int64).max  # above every key

    def __init__(self, base: int, keys: list[np.ndarray]) -> None:
        self.base, self.keys = base, keys

    @classmethod
    def of_grams(cls, grams: Sequence[np.ndarray]) -> GramTable:
        """The table of ``grams[o - 1]``, order o's ``(n, o)`` int64 grams; DataError
        unless each order strictly increases and each prefix is a gram of the order below."""
        table = cls(2 + max((int(g.max()) for g in grams if g.size), default=0), [])
        for o, g in enumerate(grams, 1):
            rows = np.zeros(len(g), dtype=np.int64)
            for j in range(o - 1):
                rows = table.find(j + 1, rows, g[:, j])
            if (rows < 0).any():
                raise DataError(f"an order-{o} n-gram's context is not an order-{o - 1} n-gram")
            keys = rows * table.base + g[:, -1]
            if (keys[1:] <= keys[:-1]).any():
                raise DataError(f"order-{o} n-grams are not strictly increasing")
            table.keys.append(np.append(keys, cls.END))
        return table

    def clip(self, ids: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``ids`` as :meth:`find` takes them; one clip serves a whole walk."""
        return np.minimum(np.maximum(ids, -1, out=out), self.base - 1, out=out)  # np.clip, without its overhead

    def find(self, o: int, rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Row among order ``o``'s grams of gram ``rows`` (order o - 1, or -1) + clipped ``ids``, else -1."""
        keys, want = self.keys[o - 1], rows * self.base + ids
        at = np.searchsorted(keys, want)
        return np.where(keys[at] == want, at, -1)

    def grams(self, o: int) -> np.ndarray:
        """``(n, o)``: order ``o``'s grams, spelled back from their keys."""
        prefix, last = np.divmod(self.keys[o - 1][:-1], self.base)
        return np.column_stack((self.grams(o - 1)[prefix], last)) if o > 1 else last[:, None]


def ngram_windows(flat, lengths, max_n: int) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], GramTable]:
    """Every n-gram window for orders 1..max_n of the sequences of ``lengths``
    non-negative ids each, end to end in ``flat``, as a dense gram id.

    Returns ``(flat, owner, ids, table)``: the ids as int64, the sequence
    each position of ``flat`` belongs to, one array per order whose
    ``ids[o - 1][i]`` is the row in the :class:`GramTable` ``table`` of the
    o-gram starting at position i, or -1 where that window would run past
    its sequence. Windows never span sequences. Equal grams share an id and
    ids ascend with the grams: a bincount over the ids ranks order 1, one
    ``np.unique`` the keys of each higher order.
    """
    if max_n < 1:
        raise BadOrder("n-gram order must be at least 1")
    flat = np.asarray(flat, dtype=np.int64)
    owner, room = positions(lengths)
    if len(owner) != len(flat):
        raise ConfigError(f"sequence lengths sum to {len(owner)}, not the {len(flat)} ids given")
    if flat.min(initial=0) < 0:
        raise ConfigError("token ids must be non-negative")
    table = GramTable(int(flat.max(initial=-1)) + 2, [])
    ids, prev = [], np.zeros(len(flat), dtype=np.int64)
    for o in range(1, min(max_n, int(room.max(initial=0))) + 1):  # no order past the longest sequence
        if o == 1:  # every position starts a 1-gram; the rank of id t is the number of distinct ids below t
            seen = np.bincount(flat) > 0
            keys, prev = np.flatnonzero(seen), (np.cumsum(seen) - 1)[flat]
        else:
            at = np.flatnonzero(room >= o)
            keys = prev[at] * table.base + flat[at + o - 1]
            prev = np.full(len(flat), -1, dtype=np.int64)
            keys, prev[at] = np.unique(keys, return_inverse=True)
        table.keys.append(np.append(keys, table.END))
        ids.append(prev)
    # Orders past the longest sequence have no windows, so one array of each kind serves them all.
    table.keys += [np.array([table.END])] * (max_n - len(ids))
    return flat, owner, ids + [np.full(len(flat), -1, dtype=np.int64)] * (max_n - len(ids)), table


_TERMINALS = ".!?"


def segment_sentences(text: str) -> list[str]:
    """Split after ./!/? followed by whitespace and an uppercase letter.

    End of text also terminates a sentence. This is a deliberately plain
    rule: abbreviations like "Mr. Smith" will over-split, and lowercase
    continuations ("hello! again") never split.
    """
    text = unicodedata.normalize("NFC", text)
    sentences = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        if text[i] in _TERMINALS:
            j = i + 1
            while j < n and text[j].isspace():
                j += 1
            if j == n or (j > i + 1 and text[j].isupper()):
                piece = text[start:i + 1].strip()
                if piece:
                    sentences.append(piece)
                start = j
                i = j
                continue
        i += 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def build_pair_datasets(
    sentences: Sequence[np.ndarray],
    mode: str,
    count: int,
    seed: int,
) -> list[tuple[SentencePair, SentencePair]]:
    """Build (positive, negative) sentence-pair items for ranking losses.

    Positives are adjacent sentences in corpus order. Negatives depend on
    the mode: "nsp" swaps in a randomly drawn second sentence that is
    never the true successor (by content); "sop" swaps the order of the
    positive pair. Selection of which adjacent pairs to use and negative
    draws are deterministic under ``seed``.
    """
    if mode not in ("nsp", "sop"):
        raise ConfigError(f"unknown pair mode {mode!r}")
    if count < 1:
        raise ConfigError("count must be positive")
    n_adjacent = len(sentences) - 1
    if count > n_adjacent:
        raise InsufficientData(
            f"asked for {count} pairs but only {n_adjacent} adjacent pairs exist"
        )
    rng = SplitMix64(seed)
    contents = [tuple(s.tolist()) for s in sentences]
    starts = list(range(n_adjacent))
    rng.shuffle(starts)
    starts = sorted(starts[:count])
    items = []
    for i in starts:
        pos = SentencePair(sentences[i], sentences[i + 1])
        if mode == "sop":
            neg = SentencePair(sentences[i + 1], sentences[i])
        else:
            candidates = [s for s, c in zip(sentences, contents) if c != contents[i + 1]]
            if not candidates:
                raise InsufficientData("every sentence equals the true successor")
            neg = SentencePair(sentences[i], candidates[rng.randint(len(candidates))])
        items.append((pos, neg))
    return items


def tfidf_scores(ids: Sequence[int], doc_len: int) -> list[float]:
    """Per-position TF-IDF regression targets of ``ids`` over consecutive ``doc_len`` documents.

    Position p belongs to document p // doc_len and scores its token there:
    tf is the within-document relative frequency, idf is ln(n_docs / df)
    with df the number of documents containing the token, so a token that
    appears in every document scores exactly 0. Positions past the last
    full document are dropped.
    """
    if doc_len < 1:
        raise ConfigError("doc_len must be positive")
    ids = np.asarray(ids, dtype=np.int64).tolist()
    n_docs = len(ids) // doc_len
    if n_docs < 1:
        raise CorpusTooSmall("corpus shorter than one document")
    doc_counts = [Counter(ids[d * doc_len : (d + 1) * doc_len]) for d in range(n_docs)]
    df = Counter()
    for counts in doc_counts:
        df.update(counts.keys())
    idf = {tok: math.log(n_docs / d) for tok, d in df.items()}
    scores = [
        {tok: (c / doc_len) * idf[tok] for tok, c in counts.items()}
        for counts in doc_counts
    ]
    return [scores[p // doc_len][tok] for p, tok in enumerate(ids[: n_docs * doc_len])]


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

IDS_HEADER = "#vocab_size="


def write_ids_file(path: str | Path, rows, vocab_size: int) -> None:
    """One row of ``rows`` (an id matrix or id sequences) per line, space-separated,
    after a vocab header; each id is its entry in one table of decimal texts."""
    flat, bounds = flat_rows(rows)
    if flat.min(initial=0) < 0:
        raise ConfigError("token ids must be non-negative")
    texts = np.array([str(i) for i in range(int(flat.max(initial=-1)) + 1)], dtype=object)[flat].tolist()
    with atomic_write(path, encoding="utf-8") as f:
        f.write(f"{IDS_HEADER}{vocab_size}\n")
        for row in row_lists(texts, bounds):
            f.write(" ".join(row))
            f.write("\n")


def _parse_plain_ids(body: str, vocab_size: int) -> tuple[np.ndarray, np.ndarray] | None:
    """``(flat, bounds)`` of ``body`` (see :func:`read_ids_file`), parsed in one numpy pass.

    Handles the files ``write_ids_file`` writes: ASCII digits, spaces and
    newlines only, ids of at most 18 digits, all below ``vocab_size``.
    Returns None for anything else, which the line-by-line reader then
    parses or rejects with the bad line's number.
    """
    # Spaces around the body let every id start after and end before a
    # non-digit, and keep the digit reads below in bounds.
    raw = np.frombuffer(f" {body}{' ' * 19}".encode("utf-8"), dtype=np.uint8)
    digit = (raw >= ord("0")) & (raw <= ord("9"))
    if not np.all(digit | (raw == ord(" ")) | (raw == ord("\n"))):
        return None
    starts = np.flatnonzero(digit[1:] > digit[:-1]) + 1
    lengths = np.flatnonzero(digit[:-1] > digit[1:]) + 1 - starts
    if lengths.size and lengths.max() > 18:  # could overflow int64
        return None
    ids = np.zeros(len(starts), dtype=np.int64)
    for j in range(int(lengths.max(initial=0))):
        ids = np.where(lengths > j, ids * 10 + (raw[starts + j] - ord("0")), ids)
    if ids.size and ids.max() >= vocab_size:
        return None
    return ids, np.concatenate(([0], np.searchsorted(starts, np.flatnonzero(raw == ord("\n"))), [len(ids)]))


def read_ids_file(path: str | Path) -> tuple[np.ndarray, np.ndarray, int]:
    """Read an ids file as ``(flat, bounds, vocab_size)``: line k + 2 (after the
    header) holds ids ``flat[bounds[k]:bounds[k + 1]]``, none for a blank line.
    A bad header or id raises DataError naming ``path:line``."""
    with open_text(path) as f:
        header = f.readline().strip()
        if not header.startswith(IDS_HEADER):
            raise EmptyInput(f"{path}: missing {IDS_HEADER}N header")
        try:
            vocab_size = int(header[len(IDS_HEADER) :])
            if not 0 <= vocab_size < 2**63:  # every id below it fits an int64
                raise ValueError
        except ValueError:
            raise DataError(f"{path}:1: bad vocab size in {header!r}") from None
        body = f.read()
    parsed = _parse_plain_ids(body, vocab_size)
    if parsed is not None:
        return (*parsed, vocab_size)
    rows = []
    for lineno, line in enumerate(body.split("\n"), start=2):
        try:
            ids = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if ids and (min(ids) < 0 or max(ids) >= vocab_size):
            raise DataError(f"{path}:{lineno}: token id outside the vocab of {vocab_size}")
        rows.append(ids)
    return (*flat_rows(rows), vocab_size)


_SPLIT_FILES = {"train": "train.ids.txt", "dev": "dev.ids.txt", "test": "test.ids.txt"}


def save_splits(
    out_dir: str | Path,
    splits: CorpusSplits,
    tokenizer: dict,
    seed: int,
) -> Path:
    """Persist splits as three ids files plus a JSON manifest.

    ``tokenizer`` records how ids map back to text: for built-in schemes
    ``{"scheme": ..., "vocab": [...]}``, for pre-tokenized input
    ``{"scheme": "external", "vocab_size": N}``.
    """
    out = Path(out_dir)
    for name, fname in _SPLIT_FILES.items():
        write_ids_file(out / fname, getattr(splits, name), splits.vocab.size)
    manifest = {
        "seq_len": splits.seq_len,
        "ratios": list(splits.ratios),
        "counts": list(splits.counts),
        "tokenizer": tokenizer,
        "seed": seed,
    }
    manifest_path = out / "manifest.json"
    write_json(manifest_path, manifest)
    return manifest_path


def vocab_from_manifest(manifest: dict) -> Vocab:
    tok = manifest["tokenizer"]
    if "vocab" in tok:
        return Vocab(tok["vocab"])
    return Vocab.placeholder(int(tok["vocab_size"]))


def load_splits(manifest_path: str | Path) -> tuple[CorpusSplits, dict]:
    """Read and check a manifest and its vocab; a malformed one raises DataError.

    The ids files are read on first use (see :class:`CorpusSplits`).
    """
    manifest_path = Path(manifest_path)
    try:
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
        vocab = vocab_from_manifest(manifest)
        seq_len, ratios = int(manifest["seq_len"]), tuple(manifest["ratios"])
        if seq_len < 1:
            raise ValueError(f"seq_len {seq_len} is not positive")
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{manifest_path}: bad manifest ({type(exc).__name__}: {exc})") from None
    return CorpusSplits(vocab, seq_len, ratios, manifest_path.parent), manifest
