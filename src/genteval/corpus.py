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
class TokenSequence:
    """Non-empty run of token ids indexing a specific Vocab."""

    ids: tuple[int, ...]
    vocab: Vocab

    def __post_init__(self) -> None:
        if not self.ids:
            raise EmptyInput("token sequence must contain at least one id")
        lo, hi, limit = min(self.ids), max(self.ids), self.vocab.size
        if lo < 0 or hi >= limit:
            raise ConfigError(f"token id {lo if lo < 0 else hi} out of range for vocab of {limit}")

    @classmethod
    def trusted(cls, ids: tuple[int, ...], vocab: Vocab) -> "TokenSequence":
        """A sequence of non-empty ids the caller has already range-checked."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "ids", ids)
        object.__setattr__(seq, "vocab", vocab)
        return seq

    def __len__(self) -> int:
        return len(self.ids)

    def window(self, start: int, stop: int) -> "TokenSequence":
        return TokenSequence(self.ids[start:stop], self.vocab)

    def surfaces(self) -> list[str]:
        return [self.vocab.tokens[i] for i in self.ids]


@dataclass(frozen=True)
class CorpusSplits:
    """Disjoint train/dev/test chunk lists, all chunks of equal length."""

    train: tuple[TokenSequence, ...]
    dev: tuple[TokenSequence, ...]
    test: tuple[TokenSequence, ...]
    seq_len: int
    ratios: tuple[float, float, float]

    @property
    def counts(self) -> tuple[int, int, int]:
        return (len(self.train), len(self.dev), len(self.test))


@dataclass(frozen=True)
class SentencePair:
    """``second`` read after ``first``; an item's (positive, negative) order is its label."""

    first: TokenSequence
    second: TokenSequence


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _word_surfaces(text: str) -> list[str]:
    out: list[str] = []
    for chunk in text.split():
        # Alphanumeric characters are all in L* or N*, so such a chunk
        # has no punctuation to split on.
        if chunk.isalnum():
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


def tokenize(text: str, scheme: str = "word") -> tuple[TokenSequence, Vocab]:
    """Tokenize text, assigning fresh ids in first-occurrence order."""
    surfaces = surface_tokens(text, scheme)
    if not surfaces:
        raise EmptyInput("no tokens after normalization")
    index: dict[str, int] = {}
    ids = []
    for s in surfaces:
        if s not in index:
            index[s] = len(index)
        ids.append(index[s])
    vocab = Vocab(index)
    return TokenSequence(tuple(ids), vocab), vocab


def encode(text: str, vocab: Vocab, scheme: str = "word", on_oov: str = "error") -> TokenSequence:
    """Tokenize text against a fixed vocab.

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
    return TokenSequence(tuple(ids), vocab)


def split_corpus(
    seq: TokenSequence,
    seq_len: int,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
) -> CorpusSplits:
    """Chunk into consecutive ``seq_len`` windows and split by ratio.

    The trailing remainder shorter than ``seq_len`` is dropped. With N
    chunks, train takes the first floor(N*r1), dev the next floor(N*r2),
    and test everything left, so the three parts partition the chunks.
    """
    if seq_len < 2:
        raise ConfigError("seq_len must be at least 2")
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ConfigError("need three non-negative ratios")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError("ratios must sum to 1")
    n_chunks = len(seq) // seq_len
    if n_chunks < 3:
        raise CorpusTooSmall(f"corpus yields {n_chunks} chunks, need at least 3")
    chunks = tuple(
        seq.window(i * seq_len, (i + 1) * seq_len) for i in range(n_chunks)
    )
    n_train = int(n_chunks * ratios[0])
    n_dev = int(n_chunks * ratios[1])
    return CorpusSplits(
        train=chunks[:n_train],
        dev=chunks[n_train : n_train + n_dev],
        test=chunks[n_train + n_dev :],
        seq_len=seq_len,
        ratios=tuple(ratios),
    )


def flat_ids(seqs: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(flat, owner, room)``: the ids of ``seqs`` end to end, the sequence
    each position of ``flat`` belongs to, and how many ids its sequence
    holds from that position on."""
    lens = np.array([len(s) for s in seqs], dtype=np.int64)
    flat = np.fromiter(chain.from_iterable(seqs), dtype=np.int64, count=int(lens.sum()))
    owner = np.repeat(np.arange(len(lens)), lens)
    return flat, owner, np.repeat(np.cumsum(lens), lens) - np.arange(len(flat))


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


def ngram_windows(
    seqs: Sequence[Sequence[int]], max_n: int
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], GramTable]:
    """Every n-gram window of ``seqs`` for orders 1..max_n, as a dense gram id.

    Returns ``(flat, owner, ids, table)``: the ids of ``seqs`` end to end,
    the sequence each position of ``flat`` belongs to, one array per order
    whose ``ids[o - 1][i]`` is the row in the :class:`GramTable` ``table``
    of the o-gram starting at position i, or -1 where that window would run
    past its sequence. Windows never span sequences. Equal grams share an
    id, ids ascend with the grams, and one ``np.unique`` per order ranks
    the table's keys.
    """
    if max_n < 1:
        raise BadOrder("n-gram order must be at least 1")
    flat, owner, room = flat_ids(seqs)
    table = GramTable(int(flat.max(initial=-1)) + 2, [])
    ids, prev = [], np.zeros(len(flat), dtype=np.int64)
    for o in range(1, min(max_n, int(room.max(initial=0))) + 1):  # no order past the longest sequence
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
    sentences: Sequence[TokenSequence],
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
    starts = list(range(n_adjacent))
    rng.shuffle(starts)
    starts = sorted(starts[:count])
    items = []
    for i in starts:
        pos = SentencePair(sentences[i], sentences[i + 1])
        if mode == "sop":
            neg = SentencePair(sentences[i + 1], sentences[i])
        else:
            successor = sentences[i + 1].ids
            candidates = [s for s in sentences if s.ids != successor]
            if not candidates:
                raise InsufficientData("every sentence equals the true successor")
            neg = SentencePair(sentences[i], candidates[rng.randint(len(candidates))])
        items.append((pos, neg))
    return items


def tfidf_scores(seq: TokenSequence, doc_len: int) -> list[float]:
    """Per-position TF-IDF regression targets over consecutive ``doc_len`` documents.

    Position p belongs to document p // doc_len and scores its token there:
    tf is the within-document relative frequency, idf is ln(n_docs / df)
    with df the number of documents containing the token, so a token that
    appears in every document scores exactly 0. Positions past the last
    full document are dropped.
    """
    if doc_len < 1:
        raise ConfigError("doc_len must be positive")
    n_docs = len(seq) // doc_len
    if n_docs < 1:
        raise CorpusTooSmall("corpus shorter than one document")
    doc_counts = [
        Counter(seq.ids[d * doc_len : (d + 1) * doc_len]) for d in range(n_docs)
    ]
    df = Counter()
    for counts in doc_counts:
        df.update(counts.keys())
    idf = {tok: math.log(n_docs / d) for tok, d in df.items()}
    scores = [
        {tok: (c / doc_len) * idf[tok] for tok, c in counts.items()}
        for counts in doc_counts
    ]
    return [scores[p // doc_len][tok] for p, tok in enumerate(seq.ids[: n_docs * doc_len])]


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

IDS_HEADER = "#vocab_size="


def write_ids_file(path: str | Path, sequences: Iterable[Sequence[int]], vocab_size: int) -> None:
    """One sequence per line of space-separated ids, after a vocab header."""
    with atomic_write(path, encoding="utf-8") as f:
        f.write(f"{IDS_HEADER}{vocab_size}\n")
        for ids in sequences:
            f.write(" ".join(str(i) for i in ids))
            f.write("\n")


def _parse_plain_ids(body: str, vocab_size: int) -> list[list[int]] | None:
    """The non-empty lines of ``body`` as id lists, parsed in one numpy pass.

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
    bounds = [0, *np.searchsorted(starts, np.flatnonzero(raw == ord("\n"))).tolist(), len(ids)]
    flat = ids.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def read_ids_file(path: str | Path) -> tuple[list[list[int]], int]:
    """Read an ids file; a bad header or id raises DataError naming ``path:line``."""
    with open_text(path) as f:
        header = f.readline().strip()
        if not header.startswith(IDS_HEADER):
            raise EmptyInput(f"{path}: missing {IDS_HEADER}N header")
        try:
            vocab_size = int(header[len(IDS_HEADER) :])
        except ValueError:
            raise DataError(f"{path}:1: bad vocab size in {header!r}") from None
        body = f.read()
    sequences = _parse_plain_ids(body, vocab_size)
    if sequences is not None:
        return sequences, vocab_size
    sequences = []
    for lineno, line in enumerate(body.split("\n"), start=2):
        try:
            ids = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if not ids:
            continue
        if min(ids) < 0 or max(ids) >= vocab_size:
            raise DataError(f"{path}:{lineno}: token id outside the vocab of {vocab_size}")
        sequences.append(ids)
    return sequences, vocab_size


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
    vocab_size = vocab_from_manifest({"tokenizer": tokenizer}).size
    for name, fname in _SPLIT_FILES.items():
        part = getattr(splits, name)
        write_ids_file(out / fname, (s.ids for s in part), vocab_size)
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


class SavedSplits:
    """The splits of a saved manifest and the vocab their ids files are checked against.

    Each split's ids file is read and checked when code first reads that
    split, so a command opens only the files it uses.
    """

    def __init__(self, directory: Path, vocab: Vocab, seq_len: int, ratios: tuple) -> None:
        self.directory, self.vocab, self.seq_len, self.ratios = directory, vocab, seq_len, ratios

    def _read(self, name: str) -> tuple[TokenSequence, ...]:
        path = self.directory / _SPLIT_FILES[name]
        sequences, vocab_size = read_ids_file(path)
        if vocab_size != self.vocab.size:
            raise DataError(f"{path}:1: vocab size {vocab_size} != manifest {self.vocab.size}")
        # read_ids_file has range-checked every line against this vocab size.
        return tuple(TokenSequence.trusted(tuple(ids), self.vocab) for ids in sequences)

    train = cached_property(lambda self: self._read("train"))
    dev = cached_property(lambda self: self._read("dev"))
    test = cached_property(lambda self: self._read("test"))
    counts = CorpusSplits.counts


def load_splits(manifest_path: str | Path) -> tuple[SavedSplits, dict]:
    """Read and check a manifest and its vocab; a malformed one raises DataError.

    The ids files are read on first use (see :class:`SavedSplits`).
    """
    manifest_path = Path(manifest_path)
    try:
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
        vocab = vocab_from_manifest(manifest)
        seq_len, ratios = int(manifest["seq_len"]), tuple(manifest["ratios"])
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{manifest_path}: bad manifest ({type(exc).__name__}: {exc})") from None
    return SavedSplits(manifest_path.parent, vocab, seq_len, ratios), manifest
