"""Deterministic synthetic corpora for the slower directional tests.

The generator writes pseudo-English from a fixed word list with skewed
frequencies. It exists so training-based tests have a corpus with real
statistical structure (common words, sentence rhythm) without shipping
any licensed text. Everything is a pure function of the seed.
"""

from __future__ import annotations

from genteval.corpus import split_corpus, tokenize
from genteval.rng import SplitMix64

# Short common words keep the char-level vocab small (letters, space,
# period) while giving an n-gram-rich phrase structure.
_NOUNS = ("cat", "dog", "bird", "fish", "man", "tree", "sun", "sea", "road", "home")
_VERBS = ("ran", "sat", "saw", "met", "held", "found", "left", "made")
_ADJS = ("old", "small", "dark", "warm", "quiet")
_DET = ("the", "a")
# Extra nouns for the word-level corpus; they push the vocab past 50 so
# top-k grids up to k=50 stay valid.
_RARE = (
    "boat", "hill", "star", "wind", "rain", "snow", "leaf", "stone", "cloud",
    "field", "door", "lamp", "song", "king", "ship", "wolf", "fox", "bee",
    "ant", "owl", "hen", "goat", "mule", "crow", "dove",
)


def _pick(rng: SplitMix64, options):
    # Skew toward early entries: two draws, keep the smaller index.
    i = min(rng.randint(len(options)), rng.randint(len(options)))
    return options[i]


def make_text(n_sentences: int, seed: int = 0) -> str:
    rng = SplitMix64(seed)
    sentences = []
    for _ in range(n_sentences):
        words = [_pick(rng, _DET)]
        if rng.uniform() < 0.4:
            words.append(_pick(rng, _ADJS))
        words.append(_pick(rng, _NOUNS))
        words.append(_pick(rng, _VERBS))
        words.append(_pick(rng, _DET))
        if rng.uniform() < 0.3:
            words.append(_pick(rng, _ADJS))
        words.append(_pick(rng, _NOUNS))
        sentences.append(" ".join(words) + ".")
    return " ".join(sentences)


def make_rich_text(n_sentences: int, seed: int = 0) -> str:
    """Like make_text but the object noun sometimes comes from _RARE."""
    rng = SplitMix64(seed)
    sentences = []
    for _ in range(n_sentences):
        words = [_pick(rng, _DET)]
        if rng.uniform() < 0.4:
            words.append(_pick(rng, _ADJS))
        words.append(_pick(rng, _NOUNS))
        words.append(_pick(rng, _VERBS))
        words.append(_pick(rng, _DET))
        if rng.uniform() < 0.3:
            words.append(_pick(rng, _ADJS))
        if rng.uniform() < 0.35:
            words.append(_RARE[rng.randint(len(_RARE))])  # uniform, not skewed
        else:
            words.append(_pick(rng, _NOUNS))
        sentences.append(" ".join(words) + ".")
    return " ".join(sentences)


def char_splits(n_sentences: int, seq_len: int, seed: int = 0):
    """Char-tokenized splits over the synthetic text."""
    ids, vocab = tokenize(make_text(n_sentences, seed), "char")
    return split_corpus(ids, vocab, seq_len), vocab


def word_splits(n_sentences: int, seq_len: int, seed: int = 0):
    """Word-tokenized splits over the wide-vocabulary text."""
    ids, vocab = tokenize(make_rich_text(n_sentences, seed), "word")
    return split_corpus(ids, vocab, seq_len), vocab
