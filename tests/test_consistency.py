"""Consistency loaders and perplexity-based option selection."""

import json
import math
import re

import pytest

from genteval.consistency import (
    Choice,
    load_stories,
    load_triples,
    save_selection_result,
    selection_accuracy,
)
from genteval.errors import DataError, EmptyDataset, EmptyInput

from oracles import StackedScores


# encode must produce integer ids; assign them per word on first sight
_IDS: dict[str, int] = {}


def encode_words(text):
    out = []
    for w in text.split():
        out.append(_IDS.setdefault(w, len(_IDS)))
    return tuple(out)


class WordScorer(StackedScores):
    """Per-word log-prob table keyed by surface; unseen words get the floor."""

    def __init__(self, table, floor=-5.0):
        self.table = {encode_words(w)[0]: lp for w, lp in table.items()}
        self.floor = floor

    def score(self, seq, context=()):
        return sum(self.table.get(i, self.floor) for i in seq)


# ---------------------------------------------------------------------------
# Loaders
# ---------------------------------------------------------------------------


def test_load_triples_valid_and_comments(tmp_path):
    path = tmp_path / "nli.tsv"
    path.write_text(
        "# header comment\n"
        "The dog barks.\tIt is loud.\tIt is silent.\n"
        "\n"
        "Sun rose!\tMorning came.\tNight fell.\n",
        encoding="utf-8",
    )
    result = load_triples(path)
    assert len(result.records) == 2
    assert result.issues == ()
    assert result.records[0] == Choice(
        "The dog barks.", "It is loud.", "It is silent."
    )
    assert result.records[1].where == f"{path}:4"


def test_load_triples_collects_issues(tmp_path):
    path = tmp_path / "nli.tsv"
    path.write_text(
        "only two\tfields\n"
        "No terminal\tyes.\tno.\n"
        "Good context.\t\tmissing entailed\n"
        "Fine here.\tok.\tbad.\n",
        encoding="utf-8",
    )
    result = load_triples(path)
    assert len(result.records) == 1
    assert [i.line for i in result.issues] == [1, 2, 3]


def test_load_triples_all_bad_raises(tmp_path):
    path = tmp_path / "nli.tsv"
    path.write_text("no tabs here\n", encoding="utf-8")
    with pytest.raises(EmptyDataset):
        load_triples(path)


def test_load_stories_valid(tmp_path):
    path = tmp_path / "story.tsv"
    row = "\t".join(["One.", "Two.", "Three.", "Four.", "Happy end.", "Sad end.", "b"])
    path.write_text(row + "\n" + row[:-1] + "a\n", encoding="utf-8")
    records = load_stories(path).records
    assert records == (
        Choice("One. Two. Three. Four.", "Sad end.", "Happy end."),
        Choice("One. Two. Three. Four.", "Happy end.", "Sad end."),
    )
    assert [r.where for r in records] == [f"{path}:1", f"{path}:2"]


def test_load_stories_bad_correct_column(tmp_path):
    path = tmp_path / "story.tsv"
    good = "\t".join(["A.", "B.", "C.", "D.", "x.", "y.", "a"])
    bad = "\t".join(["A.", "B.", "C.", "D.", "x.", "y.", "c"])
    path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
    result = load_stories(path)
    assert len(result.records) == 1
    assert "correct column" in result.issues[0].reason


def test_load_stories_empty_raises(tmp_path):
    path = tmp_path / "story.tsv"
    path.write_text("# nothing but comments\n", encoding="utf-8")
    with pytest.raises(EmptyDataset):
        load_stories(path)


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def _triples():
    return [
        Choice("ctx one.", "good", "bad"),
        Choice("ctx two.", "good good", "bad bad"),
    ]


def test_selection_accuracy_scores_every_option_in_one_batch():
    class CountingScorer(WordScorer):
        batches = 0

        def score_batch(self, seqs, contexts=()):
            self.batches += 1
            assert len(seqs) == len(contexts) == 4
            return super().score_batch(seqs, contexts)

    scorer = CountingScorer({"good": -0.1, "bad": -3.0})
    assert selection_accuracy(scorer, _triples(), encode_words).accuracy == 1.0
    assert scorer.batches == 1


def test_selection_accuracy_names_the_item_with_no_in_vocab_token(tmp_path):
    path = tmp_path / "nli.tsv"
    path.write_text("Fine here.\tgood\tbad\n# comment\nAlso fine.\tzzz qqq\tbad\n", encoding="utf-8")

    def encode_known(text):
        if "zzz" in text:
            raise EmptyInput("no in-vocab tokens")
        return encode_words(text)

    with pytest.raises(DataError, match=re.escape(f"{path}:3: no in-vocab tokens")):
        selection_accuracy(WordScorer({}), load_triples(path).records, encode_known)


def test_selection_accuracy_prefers_lower_perplexity():
    scorer = WordScorer({"good": -0.1, "bad": -3.0})
    result = selection_accuracy(scorer, _triples(), encode_words)
    assert result.accuracy == 1.0
    assert result.ties == 0
    assert all(o.picked == "pos" for o in result.per_item)


def test_selection_accuracy_swapped_options_score_zero():
    scorer = WordScorer({"good": -3.0, "bad": -0.1})
    result = selection_accuracy(scorer, _triples(), encode_words)
    assert result.accuracy == 0.0
    assert all(o.picked == "neg" for o in result.per_item)


def test_selection_tie_counts_as_incorrect():
    scorer = WordScorer({})  # every option hits the floor: exact ties
    result = selection_accuracy(scorer, _triples(), encode_words)
    assert result.accuracy == 0.0
    assert result.ties == 2
    assert all(o.picked == "tie" for o in result.per_item)
    assert result.per_item[0].ppl_pos == result.per_item[0].ppl_neg


def test_selection_handles_story_items(tmp_path):
    path = tmp_path / "story.tsv"
    path.write_text("\t".join(["A.", "B.", "C.", "D.", "bad end", "good end", "b"]) + "\n", encoding="utf-8")
    scorer = WordScorer({"good": -0.1, "bad": -2.0, "end": -0.5})
    result = selection_accuracy(scorer, load_stories(path).records, encode_words)
    # correct option is ending b; it scores better, so the pick is "pos"
    assert result.accuracy == 1.0


def test_selection_empty_items_raises():
    with pytest.raises(EmptyDataset):
        selection_accuracy(WordScorer({}), [], encode_words)


def test_selection_per_item_ppls_are_finite_and_positive():
    scorer = WordScorer({"good": -0.25, "bad": -1.5})
    result = selection_accuracy(scorer, _triples(), encode_words)
    for o in result.per_item:
        assert math.isfinite(o.ppl_pos) and o.ppl_pos > 0
        assert o.ppl_pos == pytest.approx(math.exp(0.25))


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------


def test_save_selection_result_file_shapes(tmp_path):
    scorer = WordScorer({"good": -0.1, "bad": -3.0})
    result = selection_accuracy(scorer, _triples(), encode_words)
    report = tmp_path / "report_nli.json"
    save_selection_result(result, report, issues=())
    data = json.loads(report.read_text(encoding="utf-8"))
    assert set(data) == {"accuracy", "n", "ties", "per_item", "issues"}
    assert data["accuracy"] == 1.0 and data["n"] == 2
    items_path = tmp_path / data["per_item"]
    lines = items_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert set(first) == {"index", "picked", "ppl_neg", "ppl_pos"}


def test_save_selection_result_records_issues(tmp_path):
    from genteval.consistency import LineIssue

    scorer = WordScorer({"good": -0.1, "bad": -3.0})
    result = selection_accuracy(scorer, _triples(), encode_words)
    report = tmp_path / "r.json"
    save_selection_result(result, report, issues=[LineIssue(4, "empty field")])
    data = json.loads(report.read_text(encoding="utf-8"))
    assert data["issues"] == [{"line": 4, "reason": "empty field"}]
