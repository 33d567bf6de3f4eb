"""Consistency checks: can a model rank the coherent continuation first?

Items pair a context with a consistent and an inconsistent option. The
model picks the option whose perplexity (conditioned on the context) is
lower; ties count as incorrect, since the model failed to separate the
two. Accuracy is invariant to any strictly monotone transform of the
per-option scores, which is what makes perplexity a fair choice here.

File formats are single-purpose TSVs described in the loaders. Lines
that cannot be parsed are collected into an issue list rather than
aborting the run; an input with zero valid records is an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .errors import DataError, EmptyDataset, EmptyInput, open_text, write_json, write_jsonl
from .lm.base import perplexity

_TERMINALS = (".", "!", "?")


@dataclass(frozen=True)
class Choice:
    """A context with its consistent and its inconsistent option.

    An NLI triple is a premise with its entailed and its contradicting
    hypothesis; a story is its four opening sentences, joined by spaces,
    with its right and its wrong ending.
    """

    context: str
    consistent: str
    inconsistent: str
    where: str = field(default="", compare=False)  # "path:line" of a loaded record


@dataclass(frozen=True)
class LineIssue:
    line: int
    reason: str


@dataclass(frozen=True)
class LoadResult:
    records: tuple[Choice, ...]
    issues: tuple[LineIssue, ...]


def _data_lines(path: str | Path):
    with open_text(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield lineno, line


def load_triples(path: str | Path) -> LoadResult:
    """TSV: context<TAB>entailed<TAB>contradicting; ``#`` lines are comments.

    A valid context must end with terminal punctuation (., ! or ?) so
    that gluing an option after it reads as a new sentence.
    """
    records = []
    issues = []
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            issues.append(LineIssue(lineno, f"expected 3 fields, got {len(parts)}"))
            continue
        context, entailed, contradicting = (p.strip() for p in parts)
        if not context or not entailed or not contradicting:
            issues.append(LineIssue(lineno, "empty field"))
            continue
        if not context.endswith(_TERMINALS):
            issues.append(LineIssue(lineno, "context does not end with terminal punctuation"))
            continue
        records.append(Choice(context, entailed, contradicting, f"{path}:{lineno}"))
    if not records:
        raise EmptyDataset(f"{path}: no valid triples")
    return LoadResult(tuple(records), tuple(issues))


def load_stories(path: str | Path) -> LoadResult:
    """TSV: s1..s4<TAB>ending_a<TAB>ending_b<TAB>correct, correct in {a, b}.

    The four sentences join into the context; ``correct`` names the
    consistent ending.
    """
    records = []
    issues = []
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 7:
            issues.append(LineIssue(lineno, f"expected 7 fields, got {len(parts)}"))
            continue
        fields = [p.strip() for p in parts]
        if any(not p for p in fields):
            issues.append(LineIssue(lineno, "empty field"))
            continue
        if fields[6] not in ("a", "b"):
            issues.append(LineIssue(lineno, f"correct column must be 'a' or 'b', got {fields[6]!r}"))
            continue
        right, wrong = (fields[4], fields[5]) if fields[6] == "a" else (fields[5], fields[4])
        records.append(Choice(" ".join(fields[:4]), right, wrong, f"{path}:{lineno}"))
    if not records:
        raise EmptyDataset(f"{path}: no valid stories")
    return LoadResult(tuple(records), tuple(issues))


@dataclass(frozen=True)
class ItemOutcome:
    ppl_pos: float
    ppl_neg: float
    picked: str  # "pos" | "neg" | "tie"


@dataclass(frozen=True)
class SelectionResult:
    accuracy: float
    n: int
    ties: int
    per_item: tuple[ItemOutcome, ...]


def selection_accuracy(model, items: Sequence[Choice], encode: Callable) -> SelectionResult:
    """Fraction of items where the consistent option has lower perplexity.

    ``encode`` maps text to token ids for the model's vocab. The context
    conditions each option but its own tokens are excluded from the
    perplexity normalization; options are scored independently, which
    for word-level tokenization is identical to joining context and
    option with a single space. All items are encoded (a text with no
    in-vocab token fails naming its item) before one batch scores them.
    """
    if not items:
        raise EmptyDataset("no items to score")
    contexts, options = [], []
    for i, item in enumerate(items):
        try:
            ctx, pos, neg = encode(item.context), encode(item.consistent), encode(item.inconsistent)
        except EmptyInput as exc:
            raise DataError(f"{item.where or f'item {i}'}: {exc}") from None
        contexts += [ctx, ctx]
        options += [pos, neg]
    ppl = perplexity(model, options, contexts)
    outcomes = []
    correct = 0
    ties = 0
    for ppl_pos, ppl_neg in zip(ppl[::2], ppl[1::2]):
        if ppl_pos < ppl_neg:
            picked = "pos"
            correct += 1
        elif ppl_pos > ppl_neg:
            picked = "neg"
        else:
            picked = "tie"
            ties += 1
        outcomes.append(ItemOutcome(ppl_pos, ppl_neg, picked))
    return SelectionResult(
        accuracy=correct / len(items),
        n=len(items),
        ties=ties,
        per_item=tuple(outcomes),
    )


def save_selection_result(
    result: SelectionResult,
    report_path: str | Path,
    issues: Sequence[LineIssue] = (),
) -> None:
    """Write the summary JSON plus a per-item JSONL next to it."""
    report_path = Path(report_path)
    items_path = report_path.with_suffix(".items.jsonl")
    write_jsonl(items_path, (
        {"index": i, "ppl_pos": item.ppl_pos, "ppl_neg": item.ppl_neg, "picked": item.picked}
        for i, item in enumerate(result.per_item)
    ))
    write_json(report_path, {
        "accuracy": result.accuracy,
        "n": result.n,
        "ties": result.ties,
        "per_item": items_path.name,
        "issues": [{"line": i.line, "reason": i.reason} for i in issues],
    })
