"""Exception taxonomy for the toolkit, the reader's text-file opener,
the writers' atomic replace and the one JSON / JSONL artifact writer.

Two branches matter for the CLI: configuration problems (bad flags,
invalid strategy/parameter pairings) exit with code 2, data problems
(empty or inconsistent inputs) exit with code 3.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path


class ToolkitError(Exception):
    """Base class for all toolkit-raised errors."""


class ConfigError(ToolkitError):
    """A configuration value is invalid or inconsistent."""


class BadOrder(ConfigError):
    """An n-gram order below 1 was requested."""


class DataError(ToolkitError):
    """Input data cannot support the requested operation."""


class EmptyInput(DataError):
    """Text or token input was empty where content is required."""


class CorpusTooSmall(DataError):
    """The corpus cannot be chunked into enough pieces."""


class InsufficientData(DataError):
    """Not enough raw material to build the requested dataset."""


class InsufficientSamples(DataError):
    """A metric needs more samples than the set provides."""


class EmptyDataset(DataError):
    """A loaded dataset contained no valid records."""


class AlignmentError(DataError):
    """Word-level and model-level token surfaces cannot be reconciled."""


class NoSupervision(DataError):
    """Every position in a classification batch is masked."""


class DegenerateFit(DataError):
    """A curve fit was requested on degenerate points."""


@contextmanager
def open_text(path, newline: str | None = None):
    """Open ``path`` to read UTF-8 text; bytes that do not decode raise
    DataError naming ``path:line`` and the file offset of the bad byte."""
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            yield f
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise DataError(f"{path}:{line}: {exc}") from None
        raise


@contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """Open a temp file beside ``path`` for writing, making ``path``'s
    directory first if need be. A clean exit moves it onto ``path`` in one
    ``os.replace``; an error removes it and leaves ``path`` as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    """Write ``obj`` atomically as a JSON document: sorted keys, indent 2, final newline."""
    with atomic_write(path, encoding="utf-8") as f:
        f.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")  # one write, not one per token


def write_jsonl(path, rows) -> None:
    """Write ``rows`` atomically, one sorted-key JSON object per line."""
    with atomic_write(path, encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")
