"""Span tracing installed from outside the program, for the traced run.

The benchmark never edits ``src/``. Instead, a traced worker replaces
the public functions of each layer with wrappers that record a span
(name, start, end, parent, counters) and then call the original. A
function is rebound on every ``genteval.*`` module attribute that holds
it, because ``sweep.py``, ``losses.py`` and ``cli.py`` import names with
``from ... import``; methods are wrapped on the class itself.

Spans stay in memory until the pipeline ends. Each thread keeps its own
parent stack; a span opened on a thread whose stack is empty (a sweep
worker) takes the innermost open span of the main thread as its parent,
so the sweep's self time is its wall time minus the union of its
workers' spans. A target that no longer exists (after a refactor) is
listed in ``Tracer.missing`` and never raises.
"""

from __future__ import annotations

import itertools
import os
import statistics
import sys
import threading
from time import perf_counter

# -- counters -----------------------------------------------------------------
# Each takes (args, kwargs, result) and returns extra counts for the span.


def _n_ids(seq) -> int:
    return len(seq.ids) if hasattr(seq, "ids") else len(seq)


def _fit_tokens(a, kw, r):
    corpus = a[0]
    if hasattr(corpus, "ids"):
        return {"tokens": len(corpus.ids)}
    return {"tokens": sum(_n_ids(s) for s in corpus) if isinstance(corpus, (list, tuple)) else 0}


def _set_tokens(sset) -> int:
    return sum(len(s.continuation) for s in sset.samples)


COUNTERS = {
    "tokens_result0": lambda a, kw, r: {"tokens": len(r[0])},
    "fit": _fit_tokens,
    "score": lambda a, kw, r: {"tokens": _n_ids(a[1])},
    "params": lambda a, kw, r: {"params": r.param_count},
    "fwd_rows": lambda a, kw, r: {"rows": int(a[1].shape[0])},
    "bwd_rows": lambda a, kw, r: {"rows": int(a[1].h.shape[0])},
    "save_bytes": lambda a, kw, r: {"bytes": os.path.getsize(a[1])},
    "path0_bytes": lambda a, kw, r: {"bytes": os.path.getsize(a[0])},
    "generate": lambda a, kw, r: {"tokens": len(r), "strategy": a[2].strategy},
    "candidates": lambda a, kw, r: {"candidates": len(a[0])},
    "fwd_ppl": lambda a, kw, r: {"tokens": _set_tokens(a[1])},
    "rev_ppl": lambda a, kw, r: {"tokens": _set_tokens(a[0]) + _set_tokens(a[1])},
    "step": lambda a, kw, r: {"ul_branch": r["ul_branch"]} if "ul_branch" in r else {},
    "items": lambda a, kw, r: {"items": len(a[1])},
    "sweep": lambda a, kw, r: {"cells": len(r), "ok": sum(1 for x in r if not x.failed)},
}

# (module, attribute path, span name, counter key). "Cls.name" paths are
# wrapped on the class.
TARGETS = (
    ("genteval.corpus", "tokenize", "corpus.tokenize", "tokens_result0"),
    ("genteval.corpus", "load_splits", "corpus.load_splits", None),
    ("genteval.rng", "SplitMix64.shuffle", "rng.shuffle", None),
    ("genteval.lm.ngram", "ngram_fit", "lm.ngram.fit", "fit"),
    ("genteval.lm.ngram", "NGramLM.next_dist", "lm.ngram.next_dist", None),
    ("genteval.lm.ngram", "NGramLM.score", "lm.ngram.score", "score"),
    ("genteval.lm.ffn", "FeedForwardLM.init", "lm.ffn.init", "params"),
    ("genteval.lm.ffn", "FeedForwardLM.next_dist", "lm.ffn.next_dist", None),
    ("genteval.lm.ffn", "FeedForwardLM.forward", "lm.ffn.forward", "fwd_rows"),
    ("genteval.lm.ffn", "FeedForwardLM.backward", "lm.ffn.backward", "bwd_rows"),
    ("genteval.lm.store", "save_model", "lm.store.save", "save_bytes"),
    ("genteval.lm.store", "load_model", "lm.store.load", "path0_bytes"),
    ("genteval.decode", "generate", "decode.generate", "generate"),
    ("genteval.decode", "truncate_renormalize", "decode.truncate_renormalize", None),
    ("genteval.decode", "sample", "decode.sample", None),
    ("genteval.decode", "penalize", "decode.penalize", None),
    ("genteval.metrics", "corpus_bleu", "metrics.corpus_bleu", "candidates"),
    ("genteval.metrics", "self_bleu", "metrics.self_bleu", "candidates"),
    ("genteval.metrics", "mean_seq_rep", "metrics.mean_seq_rep", None),
    ("genteval.metrics", "forward_ppl", "metrics.forward_ppl", "fwd_ppl"),
    ("genteval.metrics", "reverse_ppl", "metrics.reverse_ppl", "rev_ppl"),
    ("genteval.metrics", "acceptability_penlp", "metrics.acceptability_penlp", None),
    ("genteval.losses", "multitask_step", "losses.multitask_step", "step"),
    ("genteval.losses", "ce_loss", "losses.ce_loss", None),
    ("genteval.losses", "ul_token_loss", "losses.ul_token_loss", None),
    ("genteval.losses", "AdamState.update", "losses.adam_update", None),
    ("genteval.consistency", "selection_accuracy", "consistency.selection_accuracy", "items"),
    ("genteval.consistency", "load_triples", "consistency.load", None),
    ("genteval.consistency", "load_stories", "consistency.load", None),
    ("genteval.harness.samples", "save_sample_set", "harness.samples.save", "path0_bytes"),
    ("genteval.harness.samples", "load_sample_set", "harness.samples.load", "path0_bytes"),
    ("genteval.harness.sweep", "run_sweep", "harness.sweep.run_sweep", "sweep"),
    ("genteval.harness.sweep", "tradeoff_table", "harness.sweep.tradeoff", None),
)

CLI_STAGES = ("ingest", "train", "sweep", "eval", "fit")
STRATEGIES = ("greedy", "beam", "topk", "topp", "temperature", "penalized")

_CALLS_SELF = (
    "corpus.load_splits", "rng.shuffle", "decode.truncate_renormalize", "decode.sample",
    "decode.penalize", "metrics.mean_seq_rep", "metrics.acceptability_penlp", "losses.ce_loss",
    "losses.ul_token_loss", "losses.adam_update", "consistency.load", "harness.sweep.run_sweep",
    "harness.sweep.tradeoff",
)
_WITH_COUNT = (
    ("corpus.tokenize", "tokens", "tokens"), ("lm.ngram.fit", "tokens", "tokens"),
    ("lm.ngram.score", "tokens", "tokens"), ("lm.ffn.init", "params", "count"),
    ("lm.ffn.forward", "rows", "rows"), ("lm.ffn.backward", "rows", "rows"),
    ("lm.store.save", "bytes", "bytes"), ("lm.store.load", "bytes", "bytes"),
    ("decode.generate", "tokens", "tokens"), ("metrics.corpus_bleu", "candidates", "count"),
    ("metrics.self_bleu", "candidates", "count"), ("metrics.forward_ppl", "tokens", "tokens"),
    ("metrics.reverse_ppl", "tokens", "tokens"),
    ("consistency.selection_accuracy", "items", "items"),
    ("harness.samples.save", "bytes", "bytes"), ("harness.samples.load", "bytes", "bytes"),
)


def _per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for span in _CALLS_SELF:
        out += [(f"{span}.calls", "count", "lower"), (f"{span}.self_s", "s", "lower")]
    for span, field, unit in _WITH_COUNT:
        out += [(f"{span}.calls", "count", "lower"), (f"{span}.self_s", "s", "lower"),
                (f"{span}.{field}", unit, "higher")]
    for span in ("lm.ngram.next_dist", "lm.ffn.next_dist"):
        out += [(f"{span}.calls", "count", "lower"), (f"{span}.self_s", "s", "lower"),
                (f"{span}.us_p50", "us", "lower")]
    for span in ("decode.generate", "losses.multitask_step"):
        out += [(f"{span}.ms_p50", "ms", "lower"), (f"{span}.ms_p90", "ms", "lower")]
    out += [("losses.multitask_step.calls", "count", "lower"),
            ("losses.multitask_step.self_s", "s", "lower")]
    out += [(f"decode.{s}.ms_per_token", "ms/token", "lower") for s in STRATEGIES]
    out += [
        ("losses.ul_seq_share", "ratio", "higher"),
        ("harness.sweep.cells_attempted", "count", "higher"),
        ("harness.sweep.cells_ok_ratio", "ratio", "higher"),
        ("harness.sweep.busy_ratio", "ratio", "higher"),
    ]
    out += [(f"harness.cli.{stage}.s", "s", "lower") for stage in CLI_STAGES]
    out += [("harness.cli.self_s", "s", "lower"),
            ("trace.overhead_ratio", "ratio", "lower"),
            ("trace.coverage", "ratio", "higher")]
    return out


PER_LAYER = _per_layer_spec()


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        # Finished spans: (id, name, start, end, parent id, counts).
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.count_errors: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, counter=None):
        """Run ``fn`` inside a span called ``name``."""
        kwargs = kwargs or {}
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main and stack is not main else None
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        done = False
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            end = perf_counter()
            stack.pop()
            counts = None
            if counter is not None and done:
                try:
                    counts = counter(args, kwargs, result)
                except Exception:  # noqa: BLE001 - a stale counter must not break the run
                    self.count_errors.add(name)
            self.spans.append((sid, name, start, end, parent, counts))

    def _wrap(self, name: str, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, counter)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every target; record the ones that cannot be found."""
        for module_name, path, span, counter_key in TARGETS:
            counter = COUNTERS[counter_key] if counter_key else None
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = None if owner is None else (
                owner.__dict__.get(attr) if owner_name else getattr(owner, attr, None)
            )
            if raw is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            if owner_name:
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(span, raw.__func__, counter))
                else:
                    new = self._wrap(span, raw, counter)
                setattr(owner, attr, new)
                continue
            wrapper = self._wrap(span, raw, counter)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "genteval" or mod_name.startswith("genteval.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapper)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _sid, _n, start, end, parent, _c in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for sid, _n, start, end, _p, _c in self.spans:
            covered = 0.0
            lo = hi = None
            for s, e in sorted(children.get(sid, ())):
                s, e = max(s, start), min(e, end)
                if e <= s:
                    continue
                if hi is None or s > hi:
                    if hi is not None:
                        covered += hi - lo
                    lo, hi = s, e
                else:
                    hi = max(hi, e)
            if hi is not None:
                covered += hi - lo
            out[sid] = (end - start) - covered
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics for one traced pipeline (ratios of the run added later)."""
        selfs = self.self_times()
        by_name: dict[str, list[tuple]] = {}
        for span in self.spans:
            by_name.setdefault(span[1], []).append(span)
        m: dict[str, float] = {}

        def spans_of(name):
            return by_name.get(name, [])

        def summed(name, key):
            return sum((s[5] or {}).get(key, 0) for s in spans_of(name))

        def durations(name):
            return [s[3] - s[2] for s in spans_of(name)]

        def pct(values, q):
            if not values:
                return 0.0
            if len(values) == 1:
                return values[0]
            return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

        for name, unit, _better in PER_LAYER:
            span, _, field = name.rpartition(".")
            if field == "calls":
                m[name] = float(len(spans_of(span)))
            elif field == "self_s" and span != "harness.cli":
                m[name] = sum(selfs[s[0]] for s in spans_of(span))
            elif field in ("tokens", "params", "rows", "bytes", "candidates", "items"):
                m[name] = float(summed(span, field))
            elif field == "us_p50":
                m[name] = pct(durations(span), 50) * 1e6
            elif field in ("ms_p50", "ms_p90"):
                m[name] = pct(durations(span), int(field[4:])) * 1e3
        for strategy in STRATEGIES:
            gens = [s for s in spans_of("decode.generate") if (s[5] or {}).get("strategy") == strategy]
            tokens = sum(s[5]["tokens"] for s in gens)
            m[f"decode.{strategy}.ms_per_token"] = (
                sum(s[3] - s[2] for s in gens) / tokens * 1e3 if tokens else 0.0
            )
        branches = [s[5]["ul_branch"] for s in spans_of("losses.multitask_step") if s[5] and "ul_branch" in s[5]]
        m["losses.ul_seq_share"] = sum(branches) / len(branches) if branches else 0.0
        sweeps = spans_of("harness.sweep.run_sweep")
        cells = summed("harness.sweep.run_sweep", "cells")
        m["harness.sweep.cells_attempted"] = float(cells)
        m["harness.sweep.cells_ok_ratio"] = summed("harness.sweep.run_sweep", "ok") / cells if cells else 0.0
        sweep_ids = {s[0] for s in sweeps}
        child_time = sum(s[3] - s[2] for s in self.spans if s[4] in sweep_ids)
        sweep_time = sum(s[3] - s[2] for s in sweeps)
        m["harness.sweep.busy_ratio"] = child_time / sweep_time if sweep_time else 0.0
        cli_total = cli_self = 0.0
        for stage in CLI_STAGES:
            spans = spans_of(f"harness.cli.{stage}")
            m[f"harness.cli.{stage}.s"] = sum(s[3] - s[2] for s in spans)
            cli_total += m[f"harness.cli.{stage}.s"]
            cli_self += sum(selfs[s[0]] for s in spans)
        m["harness.cli.self_s"] = cli_self
        m["trace.coverage"] = (cli_total - cli_self) / cli_total if cli_total else 0.0
        return m
