"""genteval benchmark: one workload, seeded inputs, closed-loop repetitions.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the program is imported from ``src/``).
The script writes the workload's inputs from ``--seed`` under
``.bench_work/``, then runs repetitions of the workload's pipeline one
after another, each in a fresh worker process (``bench/workloads.py``),
while another one still fits in ``--seconds`` (at least ``MIN_REPS``). Every
repetition gets a fresh output directory, so sweeps never reuse cells.
Each repetition passes the correctness gate (``bench/gate.py``), and
all repetitions must leave byte-identical artifacts.

With ``--trace 0`` the end-to-end metrics are ``setup_s`` and
``pipeline_s`` (medians over repetitions of the stage wall times),
``stage_tokens_per_s`` (median over repetitions of the tokens the
workload's main stage processes per second of that stage) and
``peak_rss_mb`` (median peak RSS of the worker). Workers run with
single-threaded BLAS, so every repetition uses one core. With ``--trace 1`` traced and untraced
repetitions alternate; the per-layer metrics are medians over the
traced ones and ``trace.overhead_ratio`` compares the two kinds. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list gate
failures and give each timing with its sample count and percentile,
plus ``error_rate``, ``greedy_match_rate`` and, for score_word,
``consistency_items_per_s``.

Exit codes: 0 after a run (``correct`` says whether the gate passed),
2 when the program sources are missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"

MIN_REPS = 3
HARD_LIMIT_S = 170.0

# BLAS pools otherwise start a thread per core; on a shared host their
# spinning makes the timings follow the neighbours' load.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# name -> unit; the end-to-end metrics every workload reports.
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "stage_tokens_per_s": "tokens/s",
    "peak_rss_mb": "MB",
}


def percentile_summary(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values), "percentile": None}
    for q in (99.9, 99, 95, 90, 75, 50):
        if (1 - q / 100) * len(values) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[int(q * 10) - 1]
            out["percentile"] = {"q": q, "value": cut}
            break
    return out


def phase_s(result: dict, phase: str) -> float:
    return sum(s["s"] for s in result["stages"] if s["phase"] == phase)


def pipeline_s(result: dict) -> float:
    return sum(s["s"] for s in result["stages"])


def rates(reps: list[dict], work: str, phase: str) -> list[float]:
    """Work done per second spent in ``phase``, one value per repetition."""
    return [r["work"].get(work, 0) / phase_s(r, phase) for r in reps if phase_s(r, phase) > 0]


def run_worker(name: str, inputs: Path, out: Path, trace: bool, tiny: bool, timeout: float) -> dict | None:
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", name,
           "--inputs", str(inputs), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if tiny:
        cmd.append("--tiny")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "worker.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, timeout=timeout, cwd=ROOT,
                                  env={**os.environ, **ONE_THREAD})
        except subprocess.TimeoutExpired:
            return None
    if proc.returncode != 0 or not (out / "result.json").exists():
        return None
    return json.loads((out / "result.json").read_text(encoding="utf-8"))


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path, tiny: bool = False) -> dict:
    """Run the workload for ``seconds``; return the summary the report is made from."""
    sys.path.insert(0, str(SRC_DIR))
    import gate
    import workloads

    w = workloads.WORKLOADS[name]
    if tiny:
        w = workloads.tiny(w)
    inputs = work / "inputs"
    workloads.make_inputs(w, seed, inputs)
    start = time.monotonic()
    reps: list[dict] = []
    problems: list[str] = []
    attempted = failed = 0
    greedy = (0, 0)
    digests = set()
    durations: list[float] = []
    while True:
        rep_start = time.monotonic()
        traced = trace and len(reps) % 2 == 1
        out = work / f"rep-{len(reps)}"
        remaining = HARD_LIMIT_S - (time.monotonic() - start)
        result = run_worker(name, inputs, out, traced, tiny, timeout=max(1.0, remaining))
        if result is None:
            attempted += 1
            failed += 1
            problems.append(f"repetition {len(reps)}: worker crashed or timed out (see worker.log)")
            break
        try:
            a, f, bad = gate.check_rep(w, out, result)
            if not reps and not bad:
                deep, matched, total = gate.deep_check(w, out)
                greedy = (matched, total)
                bad += deep
        except Exception as exc:  # noqa: BLE001 - malformed artifacts fail the gate, not the run
            a, f, bad = len(result["stages"]), 0, [f"artifacts unreadable: {type(exc).__name__}: {exc}"]
        attempted += a
        failed += f
        problems += [f"repetition {len(reps)}: {p}" for p in bad]
        digests.add(gate.artifact_digest(out / "art"))
        result["traced"] = traced
        reps.append(result)
        shutil.rmtree(out)
        durations.append(time.monotonic() - rep_start)
        # Start another repetition only if a typical one still fits in the budget.
        elapsed = time.monotonic() - start
        enough = len(reps) >= (MIN_REPS + 1 if trace else MIN_REPS)
        if (enough and elapsed + statistics.median(durations) > seconds) or elapsed > HARD_LIMIT_S / 2:
            break
    if len(digests) > 1:
        problems.append(f"repetitions with one seed left {len(digests)} different artifact trees")
    return {"workload": w, "reps": reps, "problems": problems, "attempted": attempted,
            "failed": failed, "greedy": greedy}


def summarize(m: dict, trace: bool) -> tuple[dict, dict]:
    """(metrics for the result line, detail for the lines before it)."""
    reps = m["reps"]
    plain = [r for r in reps if not r["traced"]]
    detail: dict = {"reps": len(reps), "problems": m["problems"],
                    "error_rate": m["failed"] / m["attempted"] if m["attempted"] else None}
    matched, total = m["greedy"]
    if total:
        detail["greedy_match_rate"] = matched / total
    if not plain:
        return {}, detail
    detail["setup_s"] = percentile_summary([phase_s(r, "setup") for r in plain])
    detail["pipeline_s"] = percentile_summary([pipeline_s(r) for r in plain])
    detail["peak_rss_mb"] = percentile_summary([r["rss_mb"] for r in plain])
    detail["stage_tokens_per_s"] = percentile_summary(rates(plain, "tokens", "main"))
    if any("items" in r["work"] for r in plain):
        detail["consistency_items_per_s"] = percentile_summary(rates(plain, "items", "consistency"))
    if not trace:
        values = {k: v["median"] if isinstance(v, dict) else v for k, v in detail.items()}
        return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}, detail
    import tracing

    traced = [r for r in reps if r["traced"]]
    if not traced:
        return {}, detail
    layers = {
        name: {"value": statistics.median(r["layers"][name] for r in traced), "unit": unit}
        for name, unit, _better in tracing.PER_LAYER if name in traced[0]["layers"]
    }
    overhead = statistics.median(pipeline_s(r) for r in traced) / detail["pipeline_s"]["median"]
    layers["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    detail["trace_missing"] = sorted({x for r in traced for x in r["missing"]})
    detail["trace_count_errors"] = sorted({x for r in traced for x in r["count_errors"]})
    return layers, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="genteval benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC_DIR / "genteval" / "harness" / "cli.py").is_file():
        print(f"error: program sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    metrics, detail = summarize(m, bool(args.trace))
    for problem in m["problems"]:
        print(f"gate: {problem}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    correct = not m["problems"] and m["failed"] == 0 and len(metrics) > 0
    print(json.dumps({"correct": correct, "attempted": m["attempted"], "failed": m["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
