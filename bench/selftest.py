"""Self-test of the benchmark itself, at a tiny size.

    python3 bench/selftest.py

Checks that every workload passes its correctness gate (plain and
traced), that the traced run reports every per-layer metric named in
BENCHMARK.json, that the gate fails and the failed-op count rises when
a sample file is corrupted or a model path is broken, and that the
benchmark refuses to run without the program sources. Exits 0 when all
checks pass. Takes about 15 seconds on two cores.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC_DIR))

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_spec() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([m["name"] for m in spec["per_layer"]] == [n for n, _u, _b in tracing.PER_LAYER],
          "BENCHMARK.json per_layer matches the traced run's metrics")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "BENCHMARK.json end_to_end matches the metrics the run reports")
    check({w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in workloads.WORKLOADS.items()},
          "BENCHMARK.json workloads and their reasons match the defined workloads")


def check_workloads(work: Path) -> None:
    for name in workloads.WORKLOADS:
        trace = name in ("score_word", "sweep_char")
        m = run.measure(name, seed=3, seconds=0, trace=trace, work=work / name, tiny=True)
        check(not m["problems"] and m["failed"] == 0,
              f"{name}: gate passes at tiny size {m['problems'][:3]}")
        matched, total = m["greedy"]
        if workloads.WORKLOADS[name].kind == "sweep":
            check(total > 0 and matched == total, f"{name}: greedy matches the reference decode")
        metrics, _detail = run.summarize(m, trace)
        if trace:
            check(set(metrics) == {n for n, _u, _b in tracing.PER_LAYER},
                  f"{name}: traced run reports every per-layer metric")
        else:
            check(set(metrics) == set(run.END_TO_END), f"{name}: run reports every end-to-end metric")
        if name == "score_word":
            check(metrics["decode.generate.calls"]["value"] == 0, "score_word: decode.generate.calls is 0")
        if name == "sweep_char":
            check(metrics["decode.generate.calls"]["value"] > 0, "sweep_char: decode.generate is traced")


def corrupt_samples(argv: list[str], art: Path) -> list[str]:
    if argv[:2] == ["eval", "quality"]:
        path = Path(argv[argv.index("--samples") + 1])
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
    return argv


def break_model(argv: list[str], art: Path) -> list[str]:
    if argv[0] == "sweep":
        i = argv.index("--models") + 1
        argv[i] = argv[i].replace(str(art / "ffn" / "model.lmek"), str(art / "missing.lmek"))
    return argv


def check_faults(work: Path) -> None:
    for name, fault, what in (
        ("score_word", corrupt_samples, "a corrupted sample file"),
        ("sweep_word", break_model, "a broken model path"),
    ):
        w = workloads.tiny(workloads.WORKLOADS[name])
        base = work / f"fault-{name}"
        workloads.make_inputs(w, 5, base / "inputs")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            clean = workloads.run_rep(w, base / "inputs", base / "clean")
            faulty = workloads.run_rep(w, base / "inputs", base / "faulty", fault=fault)
        a0, f0, bad0 = gate.check_rep(w, base / "clean", clean)
        a1, f1, bad1 = gate.check_rep(w, base / "faulty", faulty)
        check(not bad0 and f0 == 0, f"{name}: clean repetition passes")
        check(bool(bad1) and f1 / a1 > f0 / a0, f"{name}: {what} fails the gate and raises error_rate "
              f"({f1}/{a1} failed)")


def check_without_sources(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_word", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=120,
    )
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without the program sources the benchmark exits non-zero and prints no result")


def main() -> int:
    work = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    try:
        check_spec()
        check_without_sources(work)
        check_faults(work)
        check_workloads(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
