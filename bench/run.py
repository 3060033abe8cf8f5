"""qspt benchmark: run one workload in fresh child interpreters and print its metrics.

    python3 bench/run.py --workload verify_suite --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 10        # every workload, one table

Run from the root of a checkout; the package is imported from ``src/``.
Children run one at a time, each against an empty ``QSPT_CACHE`` directory
under ``.bench_work/``, until about ``--seconds`` have passed (at least one
pass).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, medians over
the passes.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics: medians of the traced passes, the untraced cache
latencies and the tracing overhead.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; a summary goes
to stderr.  The exit code is 0 unless a child could not run.
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
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verify_suite", "identities", "series_cache")
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


@contextlib.contextmanager
def workdir():
    """A private directory under .bench_work/, removed with its caches afterwards."""
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()


def spawn(workload: str, seed: int, traced: bool, work: Path) -> dict:
    """Run one child pass to completion, against a fresh cache directory, and
    return its JSON result."""
    tmp = Path(tempfile.mkdtemp(dir=work))
    env = dict(os.environ, QSPT_CACHE=str(tmp / "cache"))
    cmd = [sys.executable, "-I", str(BENCH / "child.py"), str(ROOT), workload,
           str(seed), "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded {CHILD_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, traced: bool, work: Path):
    """Rounds of one untraced pass (plus one traced pass when tracing), until
    about `seconds` have passed."""
    plain, tracing, rounds = [], [], []
    deadline = time.monotonic() + seconds
    while True:
        start = time.monotonic()
        plain.append(spawn(workload, seed, False, work))
        if traced:
            tracing.append(spawn(workload, seed, True, work))
        rounds.append(time.monotonic() - start)
        # stop when another round would end further past the deadline than short of it
        if time.monotonic() + statistics.median(rounds) / 2 >= deadline:
            return plain, tracing


def judge(passes: list[dict], recorded: dict) -> tuple[int, int]:
    """(attempted, failed): an operation fails when it is not ok or its digest
    differs from the one recorded at the seed (hits are checked in the child)."""
    attempted = failed = 0
    for p in passes:
        for op in p["ops"]:
            attempted += 1
            good = op["ok"] and (op["kind"] == "hit" or recorded.get(op["key"]) == op["digest"])
            failed += not good
    return attempted, failed


def end_to_end(plain: list[dict]) -> dict:
    med = statistics.median
    return {
        "wall_s": med(p["wall_s"] for p in plain),
        "setup_s": med(p["setup_s"] for p in plain),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
    }


def per_layer(plain: list[dict], tracing: list[dict]) -> dict:
    med = statistics.median
    out = {k: med(t["trace"][k] for t in tracing) for k in tracing[0]["trace"]}
    out["trace.overhead_ratio"] = med(t["wall_s"] for t in tracing) / med(p["wall_s"] for p in plain)
    out["cli.cache.miss_s"] = med(sum(op["s"] for op in p["ops"] if op["kind"] == "miss")
                                  for p in plain)
    hits = [op["s"] * 1000 for p in plain for op in p["ops"] if op["kind"] == "hit"]
    out["cli.cache.hit_ms_p50"] = med(hits) if hits else 0.0
    # a percentile is reported only with at least ten samples beyond it
    out["cli.cache.hit_ms_p90"] = statistics.quantiles(hits, n=10)[8] if len(hits) >= 100 else 0.0
    return out


def measure(workload: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    recorded = json.loads((BENCH / "digests.json").read_text())[workload]
    with workdir() as work:
        plain, tracing = run_passes(workload, seed, seconds, traced, work)
    attempted, failed = judge(plain + tracing, recorded)
    values = per_layer(plain, tracing) if traced else end_to_end(plain)
    wanted = spec["per_layer" if traced else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"{workload}: {len(plain)} untraced + {len(tracing)} traced passes, "
          f"{failed}/{attempted} operations failed",
          file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qspt" / "cli.py").is_file():
        print(f"error: no qspt package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: measure(w, args.seed, args.seconds, bool(args.trace), spec) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
