"""Self-test of the qspt benchmark; run from the root of a checkout:

    python3 bench/selftest.py

It checks that
- every kind of failure counts as a failed operation: a ``fail`` report, a
  ``QsptError`` (a check the CLI does not know), any other exception, a hit
  that differs from its miss, and a report whose digest differs from the seed;
- on every workload a traced pass yields the same report and series digests as
  an untraced pass, and every operation matches the recorded digests;
- the wrappers see every call: ``spt_table`` runs once per table build, and
  it does run on ``verify_suite``;
- two traced passes give identical counts;
- the per-layer profile has the structure the workloads were chosen for;
- BENCHMARK.json and rationale.json name the same metrics and workloads.
It takes about a minute and exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

COUNT_SUFFIXES = (".calls", ".out_coeffs", ".max_bits", ".bytes", ".rows_built",
                  ".bytes_written", ".hits", ".misses", ".builds")


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def failure_accounting() -> None:
    from qspt import cli
    from qspt.errors import QsptError, UnknownCheck
    from qspt.report import VerificationReport
    from qspt.series import LaurentSeries

    def boom(exc):
        def call():
            raise exc
        return call

    failing = VerificationReport(check="probe")
    failing.record(1, 1, 2)
    miss = LaurentSeries.from_terms({0: 1, 1: 2}, 4)
    ops = [
        Op("unknown check", "report", lambda: cli.run_check("no_such_check")),
        Op("other exception", "report", boom(ValueError("probe"))),
        Op("fail status", "report", lambda: failing),
        Op("miss probe@4", "miss", lambda: miss, "probe", 4),
        Op("hit probe@3", "hit", lambda: LaurentSeries.from_terms({0: 1, 1: 3}, 3), "probe", 3),
        Op("hit probe@2", "hit", lambda: miss.truncate(2), "probe", 2),
    ]
    outcomes, _ = workloads.run_ops(ops)
    records = workloads.judge(ops, outcomes)
    by_key = {r["key"]: r for r in records}
    unknown = by_key["unknown check"]
    check(issubclass(UnknownCheck, QsptError)
          and unknown["error"].startswith(UnknownCheck.__name__ + ":")
          and not unknown["ok"], "a QsptError is a failed operation")
    check(not by_key["other exception"]["ok"], "any other exception is a failed operation")
    check(not by_key["fail status"]["ok"], "a fail report is a failed operation")
    check(not by_key["hit probe@3"]["ok"], "a hit that differs from its miss is a failed operation")
    check(by_key["hit probe@2"]["ok"], "a hit equal to its truncated miss succeeds")
    recorded = {"miss probe@4": by_key["miss probe@4"]["digest"]}
    attempted, failed = run.judge([{"ops": records}], recorded)
    check((attempted, failed) == (6, 4), "run.judge counts 4 of the 6 probes as failed")
    check(run.judge([{"ops": [by_key["miss probe@4"]]}], {"miss probe@4": "0" * 64}) == (1, 1),
          "a digest that differs from the seed is a failed operation")


def workload_passes(spec: dict) -> None:
    digests = json.loads((BENCH / "digests.json").read_text())
    layers = {}
    with run.workdir() as work:
        for w in run.WORKLOADS:
            plain = run.spawn(w, 7, False, work)
            traced = [run.spawn(w, 7, True, work) for _ in range(2)]
            check(run.judge([plain] + traced, digests[w])[1] == 0,
                  f"{w}: every operation matches the seed digests")
            same = all([(o["key"], o["digest"]) for o in t["ops"]]
                       == [(o["key"], o["digest"]) for o in plain["ops"]] for t in traced)
            check(same, f"{w}: traced passes give the untraced digests")
            a, b = (t["trace"] for t in traced)
            counts = [k for k in a if k.endswith(COUNT_SUFFIXES)]
            check(all(a[k] == b[k] for k in counts),
                  f"{w}: {len(counts)} counts repeat exactly across two traced passes")
            check(a["partitions.spt_table.calls"] == a["partitions.tables.builds"],
                  f"{w}: spt_table is seen once per table build")
            layers[w] = run.per_layer([plain], traced)
    wanted = {m["name"] for m in spec["per_layer"]}
    check(all(wanted <= set(v) for v in layers.values()),
          "every per-layer metric of BENCHMARK.json is produced")
    check(layers["verify_suite"]["partitions.spt_table.calls"] >= 1,
          "verify_suite: the wrapper sees spt_table called inside StatTables.build")
    check(all(v == 0 for k, v in layers["identities"].items()
              if k.startswith("partitions.") and k.endswith("self_s")),
          "identities: the tables layer is never touched")
    check(layers["series_cache"]["cli.hit.self_s"] > 0
          and all(layers[w]["cli.hit.self_s"] == 0 for w in ("verify_suite", "identities")),
          "cli.hit.self_s is non-zero only on series_cache")
    check(layers["series_cache"]["cli.cache.hits"] == len(workloads.CACHE_NAMES) * workloads.READS_PER_NAME
          and layers["series_cache"]["cli.cache.misses"] == len(workloads.CACHE_NAMES),
          "series_cache: every read is a hit and every build a miss")


def documents(spec: dict) -> None:
    rationale = json.loads((BENCH / "rationale.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
          == list(rationale["workloads"]), "BENCHMARK.json, run.py and rationale.json agree on workloads")
    check({m["name"] for m in spec["per_layer"]} == set(rationale["per_layer"])
          and {m["name"] for m in spec["end_to_end"]} == set(rationale["end_to_end"]),
          "rationale.json explains every metric of BENCHMARK.json")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        documents(spec)
        failure_accounting()
        workload_passes(spec)
    except (AssertionError, run.BenchError) as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
