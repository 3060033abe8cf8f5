"""The benchmark's workloads and the check of every operation's output.

Each workload is a fixed list of calls into the public ``qspt`` API.  The
seed only draws the read precisions and the read order of ``series_cache``.
Outputs are digested after the last operation, outside the timed region:

- a report by its ``check``, ``parameters``, ``window``, ``status``,
  ``mismatches`` and ``details`` (not ``runtime_ms``);
- a series by its JSON interchange document.

An operation fails when it raises (a ``QsptError`` or anything else), when its
report has status ``fail``, or when a cache hit differs from the truncated
series its miss built.  The parent compares report and miss digests with the
ones recorded in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
from functools import partial
from time import perf_counter
from typing import Callable, NamedTuple

CACHE_NAMES = ("euler", "eta24", "e4", "e6", "delta", "j", "jprime_neg", "alpha",
               "partition_gen24", "mplus", "spt_gen24", "m_ell:5", "m_ell:7",
               "r_ell:5", "r_ell:7")
MISS_PREC = 600
READS_PER_NAME = 20  # 15 names x 20 = 300 hits, so p90 has 30 samples beyond it


class Op(NamedTuple):
    key: str
    kind: str  # "report", "miss" or "hit"
    call: Callable
    series: str | None = None  # the series name of a miss or hit
    prec: int | None = None


def verify_suite(seed: int) -> list[Op]:
    """The CLI's Hecke and congruence traffic; six checks share one table build."""
    from qspt import cli
    ops = []
    for ell, window in ((5, 2400), (7, 1200), (11, 480)):
        for check in ("thm1_1", "eq9_mod_ell"):
            ops.append(Op(f"{check} ell={ell} window={window}", "report",
                          partial(cli.run_check, check, ell=ell, window=window)))
    ops.append(Op("congruences max_n=190", "report",
                  partial(cli.run_check, "congruences", max_n=190)))
    ops.append(Op("cor1_4 ell=5", "report", partial(cli.run_check, "cor1_4", ell=5)))
    for check in ("thm1_2", "cor1_5", "thm1_3", "eq17"):
        ops.append(Op(check, "report", partial(cli.run_check, check)))
    return ops


def identities(seed: int) -> list[Op]:
    """verify_internal_identities below the CLI default of 500/30, which takes 38 s."""
    from qspt import verify
    return [Op("internal_identities ncoeffs=300 poly_max=20", "report",
               partial(verify.verify_internal_identities, ncoeffs=300, poly_max=20))]


def series_cache(seed: int) -> list[Op]:
    """Cold builds of every named series, then seeded reads served from the file cache."""
    from qspt import cli
    ops = [Op(f"miss {name}@{MISS_PREC}", "miss", partial(cli.build_series, name, MISS_PREC),
              name, MISS_PREC) for name in CACHE_NAMES]
    rng = random.Random(seed)
    reads = [(name, rng.randint(1, MISS_PREC)) for name in CACHE_NAMES
             for _ in range(READS_PER_NAME)]
    rng.shuffle(reads)
    ops += [Op(f"hit {name}@{prec}", "hit", partial(cli.build_series, name, prec), name, prec)
            for name, prec in reads]
    return ops


WORKLOADS = {"verify_suite": verify_suite, "identities": identities,
             "series_cache": series_cache}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(rep) -> str:
    doc = rep.to_dict()
    doc.pop("runtime_ms")
    doc.setdefault("details", [])
    return _sha(json.dumps(doc, sort_keys=True))


def judge(ops: list[Op], outcomes: list[tuple]) -> list[dict]:
    """One record per operation: its digest and whether it succeeded."""
    misses = {}
    records = []
    for op, (value, error, seconds) in zip(ops, outcomes):
        ok = error is None
        if error is not None:
            digest = _sha("error: " + error)
        elif op.kind == "report":
            digest = report_digest(value)
            ok = value.status == "pass"
        else:
            doc = value.to_json_dict(op.series)
            digest = _sha(json.dumps(doc))
            if op.kind == "miss":
                misses[op.series] = value
            else:
                built = misses.get(op.series)
                ok = built is not None and doc == built.truncate(op.prec).to_json_dict(op.series)
        records.append({"key": op.key, "kind": op.kind, "s": seconds,
                        "digest": digest, "ok": ok, "error": error})
    return records


def run_ops(ops: list[Op]) -> tuple[list[tuple], float]:
    """Call every operation in order; return (value, error, seconds) each and the wall time."""
    outcomes = []
    start = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            value, error = op.call(), None
        except Exception as exc:  # any failure is counted, never aborts the pass
            value, error = None, f"{type(exc).__name__}: {exc}"
        outcomes.append((value, error, perf_counter() - t0))
    return outcomes, perf_counter() - start


def run_workload(name: str, seed: int, traced: bool) -> dict:
    tracer = None
    if traced:
        import spans
        tracer = spans.install()
    ops = WORKLOADS[name](seed)  # built after install, so the calls bind the wrappers
    outcomes, wall_s = run_ops(ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = tracer.metrics() if tracer else None  # before judge() adds encode calls
    return {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
            "ops": judge(ops, outcomes), "trace": layers}
