"""The Hecke side of Theorem 1.1 pinned by sha256: for every prime 5 <= ell <= 109,
r_ell and the closed form m_ell_closed_form at precisions 24 and 240, and the
thm1_1 reports at ell = 23 and 47, window 240. The digests are in
hecke_digests.json beside this file.

test_hecke.py checks every digest with ell <= 47. The deeper primes take about
a minute, nearly all of it building B_delta(j) from a table of powers of j, so
they run as a script:

    PYTHONPATH=src python tests/hecke_golden.py 53 71

which checks every digest with 53 <= ell <= 71 and exits 1 on a mismatch or on
an error while building a document.

The primes 73 <= ell <= 109 are past hecke.MAX_DELTA, which HeckeContext
enforces. Their digests were recorded on the same path with MAX_DELTA lifted
in the recording process alone: 7.8-11.2 s a document at ell = 73, 140-145 s
at ell = 109 and 47 minutes for all 36 (in process, Python 3.11.7 on a 2-vCPU
VM). They are the reference for a faster closed form, which is to lift the
cap; until then the script prints each of them as unchecked, with the reason
HeckeContext gives, and they do not change its exit code."""

from __future__ import annotations

import hashlib
import json
import os
import sys

from qspt import hecke, verify
from qspt.errors import QsptError
from qspt.hecke import HeckeContext

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hecke_digests.json")


def document(key: str) -> str:
    """The text that key's digest hashes. "r_ell:<ell>@<P>" is the stdout of
    qspt series --name r_ell:<ell> --prec <P>; "m_ell_closed_form:<ell>@<P>" is
    that series' interchange JSON in the same form; "thm1_1:<ell>@<W>" is the
    report's to_dict without runtime_ms, dumped with sorted keys."""
    name, _, prec = key.partition("@")
    kind, _, ell = name.partition(":")
    ell, prec = int(ell), int(prec)
    if kind == "thm1_1":
        doc = verify.verify_thm11(ell, prec).to_dict()
        del doc["runtime_ms"]
        return json.dumps(doc, sort_keys=True) + "\n"
    build = {"r_ell": hecke.r_ell_series, "m_ell_closed_form": hecke.m_ell_closed_form}[kind]
    return json.dumps(build(HeckeContext(ell), prec).to_json_dict(name)) + "\n"


def digest(key: str) -> str:
    return hashlib.sha256(document(key).encode()).hexdigest()


def ell_of(key: str) -> int:
    return int(key.partition("@")[0].partition(":")[2])


def recorded() -> dict[str, str]:
    with open(PATH) as fh:
        return json.load(fh)


def check(lo: int, hi: int) -> int:
    """Print every recorded key with lo <= ell <= hi as ok or MISMATCH, or as
    unchecked when HeckeContext refuses its ell; return 1 on a mismatch, else 0.
    Only HeckeContext's refusal is caught: an error while building a document
    propagates, so the script exits 1 on it."""
    bad = 0
    for key, want in recorded().items():
        if lo <= ell_of(key) <= hi:
            try:
                HeckeContext(ell_of(key))
            except QsptError as exc:
                print(f"{key}: unchecked ({exc})", flush=True)
                continue
            ok = digest(key) == want
            bad += not ok
            print(f"{key}: {'ok' if ok else 'MISMATCH'}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(check(*map(int, sys.argv[1:3])))
