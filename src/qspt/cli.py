"""Command-line front end: build and cache series, run verifications, export tables.

Reports are printed as JSON on stdout, a one-line summary per check goes to
stderr, and the exit code is 0 iff every executed check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import forms, hecke, partitions, verify
from .errors import QsptError, UnknownCheck, UnknownSeries, UnknownTable
from .hecke import HeckeContext
from .partitions import StatTables
from .series import LaurentSeries

_DEFAULT_WINDOWS = {5: 4800, 7: 2400, 11: 1200}
_DEFAULT_MAX_N = {"thm1_2": 20, "thm1_3": 40, "eq17": 30, "cor1_4": 200, "cor1_5": 20,
                  "congruences": 200}

_tables_cache: StatTables | None = None


def _tables(n: int) -> StatTables:
    global _tables_cache
    if _tables_cache is None or _tables_cache.limit < n:
        _tables_cache = StatTables.build(n)
    return _tables_cache


def cache_dir() -> str:
    return os.environ.get("QSPT_CACHE", ".qspt-cache")


def _cache_lookup(name: str, precision: int) -> LaurentSeries | None:
    d = cache_dir()
    if not os.path.isdir(d):
        return None
    prefix = name.replace(":", "_") + "__"
    best = None
    for fn in os.listdir(d):
        if fn.startswith(prefix) and fn.endswith(".json"):
            try:
                prec = int(fn[len(prefix):-5])
            except ValueError:
                continue
            if prec >= precision and (best is None or prec < best):
                best = prec
    if best is None:
        return None
    _, series = LaurentSeries.load(os.path.join(d, prefix + f"{best}.json"))
    return series.truncate(precision)


def _cache_store(name: str, series: LaurentSeries) -> None:
    d = cache_dir()
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, name.replace(":", "_") + f"__{series.precision}.json")
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        json.dump(series.to_json_dict(name), fh)
        fh.write("\n")
    os.replace(tmp, path)


def build_series(name: str, precision: int) -> LaurentSeries:
    """Construct any named series, consulting the file cache first."""
    cached = _cache_lookup(name, precision)
    if cached is not None:
        return cached
    if name in forms._CONSTRUCTORS:
        series = forms._CONSTRUCTORS[name](precision)
    elif name == "mplus":
        series = hecke.m_plus(precision, _tables(precision // 24 + 1))
    elif name == "spt_gen24":
        series = hecke.spt_gen24(precision, _tables(precision // 24 + 1))
    elif name.startswith("m_ell:"):
        ctx = HeckeContext(int(name.split(":", 1)[1]))
        series = hecke.m_ell(ctx, precision,
                             _tables(precision * ctx.ell ** 2 // 24 + 1))
    elif name.startswith("r_ell:"):
        ctx = HeckeContext(int(name.split(":", 1)[1]))
        series = hecke.r_ell_series(ctx, precision)
    else:
        raise UnknownSeries(f"unknown series name {name!r}")
    _cache_store(name, series)
    return series


def cmd_series(args) -> int:
    series = build_series(args.name, args.prec)
    doc = json.dumps(series.to_json_dict(args.name))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc + "\n")
        print(f"wrote {args.name} (prec {args.prec}) to {args.out}", file=sys.stderr)
    else:
        print(doc)
    return 0


_TABLES = ("p", "spt", "a", "ustar", "s", "c_formula")


def cmd_table(args) -> int:
    name, max_n = args.name, args.max_n
    if name not in _TABLES:
        raise UnknownTable(f"unknown table {name!r}")
    if name == "s":
        values = [(n, partitions.s_fn(n)) for n in range(1, max_n + 1)]
    elif name == "c_formula":
        t = _tables(25 * max_n - 1)
        values = [(n, partitions.c_formula(n, t)) for n in range(1, max_n + 1)]
    else:
        t = _tables(max_n)
        col = getattr(t, name)
        values = [(n, col[n]) for n in range(1, max_n + 1)]
    if args.format == "json":
        doc = json.dumps([{"n": n, "value": str(v)} for n, v in values])
    else:
        doc = "n,value\n" + "\n".join(f"{n},{v}" for n, v in values)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc + "\n")
    else:
        print(doc)
    return 0


def run_check(check: str, *, ell: int = 5, m: int = 1, max_n: int | None = None,
              window: int | None = None, sign: str = "plus"):
    """Dispatch one verification and return its report.

    Each check sizes the shared tables from the largest index it reads."""
    if check in ("thm1_1", "eq9_mod_ell"):
        ctx = HeckeContext(ell)
        window = window or _DEFAULT_WINDOWS.get(ell, 1200)
        verifier = hecke.verify_thm11 if check == "thm1_1" else hecke.verify_mod_ell
        return verifier(ctx, window, _tables(window * ell ** 2 // 24 + 1))
    if check == "internal_identities":
        return verify.verify_internal_identities()
    if check not in _DEFAULT_MAX_N:
        raise UnknownCheck(f"unknown check {check!r}")
    max_n = max_n or _DEFAULT_MAX_N[check]
    if check in ("thm1_2", "cor1_5"):
        verifier = verify.verify_thm1_2 if check == "thm1_2" else verify.verify_cor1_5
        return verifier(_tables(25 * max_n - 1), max_n)
    if check in ("thm1_3", "eq17"):
        verifier = verify.verify_thm1_3 if check == "thm1_3" else verify.verify_eq17
        return verifier(_tables(max_n), max_n)
    family = "all" if check == "congruences" else check
    t = _tables(partitions.congruence_rows(family, max_n, ell, m))
    return partitions.check_congruences(family, t, max_n=max_n, ell=ell, m=m, sign=sign)


def cmd_verify(args) -> int:
    rep = run_check(args.check, ell=args.ell, m=args.m, max_n=args.max_n,
                    window=args.window, sign=args.sign_convention)
    print(json.dumps(rep.to_dict(), indent=2))
    print(f"{rep.check}: {rep.status} ({len(rep.mismatches)} mismatches, "
          f"{rep.runtime_ms} ms)", file=sys.stderr)
    return 0 if rep.passed else 1


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qspt",
                                 description="Exact q-series identities: build, export, verify.")
    sub = ap.add_subparsers(dest="command", required=True)

    ser = sub.add_parser("series", help="write a named series in interchange JSON")
    ser.add_argument("--name", required=True)
    ser.add_argument("--prec", type=int, required=True)
    ser.add_argument("--out")
    ser.set_defaults(func=cmd_series)

    tab = sub.add_parser("table", help="export a statistic table")
    tab.add_argument("--name", required=True, choices=_TABLES)
    tab.add_argument("--max-n", type=int, required=True)
    tab.add_argument("--format", choices=("csv", "json"), default="csv")
    tab.add_argument("--out")
    tab.set_defaults(func=cmd_table)

    ver = sub.add_parser("verify", help="run a verification check")
    ver.add_argument("check", choices=("thm1_1", "thm1_2", "thm1_3", "eq17",
                                       "cor1_4", "cor1_5", "eq9_mod_ell",
                                       "congruences", "internal_identities"))
    ver.add_argument("--ell", type=int, default=5)
    ver.add_argument("--m", type=int, default=1)
    ver.add_argument("--max-n", type=int)
    ver.add_argument("--window", type=int)
    ver.add_argument("--sign-convention", choices=("plus", "minus"), default="plus")
    ver.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except QsptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
