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
import time

from . import forms, hecke, partitions, verify
from .errors import CacheError, QsptError, UnknownCheck, UnknownSeries
from .hecke import HeckeContext
from .series import LaurentSeries

_DEFAULT_WINDOWS = {5: 4800, 7: 2400, 11: 1200}
_DEFAULT_MAX_N = {"thm1_2": 20, "thm1_3": 40, "eq17": 30, "cor1_4": 200, "cor1_5": 20,
                  "congruences": 200}
_VERIFIERS = {"thm1_2": verify.verify_thm1_2, "thm1_3": verify.verify_thm1_3,
              "eq17": verify.verify_eq17, "cor1_5": verify.verify_cor1_5}


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
    try:
        stored, series = LaurentSeries.load(os.path.join(d, prefix + f"{best}.json"), precision)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError):
        return None  # an entry that cannot be read, or is not a series document
    # a file holding another series, or too few coefficients for the request, is a miss
    if stored != name or series.precision < precision:
        return None
    return series


def _cache_store(name: str, series: LaurentSeries) -> None:
    d = cache_dir()
    path = os.path.join(d, name.replace(":", "_") + f"__{series.precision}.json")
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(series.to_json_dict(name), fh)
                fh.write("\n")
            os.replace(tmp, path)
        except OSError:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise CacheError(f"cannot write the series cache {d!r}: {exc}") from exc


def build_series(name: str, precision: int) -> LaurentSeries:
    """Construct any named series. The name is resolved before the file cache
    is consulted, so the cache never answers for an unknown name."""
    kind, _, ell = name.partition(":")
    if name in forms._CONSTRUCTORS:
        build = forms._CONSTRUCTORS[name]
    elif name == "mplus":
        build = hecke.m_plus
    elif name == "spt_gen24":
        build = hecke.spt_gen24
    elif kind == "m_ell" and ell.isdecimal():
        ctx = HeckeContext(int(ell))
        build = lambda prec: hecke.m_ell(ctx, prec)
    elif kind == "r_ell" and ell.isdecimal():
        ctx = HeckeContext(int(ell))
        build = lambda prec: hecke.r_ell_series(ctx, prec)
    else:
        raise UnknownSeries(f"unknown series name {name!r}")
    cached = _cache_lookup(name, precision)
    if cached is not None:
        return cached
    series = build(precision)
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
    if name == "s":
        values = [(n, partitions.s_fn(n)) for n in range(1, max_n + 1)]
    elif name == "c_formula":
        t = partitions.c_formula_tables(max_n)
        values = [(n, partitions.c_formula(n, t)) for n in range(1, max_n + 1)]
    else:
        col = getattr(partitions.stat_tables(max_n), name)
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
    """Dispatch one verification and return its report; each check fetches
    the tables it reads from partitions.stat_tables."""
    if check in ("thm1_1", "eq9_mod_ell"):
        ctx = HeckeContext(ell)
        window = window or _DEFAULT_WINDOWS.get(ell, 1200)
        verifier = hecke.verify_thm11 if check == "thm1_1" else hecke.verify_mod_ell
        return verifier(ctx, window)
    if check == "internal_identities":
        return verify.verify_internal_identities()
    if check not in _DEFAULT_MAX_N:
        raise UnknownCheck(f"unknown check {check!r}")
    max_n = max_n or _DEFAULT_MAX_N[check]
    if check in _VERIFIERS:
        return _VERIFIERS[check](max_n)
    family = "all" if check == "congruences" else check
    return partitions.check_congruences(family, max_n, ell=ell, m=m, sign=sign)


def cmd_verify(args) -> int:
    t0 = time.monotonic()  # the check's own table builds fall inside its runtime
    rep = run_check(args.check, ell=args.ell, m=args.m, max_n=args.max_n,
                    window=args.window, sign=args.sign_convention)
    rep.runtime_ms = int((time.monotonic() - t0) * 1000)
    print(json.dumps(rep.to_dict(), indent=2))
    print(f"{rep.check}: {rep.status} ({len(rep.mismatches)} mismatches, "
          f"{rep.runtime_ms} ms)", file=sys.stderr)
    return 0 if rep.passed else 1


def _positive(text: str) -> int:
    """argparse type for --prec, --max-n, --window and --m: an integer >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qspt",
                                 description="Exact q-series identities: build, export, verify.")
    sub = ap.add_subparsers(dest="command", required=True)

    ser = sub.add_parser("series", help="write a named series in interchange JSON")
    ser.add_argument("--name", required=True)
    ser.add_argument("--prec", type=_positive, required=True)
    ser.add_argument("--out")
    ser.set_defaults(func=cmd_series)

    tab = sub.add_parser("table", help="export a statistic table")
    tab.add_argument("--name", required=True, choices=_TABLES)
    tab.add_argument("--max-n", type=_positive, required=True)
    tab.add_argument("--format", choices=("csv", "json"), default="csv")
    tab.add_argument("--out")
    tab.set_defaults(func=cmd_table)

    ver = sub.add_parser("verify", help="run a verification check")
    ver.add_argument("check", choices=("thm1_1", "thm1_2", "thm1_3", "eq17",
                                       "cor1_4", "cor1_5", "eq9_mod_ell",
                                       "congruences", "internal_identities"))
    ver.add_argument("--ell", type=int, default=5)
    ver.add_argument("--m", type=_positive, default=1)
    ver.add_argument("--max-n", type=_positive)
    ver.add_argument("--window", type=_positive)
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
