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
from functools import partial
from itertools import islice

from . import __version__, forms, hecke, partitions, verify
from .arith import from_decimal
from .errors import CacheError, QsptError, UnknownCheck, UnknownSeries
from .hecke import HeckeContext
from .series import LaurentSeries, _pp_count


def cache_dir() -> str:
    return os.environ.get("QSPT_CACHE", ".qspt-cache")


# The first line of every cache entry carries this tag. Bump it whenever a
# constructor's algorithm changes, so that a cache never serves a series an
# older algorithm built.
CACHE_TAG = f"qspt {__version__} cache 1"

# The largest --prec of a series that reads no table (the table-backed mplus,
# spt_gen24, partition_gen24 and m_ell:<prime> meet the row cap instead). At
# 2,400 the slowest such names take 15.2-19.8 s (r_ell:71) and 6.2-7.1 s (alpha,
# 21,736-bit coefficients) in fresh processes, Python 3.11.7 on a 2-vCPU VM.
MAX_SERIES_PREC = 2400


def _cache_path(name: str) -> str:
    return os.path.join(cache_dir(), name.replace(":", "_") + ".qs")


def _cache_lookup(name: str, precision: int) -> LaurentSeries | None:
    """The cached series name truncated below precision, or None on a miss.

    The one entry of a series, <name>.qs, holds a JSON header line (tag, name,
    stride, offset, valuation, precision and the denominator in hex), then one
    line per progression point in [valuation, P), its integer numerator in hex.
    A hit reads only the lines below the requested precision."""
    try:
        with open(_cache_path(name), "rb") as fh:
            head = json.loads(fh.readline())
            if (head["tag"], head["name"]) != (CACHE_TAG, name) or head["precision"] < precision:
                return None  # another algorithm's or another series' entry, or too short
            val, stride = head["valuation"], head["stride"]
            keep = _pp_count(val, precision, stride)
            nums = [int(line, 16) for line in islice(fh, keep)]
        if len(nums) < keep:
            return None
        return LaurentSeries._of(stride, head["offset"], min(val, precision), precision,
                                 nums, int(head["den"], 16))
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError):
        return None  # no entry, or one that cannot be read or is not a series in this layout


def _cache_store(name: str, series: LaurentSeries) -> None:
    """Replace the entry of name by series."""
    d = cache_dir()
    head = {"tag": CACHE_TAG, "name": name, "stride": series.stride, "offset": series.offset,
            "valuation": series.valuation, "precision": series.precision,
            "den": format(series.den, "x")}
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(head) + "\n")
                fh.write("".join(f"{c:x}\n" for c in series._window_nums()))
            os.replace(tmp, _cache_path(name))
        except OSError:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise CacheError(f"cannot write the series cache {d!r}: {exc}") from exc


# Every named series: a name of its own, or <kind>:<ell> for a prime ell.
_SERIES = forms._CONSTRUCTORS | {"mplus": hecke.m_plus, "spt_gen24": hecke.spt_gen24}
_SERIES_OF_ELL = {"m_ell": hecke.m_ell, "r_ell": hecke.r_ell_series}
# These read the partition tables, so the table row cap bounds them, not MAX_SERIES_PREC.
_ROW_CAPPED = ("mplus", "spt_gen24", "partition_gen24", "m_ell")


def build_series(name: str, precision: int) -> LaurentSeries:
    """Construct any named series. The name is resolved, and the precision
    checked against its cap, before the file cache is consulted, so the cache
    never answers for an unknown name or a refused request. A miss replaces
    the entry, so a stale or corrupt one is rebuilt by the first request that
    meets it. An ell is spelt one way, in ASCII digits with no leading zero, so
    that each series has one name and one entry."""
    kind, _, ell = name.partition(":")
    if name in _SERIES:
        build = _SERIES[name]
    elif kind in _SERIES_OF_ELL and ell.isascii() and ell.isdigit() and ell[0] != "0":
        ctx, of_ell = HeckeContext(from_decimal(ell)), _SERIES_OF_ELL[kind]
        build = lambda prec: of_ell(ctx, prec)
    else:
        raise UnknownSeries(f"unknown series name {name!r}")
    if precision > MAX_SERIES_PREC and kind not in _ROW_CAPPED:
        raise QsptError(f"--prec capped at {MAX_SERIES_PREC:,} for {name}, got {precision:,}")
    cached = _cache_lookup(name, precision)
    if cached is not None:
        return cached
    series = build(precision)
    _cache_store(name, series)
    return series


def _emit(doc: str, out: str | None) -> None:
    """Print doc, or write it to the file out; a file that cannot be written is a QsptError."""
    if not out:
        print(doc)
        return
    try:
        with open(out, "w") as fh:
            fh.write(doc + "\n")
    except OSError as exc:
        raise QsptError(f"cannot write {out!r}: {exc}") from exc


def cmd_series(args) -> int:
    series = build_series(args.name, args.prec)
    _emit(json.dumps(series.to_json_dict(args.name)), args.out)
    if args.out:
        print(f"wrote {args.name} (prec {args.prec}) to {args.out}", file=sys.stderr)
    return 0


_TABLES = ("p", "spt", "a", "ustar", "s", "c_formula")


def cmd_table(args) -> int:
    name, max_n = args.name, args.max_n
    rows = range(1, max_n + 1)
    if name == "s":
        partitions.require_table_row(max_n)  # s reads no table, but its rows are capped too
        column = partitions.s_column(max_n)[1:]
    elif name == "c_formula":
        column = hecke.c_formula(max_n)
    elif name == "ustar":
        column = partitions.ustar_column(max_n)[1:]
    else:  # p, spt or a: the one column alone
        column = partitions.column(name, max_n)[1:max_n + 1]
    values = list(zip(rows, column))
    if args.format == "json":
        doc = json.dumps([{"n": n, "value": str(v)} for n, v in values])
    else:
        doc = "n,value\n" + "\n".join(f"{n},{v}" for n, v in values)
    _emit(doc, args.out)
    return 0


_CONGRUENCES = {"ell": 5, "m": 1, "max_n": 200, "sign": "plus"}
CHECKS = {  # each check: (its verifier, {an option it reads: its default})
    "thm1_1": (verify.verify_thm11, {"ell": 5, "window": None}),
    "eq9_mod_ell": (verify.verify_mod_ell, {"ell": 5, "window": None}),
    "thm1_2": (verify.verify_thm1_2, {"max_n": 20}),
    "thm1_3": (verify.verify_thm1_3, {"max_n": 40}),
    "eq17": (verify.verify_eq17, {"max_n": 30}),
    "cor1_4": (partial(verify.check_congruences, "cor1_4"), _CONGRUENCES),
    "cor1_5": (verify.verify_cor1_5, {"max_n": 20}),
    "congruences": (partial(verify.check_congruences, "all"), _CONGRUENCES),
    "internal_identities": (verify.verify_internal_identities, {}),
}
_FLAGS = dict(ell="--ell", m="--m", max_n="--max-n", window="--window", sign="--sign-convention")


def run_check(check: str, *, ell=None, m=None, max_n=None, window=None, sign=None):
    """Run a check of CHECKS, its defaults overlaid by the options given (not None)."""
    if check not in CHECKS:
        raise UnknownCheck(f"unknown check {check!r}")
    verifier, defaults = CHECKS[check]
    given = {k: v for k, v in zip(_FLAGS, (ell, m, max_n, window, sign)) if v is not None}
    unread = [_FLAGS[k] for k in given if k not in defaults]
    if unread:
        raise QsptError(f"{check} does not read {', '.join(unread)}")
    return verifier(**defaults | given)


def cmd_verify(args) -> int:
    t0 = time.monotonic()  # the check's own table builds fall inside its runtime
    rep = run_check(args.check, **{k: getattr(args, k) for k in _FLAGS})
    rep.runtime_ms = int((time.monotonic() - t0) * 1000)
    if not rep.compared:
        raise QsptError(f"{args.check} compared no values: the requested range holds none")
    print(json.dumps(rep.to_dict(), indent=2))
    print(f"{rep.check}: {rep.status} ({len(rep.mismatches)} mismatches of {rep.compared} "
          f"compared, {rep.runtime_ms} ms)", file=sys.stderr)
    return 0 if rep.passed else 1


def _positive(text: str) -> int:
    """argparse type for every number option: an integer >= 1 in ASCII digits."""
    if not (text.isascii() and text.isdecimal()) or int(text) < 1:
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
    ver.add_argument("check", choices=CHECKS)
    ver.add_argument("--ell", type=_positive)
    ver.add_argument("--m", type=_positive)
    ver.add_argument("--max-n", type=_positive)
    ver.add_argument("--window", type=_positive)
    ver.add_argument("--sign-convention", dest="sign", choices=("plus", "minus"))
    ver.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except QsptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout; the output still buffered goes to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before all output was written", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
