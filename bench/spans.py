"""Per-layer tracing installed from outside the ``qspt`` package.

``install()`` replaces public functions and methods of the loaded ``qspt``
modules with timing wrappers.  A function is replaced in every namespace that
binds it (``forms`` imports ``p_table`` by name, ``hecke`` imports
``StatTables``) and in module-level registries such as
``forms._CONSTRUCTORS``, so no call path escapes the trace.  The package source
is never modified; the wrappers live only in the traced child process.

A span's self time is its duration minus the durations of the spans it
encloses.  Statistics gathered after a call (bit lengths, coefficient counts)
are hidden from the enclosing span, so they show only in the traced wall time
and hence in ``trace.overhead_ratio``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter


def _window(series) -> int:
    """Progression points in a series' precision window."""
    if series.precision <= series.valuation:
        return 0
    return -((series.valuation - series.precision) // series.stride)


def _max_bits(series) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in series.coeffs), default=0)


class _CountingWriter:
    """File proxy that counts the characters json.dump writes through it."""

    def __init__(self, fh):
        self.fh = fh
        self.chars = 0

    def write(self, s):
        self.chars += len(s)
        return self.fh.write(s)


class Tracer:
    """Span stack, self times and counters for one traced process."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, time covered by child spans]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.rows: list[int] = []  # rows of every StatTables build, in call order
        self.forms_built: set[tuple[str, int]] = set()

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(args, kwargs, result) runs outside the timing."""
        stack, self_s, counts = self.stack, self.self_s, self.counts

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[frame[0]] += dt - frame[1]
                counts[frame[0] + ".calls"] += 1
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                t1 = perf_counter()
                after(args, kwargs, result)
                if stack:
                    stack[-1][1] += perf_counter() - t1
            return result

        return wrapper

    # ------------------------------------------------------------------
    # statistics gathered after a call

    def _after_mul(self, args, kwargs, result):
        self.counts["series.mul.out_coeffs"] += _window(result)
        bits = _max_bits(result)
        if bits > self.counts["series.mul.max_bits"]:
            self.counts["series.mul.max_bits"] = bits

    def _after_hecke_t(self, args, kwargs, result):
        self.counts["hecke.hecke_t.out_coeffs"] += _window(result)

    def _after_tables(self, args, kwargs, result):
        self.rows.append(result.limit + 1)

    def _after_form(self, name):
        def after(args, kwargs, result):
            key = (name, result.precision)
            if key in self.forms_built:
                self.counts["forms.build.repeats"] += 1
            self.forms_built.add(key)
        return after

    def product(self, fn):
        """Span for LaurentSeries.__mul__/__rmul__: a product of two series is
        ``series.mul``; a scalar rescaling (an int or Fraction operand, which
        __mul__ hands to ``scale``) is ``series.scale``, so it adds nothing to
        the series.mul time, calls, out_coeffs or max_bits."""
        mul = self.span("series.mul", fn, self._after_mul)
        scale = self.span("series.scale", fn)

        def wrapper(a, b):
            return scale(a, b) if isinstance(b, (int, Fraction)) else mul(a, b)

        return wrapper

    def cache_lookup(self, fn):
        """Count cache hits and misses; a hit renames the enclosing cli.miss span."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts["cli.cache.misses" if result is None else "cli.cache.hits"] += 1
            if result is not None and self.stack:
                self.stack[-1][0] = "cli.hit"
            return result
        return wrapper

    def json_proxy(self, count_writes: bool):
        """Stand-in for a module's ``json`` whose dump and load are spans."""
        tracer = self

        def dump(obj, fp, **kwargs):
            w = _CountingWriter(fp)
            json.dump(obj, w, **kwargs)
            tracer.counts["series.json.bytes"] += w.chars
            if count_writes:
                tracer.counts["cli.cache.bytes_written"] += w.chars

        def load(fp, **kwargs):
            text = fp.read()
            tracer.counts["series.json.bytes"] += len(text)
            return json.loads(text, **kwargs)

        class Proxy:
            def __getattr__(self, attr):
                return getattr(json, attr)

        proxy = Proxy()
        proxy.dump = self.span("series.json.encode", dump)
        proxy.load = self.span("series.json.decode", load)
        return proxy

    # ------------------------------------------------------------------
    # metrics

    def metrics(self) -> dict:
        s, c = self.self_s, self.counts
        out_coeffs = c["series.mul.out_coeffs"]
        rows_built = sum(self.rows)
        form_calls = c["forms.build.calls"]
        return {
            "series.mul.self_s": s["series.mul"],
            "series.mul.calls": c["series.mul.calls"],
            "series.mul.out_coeffs": out_coeffs,
            "series.mul.max_bits": c["series.mul.max_bits"],
            "series.invert.self_s": s["series.invert"],
            "series.invert.calls": c["series.invert.calls"],
            "series.add.self_s": s["series.add"],
            "series.json.encode_s": s["series.json.encode"],
            "series.json.decode_s": s["series.json.decode"],
            "series.json.bytes": c["series.json.bytes"],
            "forms.build.self_s": s["forms.build"],
            "forms.build.calls": form_calls,
            "forms.build.repeat_ratio": c["forms.build.repeats"] / form_calls if form_calls else 0.0,
            "jbasis.poly.self_s": s["jbasis.poly"],
            "jbasis.poly.calls": c["jbasis.poly.calls"],
            "jbasis.eval.self_s": s["jbasis.eval"],
            "partitions.spt_table.self_s": s["partitions.spt_table"],
            "partitions.spt_table.calls": c["partitions.spt_table.calls"],
            "partitions.p_table.self_s": s["partitions.p_table"],
            "partitions.a_table.self_s": s["partitions.a_table"],
            "partitions.oracle.self_s": s["partitions.oracle"],
            "partitions.tables.builds": len(self.rows),
            "partitions.tables.rows_built": rows_built,
            "partitions.tables.useful_ratio": max(self.rows) / rows_built if self.rows else 0.0,
            "hecke.m_plus.self_s": s["hecke.m_plus"],
            "hecke.hecke_t.self_s": s["hecke.hecke_t"],
            "hecke.hecke_t.out_coeffs": c["hecke.hecke_t.out_coeffs"],
            "hecke.closed_form.self_s": s["hecke.closed_form"],
            "report.record.calls": c["report.record.calls"],
            "report.record.self_s": s["report.record"],
            "verify.compared_over_computed": c["report.record.calls"] / out_coeffs if out_coeffs else 0.0,
            "cli.cache.hits": c["cli.cache.hits"],
            "cli.cache.misses": c["cli.cache.misses"],
            "cli.cache.bytes_written": c["cli.cache.bytes_written"],
            "cli.hit.self_s": s["cli.hit"],
            "cli.miss.self_s": s["cli.miss"],
            "cli.run_check.self_s": s["cli.run_check"],
        }


def _rebind(replacements: dict, modules) -> None:
    """Swap every binding of a replaced function, in module namespaces and in
    module-level dicts (registries such as forms._CONSTRUCTORS)."""
    by_id = {id(orig): (orig, new) for orig, new in replacements.items()}

    def swap_in(d: dict) -> None:
        for k, v in list(d.items()):
            hit = by_id.get(id(v))
            if hit is not None and hit[0] is v:
                d[k] = hit[1]

    for mod in modules:
        ns = vars(mod)
        swap_in(ns)
        for k, v in list(ns.items()):
            if isinstance(v, dict) and not k.startswith("__"):
                swap_in(v)


def _wrap_method(cls, attr: str, wrap) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(wrap(raw.__func__)))
    else:
        setattr(cls, attr, wrap(raw))


def install() -> Tracer:
    """Wrap the public layers of the loaded qspt package; return the tracer."""
    from qspt import cli, forms, hecke, jbasis, partitions, report, series

    tr = Tracer()
    span = tr.span

    LS = series.LaurentSeries
    # __rmul__ is the same function object as __mul__; each gets its own wrapper.
    _wrap_method(LS, "__mul__", tr.product)
    _wrap_method(LS, "__rmul__", tr.product)
    _wrap_method(LS, "__add__", lambda f: span("series.add", f))
    _wrap_method(LS, "invert", lambda f: span("series.invert", f))
    _wrap_method(LS, "to_json_dict", lambda f: span("series.json.encode", f))
    _wrap_method(LS, "from_json_dict", lambda f: span("series.json.decode", f))
    _wrap_method(partitions.StatTables, "build",
                 lambda f: span("partitions.tables", f, tr._after_tables))
    _wrap_method(report.VerificationReport, "record", lambda f: span("report.record", f))

    replacements = {}
    for name, fn in forms._CONSTRUCTORS.items():
        replacements[fn] = span("forms.build", fn, tr._after_form(name))
    for fn in (jbasis.b_polynomials, jbasis.faber_polynomials):
        replacements[fn] = span("jbasis.poly", fn)
    for fn in (jbasis.eval_at_j24, jbasis.eval_at_series):
        replacements[fn] = span("jbasis.eval", fn)
    for fn in (partitions.p_table, partitions.spt_table, partitions.a_table):
        replacements[fn] = span("partitions." + fn.__name__, fn)
    for fn in (partitions.spt_bruteforce, partitions.ts_sum_bruteforce,
               partitions.ustar_bruteforce):
        replacements[fn] = span("partitions.oracle", fn)
    replacements[hecke.m_plus] = span("hecke.m_plus", hecke.m_plus)
    replacements[hecke.hecke_t] = span("hecke.hecke_t", hecke.hecke_t, tr._after_hecke_t)
    for fn in (hecke.m_ell_closed_form, hecke.r_ell_series):
        replacements[fn] = span("hecke.closed_form", fn)
    replacements[cli.run_check] = span("cli.run_check", cli.run_check)
    replacements[cli.build_series] = span("cli.miss", cli.build_series)
    replacements[cli._cache_lookup] = tr.cache_lookup(cli._cache_lookup)

    _rebind(replacements, [m for n, m in sys.modules.items()
                           if m is not None and (n == "qspt" or n.startswith("qspt."))])
    cli.json = tr.json_proxy(count_writes=True)
    series.json = tr.json_proxy(count_writes=False)
    return tr
