"""Structured pass/fail records for theorem and congruence checks."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .arith import fraction_str
from .errors import OutOfPrecision


class Mismatch(NamedTuple):
    exponent: int
    lhs: Fraction
    rhs: Fraction

    def to_dict(self) -> dict:
        return {"exponent": self.exponent, "lhs": fraction_str(self.lhs),
                "rhs": fraction_str(self.rhs)}


class VerificationReport:
    """Outcome of one verification run, with per-exponent mismatches."""

    def __init__(self, check: str, parameters: dict | None = None,
                 window: tuple[int, int] = (0, 0)):
        self.check = check
        self.parameters = {} if parameters is None else parameters
        self.window = window
        self.mismatches: list[Mismatch] = []
        self.runtime_ms = 0  # set by cli.cmd_verify around run_check
        self.details: list[str] = []
        self.compared = 0  # values compared: cmd_verify reports it, to_dict leaves it out

    @property
    def status(self) -> str:
        return "pass" if not self.mismatches else "fail"

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def record(self, exponent: int, lhs, rhs) -> None:
        """Compare one pair of values; keep a mismatch entry if they differ."""
        self.compared += 1
        if lhs != rhs:
            self.mismatches.append(Mismatch(exponent, Fraction(lhs), Fraction(rhs)))

    def compare(self, lhs, rhs, lo: int | None = None, hi: int | None = None,
                tag: str | None = None) -> bool:
        """Record both series coefficientwise over [lo, hi); True if they agree.

        The mismatches are the nonzero coefficients of lhs - rhs in the window;
        lo defaults to the lowest exponent present and hi to the jointly
        known window; an hi past that window raises OutOfPrecision. With a
        tag, a "<tag>: ok|MISMATCH" detail line is appended."""
        known = min(lhs.precision, rhs.precision)
        if hi is None:
            hi = known
        elif hi > known:
            raise OutOfPrecision(f"comparison below {hi} requested, known below {known}")
        diff = lhs.truncate(hi) - rhs.truncate(hi)
        if lo is None:
            lo = min(lhs.valuation, rhs.valuation)
        # every point of diff's progression in [lo, hi) is compared, the mismatches among them
        compared = self.compared + max(0, (diff.offset - lo) // diff.stride
                                       - (diff.offset - hi) // diff.stride)
        before = len(self.mismatches)
        for e, _ in diff.terms():
            if e >= lo:
                self.record(e, lhs.coeff(e), rhs.coeff(e))
        self.compared = compared
        ok = len(self.mismatches) == before
        if tag is not None:
            self.details.append(f"{tag}: {'ok' if ok else 'MISMATCH'}")
        return ok

    def to_dict(self) -> dict:
        doc = {
            "check": self.check,
            "parameters": {k: fraction_str(v) if isinstance(v, Fraction) else v
                           for k, v in self.parameters.items()},
            "window": list(self.window),
            "status": self.status,
            "mismatches": [m.to_dict() for m in self.mismatches],
            "runtime_ms": self.runtime_ms,
        }
        if self.details:
            doc["details"] = self.details
        return doc
