"""Structured pass/fail records for theorem and congruence checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import fraction_str
from .errors import OutOfPrecision

_ZERO = Fraction(0)


@dataclass
class Mismatch:
    exponent: int
    lhs: Fraction
    rhs: Fraction

    def to_dict(self) -> dict:
        return {"exponent": self.exponent, "lhs": fraction_str(self.lhs),
                "rhs": fraction_str(self.rhs)}


@dataclass
class VerificationReport:
    """Outcome of one verification run, with per-exponent mismatches."""

    check: str
    parameters: dict = field(default_factory=dict)
    window: tuple[int, int] = (0, 0)
    mismatches: list[Mismatch] = field(default_factory=list)
    runtime_ms: int = 0  # set by cli.cmd_verify around run_check
    details: list[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        return "pass" if not self.mismatches else "fail"

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def record(self, exponent: int, lhs, rhs) -> None:
        """Compare one pair of values; keep a mismatch entry if they differ."""
        if lhs != rhs:
            self.mismatches.append(Mismatch(exponent, Fraction(lhs), Fraction(rhs)))

    def compare(self, lhs, rhs, lo: int | None = None, hi: int | None = None,
                tag: str | None = None) -> bool:
        """Record both series coefficientwise over [lo, hi); True if they agree.

        lo defaults to the lowest exponent present and hi to the jointly
        known window; an hi past that window raises OutOfPrecision. With a
        tag, a "<tag>: ok|MISMATCH" detail line is appended."""
        known = min(lhs.precision, rhs.precision)
        if hi is None:
            hi = known
        elif hi > known:
            raise OutOfPrecision(f"comparison below {hi} requested, known below {known}")
        a = {e: c for e, c in lhs.terms() if (lo is None or e >= lo) and e < hi}
        b = {e: c for e, c in rhs.terms() if (lo is None or e >= lo) and e < hi}
        before = len(self.mismatches)
        for e in sorted(set(a) | set(b)):
            self.record(e, a.get(e, _ZERO), b.get(e, _ZERO))
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
