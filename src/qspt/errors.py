"""Exception types shared across the package."""


class QsptError(Exception):
    """Base class for all qspt errors."""


class LeadingZero(QsptError):
    """Inversion (or a negative power) of a series whose leading coefficient is zero."""


class OutOfPrecision(QsptError):
    """A coefficient beyond the exactly-known range was requested."""


class EnumerationLimit(QsptError):
    """A brute-force enumeration was requested beyond its guard."""


class BadSupport(QsptError):
    """A series is not supported on the arithmetic progression an operator requires."""


class BadModulus(QsptError):
    """A quadratic symbol was requested for a modulus that is not an odd prime."""


class UnknownSeries(QsptError):
    """CLI request for a series name outside the registry."""


class UnknownCheck(QsptError):
    """CLI request for a verification check that does not exist."""


class CacheError(QsptError):
    """The series file cache cannot be written."""
