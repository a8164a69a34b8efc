"""Exception types shared across the package, and its one resource guard.

The command line maps these onto distinct exit codes, so library code
should raise the most specific one that applies rather than a bare
ValueError.  Size limits are enforced by :func:`guard` alone.
"""

import numbers


class HorolabError(Exception):
    """Base class for all package-specific failures."""


class DomainError(HorolabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(HorolabError, RuntimeError):
    """An iterative routine failed to reach its tolerance.

    Carries the best estimate achieved so callers can still inspect it.
    """

    def __init__(self, message: str, estimate: float | None = None):
        super().__init__(message)
        self.estimate = estimate


class ResourceGuardError(HorolabError, RuntimeError):
    """A computation was refused because it would exceed a hard size limit."""


def guard(work, cap, what: str) -> None:
    """Refuse a computation of ``work`` units of ``what`` above ``cap``.

    Every resource guard of the package goes through here, so a refusal
    always reads ``"<work> <what> exceed the cap <cap>"``.  The test is
    ``not work <= cap``, so NaN and infinite counts are refused too.
    """
    if not work <= cap:
        raise ResourceGuardError(f"{_count(work)} {what} exceed the cap {_count(cap)}")


def _count(x) -> str:
    """Integers (and integral floats below 2^53) as digits, other numbers in %g form."""
    if isinstance(x, numbers.Integral):
        return str(x)
    x = float(x)
    return str(int(x)) if x.is_integer() and abs(x) < 2.0**53 else f"{x:g}"
