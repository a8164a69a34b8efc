"""Exception types, the package's one resource guard and its one integer check.

The command line maps these onto distinct exit codes, so library code
should raise the most specific one that applies rather than a bare ValueError.
Size limits are checked by :func:`guard` alone, integers by :func:`integers`.
"""

import numbers

import numpy as np


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
    """Integral numbers below 2^53 as digits, other numbers in %g form, ints past
    the float range too."""
    if isinstance(x, numbers.Integral) and abs(int(x)) < 2**53:
        return str(int(x))
    try:
        x = float(x)
    except OverflowError:  # an int past the float range: %g's exponent form
        from decimal import Decimal  # imported here, on this rare path only

        mantissa, exponent = f"{Decimal(int(x)):.5e}".split("e")
        return f"{mantissa.rstrip('0').rstrip('.')}e{exponent}"
    return str(int(x)) if x.is_integer() and abs(x) < 2.0**53 else f"{x:g}"


def integers(values, what: str) -> np.ndarray:
    """``values`` as an int64 array of its shape, each entry a finite, exactly
    integral number in [-2^63, 2^63); no cast wraps 1e20 or truncates 1.5."""
    arr = np.asarray(values)
    if arr.dtype.kind == "O":  # through Python numbers: ints past 64 bits stay objects
        flat = np.array(arr.ravel().tolist())
        arr = flat.reshape(arr.shape) if flat.shape == (arr.size,) else arr
    kind = arr.dtype.kind
    if kind not in "iufO" or kind == "f" and not np.all(np.isfinite(arr) & (arr == np.floor(arr))):
        raise DomainError(f"{what} must be integral")
    if kind == "O" or kind != "i" and not np.all((arr >= -(2**63)) & (arr < 2**63)):
        raise DomainError(f"{what} must be 64-bit integers")
    return arr.astype(np.int64)
