"""Global numeric configuration.

The package works at a single configurable binary precision (default 128
bits).  All tolerance defaults derive from it as 2**(-precision/2), so a
caller who raises the precision automatically tightens every default
check.  The flat-torus spectral module is the one exception: it decides
its identities, Laplacian kernels and metric independence exactly on
rational coefficients, with no tolerance; it rounds each reported
residual once to a double from an mpmath sum at 113 bits, and forms the
periods of an extracted structure at the working precision.
"""

from __future__ import annotations

import contextlib

import mpmath as mp

DEFAULT_PRECISION = 128

# extra working bits so that results are reliable at the *configured* precision
_GUARD_BITS = 12

_precision = DEFAULT_PRECISION


def set_precision(bits: int) -> None:
    """Set the working precision in binary digits (must be >= 53)."""
    if bits < 53:
        raise ValueError("precision must be at least 53 binary digits")
    global _precision
    _precision = int(bits)


def get_precision() -> int:
    return _precision


def default_tolerance() -> mp.mpf:
    """2**(-p/2) at the configured precision p."""
    with mp.workprec(_precision + _GUARD_BITS):
        return mp.mpf(2) ** (-(_precision // 2))


def resolve_tolerance(tol) -> mp.mpf:
    """Caller-supplied tolerance, or the precision-derived default."""
    if tol is None:
        return default_tolerance()
    return mp.mpf(tol)


@contextlib.contextmanager
def working_precision():
    """Context manager running mpmath at the configured precision."""
    with mp.workprec(_precision + _GUARD_BITS):
        yield


def decimal_digits() -> int:
    """Decimal digits carried by the configured binary precision."""
    return int(_precision * 0.30103) + 2
