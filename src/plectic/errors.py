"""Exception hierarchy shared by all plectic modules, and the one guard
through which every JSON document is read."""

import contextlib


class PlecticError(Exception):
    """Base class for every error raised by this package."""


class InputError(PlecticError):
    """Malformed or inconsistent input data (wrong shapes, bad JSON, ...)."""


class DegenerateInputError(PlecticError):
    """Numerically or structurally degenerate input (rank-deficient lattice,
    non-perfect pairing, projection that collapses the lattice, ...)."""


class SearchExhaustedError(PlecticError):
    """A bounded enumeration finished without finding the required witness."""


@contextlib.contextmanager
def reading(what: str):
    """Read one JSON document: a missing key, a value of the wrong type, a
    list too short or a number that does not parse ("1/0" included) becomes
    one `InputError` naming the document.  Wrap only the reading, never the
    constructors the values feed, so that a fault in the library is not
    reported as bad input."""
    try:
        yield
    except KeyError as exc:
        raise InputError(f"{what}: missing {exc}") from exc
    except (TypeError, ValueError, IndexError, ArithmeticError) as exc:
        raise InputError(f"{what}: {str(exc) or type(exc).__name__}") from exc


def json_int(x, strings: bool = False) -> int:
    """A JSON integer that is not a bool; with `strings`, also a decimal
    integer string (the integer-matrix format writes its entries so).
    Anything else, 1.5 or true included, raises TypeError or ValueError
    for `reading` to report."""
    if type(x) is int:
        return x
    if strings and type(x) is str:
        return int(x)
    raise TypeError(f"expected an integer, not {x!r}")
