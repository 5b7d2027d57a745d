"""Exception types shared across the package, and the checks that raise
them for integers (ids, capacities, counts) and finite reals (parameters
such as beta and epsilon)."""

import math
from numbers import Real


class MatchstreamError(ValueError):
    """Base class for all library errors."""


class DomainError(MatchstreamError):
    """An element or subset lies outside an oracle's ground set."""


class SizeError(MatchstreamError):
    """An exact routine was asked for an instance above its size cap."""


class PreconditionError(MatchstreamError):
    """A caller violated a documented precondition."""


class InfeasibilityError(MatchstreamError):
    """A constraint produced an impossible configuration."""


class ConfigError(MatchstreamError):
    """Bad experiment, schedule, or instance-file configuration."""


def integers(values, what, error=PreconditionError):
    """``values`` as a list of ints. A value v is taken only when
    int(v) == v and v is not a bool, so 2.0 is 2, while 1.7, NaN, inf,
    "2" and True raise ``error`` naming ``what``, rather than silently
    becoming another id or capacity."""
    raw = list(values)
    try:
        # a bool is dropped, so the lists differ in length
        out = [int(v) for v in raw if v.__class__ is not bool]
    except (TypeError, ValueError, OverflowError):
        out = None
    if out != raw:
        bad = next(v for v in raw if not _integral(v))
        raise error(f"{what} must be integers, got {bad!r}")
    return out


def integer(value, what, error=PreconditionError):
    """One value, checked as ``integers`` checks each."""
    return integers((value,), what, error)[0]


def real(value, what, error=PreconditionError):
    """``value`` as a finite float. A value is taken only when it is a real
    number and not a bool, and its float is finite, so 2 is 2.0, while
    True, "2.5", NaN and inf raise ``error`` naming ``what``, rather than
    silently becoming another number."""
    if isinstance(value, Real) and value.__class__ is not bool:
        try:
            out = float(value)
        except OverflowError:
            out = math.inf
        if math.isfinite(out):
            return out
    raise error(f"{what} must be a finite real number, got {value!r}")


def _integral(value):
    if value.__class__ is bool:
        return False
    try:
        return int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False
