"""Exception hierarchy shared across the package, and the argument checks
that every entry point, the CLI's included, makes before any work."""

import math
import numbers
from collections.abc import Hashable

import numpy as np


class WavekernelError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(WavekernelError):
    """Input data is malformed (non-finite values, too short, ...)."""


class ShapeError(WavekernelError):
    """Array lengths or pyramid structure are inconsistent."""


class LevelError(WavekernelError):
    """Requested decomposition levels are out of range."""


class InsufficientHistoryError(WavekernelError):
    """Not enough past segments to form a prediction."""


class ConfigError(WavekernelError):
    """Invalid configuration (bad bandwidth, empty grid, bad CLI flags)."""


# ranges the library and the CLI share: Philox seeds, alpha per tail, least B and P
_SEEDS = (0, 1 << 128)
_ALPHAS = (0.0, 0.5)
_MIN_B = 1
_MIN_P = 2
# every int that sizes an array of doubles lies below 2**59: numpy refuses an
# array past 2**63 bytes (2**60 doubles) with a ValueError, and linspace
# rounds a count just below 2**60 up to it
_MAX_SIZE = 1 << 59


def _int(value, name, lo, hi=None, *, error=ConfigError):
    """Raise ``error`` unless ``value`` is an int (no bool) in [lo, hi), or >= lo."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and lo <= int(value) and (hi is None or int(value) < hi)):
        # a power-of-two bound from 2**59 up reads as 2**k, not in 18 or more digits
        big = hi is not None and hi >= _MAX_SIZE and not hi & (hi - 1)
        top = f"2**{hi.bit_length() - 1}" if big else hi
        span = f">= {lo}" if hi is None else f"in [{lo}, {top})"
        raise error(f"{name} must be an int {span}, got {value!r}")


def _real(value, name, lo, hi=math.inf, *, closed=False):
    """Raise ConfigError unless ``value`` is a finite real (no bool) in (lo, hi),
    or >= lo if ``closed``."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and -math.inf < value < math.inf
            and (lo <= value if closed else lo < value < hi)):
        span = (f"a finite real >= {lo}" if closed
                else "positive and finite" if (lo, hi) == (0, math.inf)
                else f"a finite real in ({lo}, {hi})")
        raise ConfigError(f"{name} must be {span}, got {value!r}")


def _choice(value, name, choices, *, error=ConfigError):
    """Raise ``error`` unless ``value`` is a key of ``choices``, a dict or set."""
    if not (isinstance(value, Hashable) and value in choices):
        raise error(f"unknown {name} {value!r}; choose from {sorted(choices)}")


def _finite(name, *arrays):
    """Raise InvalidInputError unless every entry of ``arrays`` is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise InvalidInputError(f"{name} must be finite")


def _floats(value, name, *, error=ShapeError):
    """``value`` as a float array (no copy of one), or ``error``."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise error(f"{name} must be numeric: {exc}") from None
