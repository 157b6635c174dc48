"""Typed checks for configuration fields: a bad count or real-valued
knob ends in a :class:`TypeError` (wrong type) or a :class:`ValueError`
(out of range) that names the field."""

from __future__ import annotations

import math
from numbers import Real
from typing import Optional

import numpy as np


def check_int(name: str, value: object,
              least: Optional[int] = None) -> None:
    """Reject a value that is not a Python or numpy integer (``bool``
    included) with a :class:`TypeError`, and one below ``least`` (when
    given) with a :class:`ValueError`; both name the field."""
    if type(value) is not int and (isinstance(value, bool) or
                                   not isinstance(value, np.integer)):
        raise TypeError(f"{name} must be an int, got "
                        f"{type(value).__name__}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def check_real(name: str, value: object, least: Optional[float] = None,
               positive: bool = False) -> None:
    """Reject a value that is not a real number (``bool`` included)
    with a :class:`TypeError`, and one that is not finite, is below
    ``least`` (when given) or, with ``positive``, is not above 0 with
    a :class:`ValueError`; both name the field."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a number, got "
                        f"{type(value).__name__}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if positive and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
