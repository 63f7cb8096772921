"""The argument check shared by the public constructors and entry points."""

from __future__ import annotations

from numbers import Integral


def check_int(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an ``int``, if it is an integer from ``low`` to ``high``.

    Anything else raises a :class:`ValueError` naming ``name``: a float
    (``2.5``, NaN, an infinity, even ``5.0``), a bool, or an integer out
    of range.  numpy integers are :class:`numbers.Integral`, so they pass
    without this module importing numpy.
    """
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low \
            or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"from {low} to {high}"
        raise ValueError(f"{name} must be an int {bound}, got {value!r}")
    return int(value)
