"""Extended-real cost values: the reals plus a single absorbing +infinity.

:class:`ExtReal` is what the public functions return.  Inside the package,
values are IEEE floats (+infinity as ``inf``), and one rule in
:mod:`laxhopf.costs` rejects every NaN or -infinity row an evaluator returns.
An ExtReal has no negative infinity; any operation that would need one (or
that receives NaN) raises.
"""

from __future__ import annotations

import math
from functools import total_ordering

from .errors import EvaluationFault, MisuseError


@total_ordering
class ExtReal:
    """A real number or +infinity, with total arithmetic and ordering."""

    __slots__ = ("_value",)

    def __init__(self, value):
        if isinstance(value, ExtReal):
            self._value = value._value
            return
        v = float(value)
        if math.isnan(v):
            raise EvaluationFault("NaN is not an extended-real value")
        if v == -math.inf:
            raise MisuseError("extended reals have no negative infinity")
        self._value = None if v == math.inf else v

    @classmethod
    def infinity(cls) -> "ExtReal":
        out = object.__new__(cls)
        out._value = None
        return out

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    @property
    def value(self) -> float:
        if self._value is None:
            raise MisuseError("infinite ExtReal has no finite value")
        return self._value

    def to_float(self) -> float:
        """IEEE view: math.inf for the infinite element."""
        return math.inf if self._value is None else self._value

    def __add__(self, other) -> "ExtReal":
        other = other if isinstance(other, ExtReal) else ExtReal(other)
        if self._value is None or other._value is None:
            return INF
        return ExtReal(self._value + other._value)

    __radd__ = __add__

    def __mul__(self, scalar) -> "ExtReal":
        s = float(scalar)
        if math.isnan(s):
            raise EvaluationFault("NaN scalar in ExtReal multiplication")
        if self._value is None:
            if s <= 0.0:
                raise MisuseError("cannot scale +infinity by a non-positive factor")
            return INF
        return ExtReal(self._value * s)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtReal):
            try:
                other = ExtReal(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self._value == other._value

    def __lt__(self, other) -> bool:
        other = other if isinstance(other, ExtReal) else ExtReal(other)
        if self._value is None:
            return False
        if other._value is None:
            return True
        return self._value < other._value

    def __hash__(self):
        return hash(self._value)

    def __repr__(self):
        return "ExtReal(+inf)" if self._value is None else f"ExtReal({self._value!r})"


INF = ExtReal.infinity()


def ext_min(values) -> ExtReal:
    """Minimum of an iterable of ExtReal/float; empty input yields +infinity."""
    best = INF
    for v in values:
        v = v if isinstance(v, ExtReal) else ExtReal(v)
        if v < best:
            best = v
    return best


def ext_sum(values) -> ExtReal:
    """Sum of an iterable of ExtReal/float, short-circuiting on +infinity."""
    total = 0.0
    for v in values:
        v = v if isinstance(v, ExtReal) else ExtReal(v)
        if not v.is_finite:
            return INF
        total += v.value
    return ExtReal(total)
