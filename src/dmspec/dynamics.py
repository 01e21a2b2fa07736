"""Exact arithmetic for the doubling map and its backward extensions.

The base dynamics is omega -> 2*omega (mod 1) on the circle.  Periodic points
are rationals k/(2^p - 1); all orbit arithmetic is done on reduced integer
fractions so that iteration is exact.  Backward orbits, which the forward map
does not determine, are parameterized by a binary digit sequence choosing one
preimage per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import CapacityExceeded, InvalidParameter, MissingDigits

#: largest period whose orbit table fits int64: a numerator below 2^p - 1,
#: doubled once, stays below 2^(p+1) <= 2^62
TABLE_PERIOD = 61
#: candidates examined at once by orbit_table; bounds its memory
ORBIT_BLOCK = 1 << 15


@dataclass(frozen=True)
class CirclePoint:
    """A point of the circle stored as a reduced fraction in [0, 1)."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.denominator <= 0:
            raise InvalidParameter(f"denominator must be positive, got {self.denominator}")
        num = self.numerator % self.denominator
        g = math.gcd(num, self.denominator)
        object.__setattr__(self, "numerator", num // g)
        object.__setattr__(self, "denominator", self.denominator // g)

    @classmethod
    def from_fraction(cls, value: Fraction) -> "CirclePoint":
        return cls(value.numerator, value.denominator)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def as_float(self) -> float:
        return self.numerator / self.denominator

    def __float__(self) -> float:
        return self.as_float()


@dataclass(frozen=True)
class PeriodicOrbit:
    """A periodic orbit of the doubling map, stored from its smallest point."""

    period: int
    points: tuple[CirclePoint, ...]

    def potential_values(self, f) -> list[float]:
        """Sampling-function values along the orbit, starting at points[0]; f is called once."""
        return np.asarray(f([p.as_float() for p in self.points]), dtype=float).tolist()

    def sided_potentials(self, f) -> list[tuple[str, list[float]]]:
        """The periodic potentials of the hull that this orbit carries, labelled.

        The first is the right-continuous potential f(T^n w), under label().
        When an orbit point lies on a breakpoint of f and the left-limit
        potential f(T^n w-) differs, it follows under label() + "-": it is the
        limit of f(T^n w') as w' -> w from the left, since every T^n is
        locally increasing and so moves all orbit points to their left sides
        at once.
        """
        right = self.potential_values(f)
        out = [(self.label(), right)]
        w = [p.as_float() for p in self.points]
        if f.breakpoint_mask(w).any():
            left = np.asarray(f.left_limit(w), dtype=float).tolist()
            if left != right:
                out.append((self.label() + "-", left))
        return out

    def label(self) -> str:
        p0 = self.points[0]
        return f"{p0.numerator}/{p0.denominator}"


def map_forward(point: CirclePoint, steps: int = 1) -> CirclePoint:
    """Apply the doubling map exactly: numerator -> numerator * 2^steps mod denominator."""
    if steps < 0:
        raise InvalidParameter("steps must be nonnegative")
    num = point.numerator * pow(2, steps, point.denominator) % point.denominator
    return CirclePoint(num, point.denominator)


def check_period(max_period: int) -> None:
    """Raise unless the int64 orbit tables, the only capacity bound, reach max_period.

    CirclePoint arithmetic uses Python ints; a huge max_period fails at once.
    """
    if max_period < 1:
        raise InvalidParameter("max_period must be >= 1")
    if max_period > TABLE_PERIOD:
        raise CapacityExceeded(
            f"2^(p+1) exceeds the int64 orbit table for p = {max_period}; "
            f"max period is {TABLE_PERIOD}"
        )


def orbit_table(period: int) -> np.ndarray:
    """The orbits of minimal period exactly `period`, one int64 row each.

    Row i holds k_i * 2^j mod (2^p - 1) for j = 0 .. p-1, the numerators of
    the orbit of k_i/(2^p - 1), where k_i is the orbit minimum; rows ascend
    in k_i.  A candidate k survives only while every image k * 2^j, j < p,
    stays above k, which both picks the minimum of each orbit and drops
    points of smaller period (whose image returns to k early).  Candidates
    are taken ORBIT_BLOCK at a time, so memory stays bounded at any period.
    """
    check_period(period)
    d = 2 ** period - 1
    minima = []
    for start in range(0, d, ORBIT_BLOCK):
        k = np.arange(start, min(start + ORBIT_BLOCK, d), dtype=np.int64)
        x = k
        for _ in range(period - 1):
            x = x * 2 % d
            alive = x > k
            k, x = k[alive], x[alive]
        minima.append(k)
    table = np.empty((sum(map(len, minima)), period), dtype=np.int64)
    table[:, 0] = np.concatenate(minima)
    for j in range(1, period):
        table[:, j] = table[:, j - 1] * 2 % d
    return table


def enumerate_orbits(max_period: int) -> list[PeriodicOrbit]:
    """All periodic orbits of minimal period <= max_period, each listed once.

    The orbits of period p are the rows of orbit_table(p), stored from
    their smallest point k/(2^p - 1).  The point 1 = 0 read from the left is
    not a separate orbit: a step function's left-limit potentials come from
    PeriodicOrbit.sided_potentials.
    """
    check_period(max_period)
    orbits = []
    for p in range(1, max_period + 1):
        d = 2 ** p - 1
        for row in orbit_table(p).tolist():
            points = tuple(CirclePoint(q, d) for q in row)
            orbits.append(PeriodicOrbit(period=p, points=points))
    return orbits


class BackwardDigits:
    """A preimage-choice sequence for backward iteration.

    Digit n in {0, 1} selects the branch of the n-th backward step.
    Digits may be given explicitly, drawn from a seeded generator, or both
    (explicit digits first, then the generator continues the sequence).
    """

    def __init__(self, digits: Sequence[int] | None = None, seed: int | None = None):
        if digits is None and seed is None:
            raise InvalidParameter("provide explicit digits, a seed, or both")
        self.seed = seed
        self._digits = [int(x) for x in (digits or [])]
        for x in self._digits:
            if not 0 <= x < 2:
                raise InvalidParameter(f"digit {x} outside 0..1")
        self._rng = np.random.default_rng(seed) if seed is not None else None

    def take(self, n: int) -> list[int]:
        """First n digits, extending from the generator when needed."""
        if n > len(self._digits):
            if self._rng is None:
                raise MissingDigits(
                    f"{n} digits requested but only {len(self._digits)} supplied and no seed given"
                )
            extra = self._rng.integers(0, 2, size=n - len(self._digits))
            self._digits.extend(int(x) for x in extra)
        return self._digits[:n]


def extend_backward(anchor, digits: BackwardDigits, n: int):
    """The n-th backward point omega_{-n} determined by the digit sequence.

    Each step inverts the map through the chosen branch,
    omega_{-j} = (omega_{-j+1} + digit_j) / 2, so map_forward(omega_{-n}, n)
    recovers the anchor (exactly for rational anchors).
    """
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    return backward_orbit(anchor, digits, n)[-1]


def _coordinate(anchor):
    """A CirclePoint or Fraction anchor as a Fraction in [0, 1); any other as a float in [0, 1)."""
    if isinstance(anchor, CirclePoint):
        return anchor.as_fraction()
    return anchor % 1 if isinstance(anchor, Fraction) else float(anchor) % 1.0


def backward_orbit(anchor, digits: BackwardDigits, n: int) -> list:
    """[omega_{-1}, ..., omega_{-n}] along the digit-selected preimage chain."""
    x = _coordinate(anchor)
    out = []
    for dig in digits.take(n):
        x = (x + dig) / 2
        out.append(x)
    return [CirclePoint.from_fraction(x) for x in out] if isinstance(anchor, CirclePoint) else out


def solenoid_forward(anchor, fiber: tuple[float, float], lam: float):
    """One application of the solid-torus contraction over the doubling map.

    (omega, x, y) -> (2*omega, lam*x + cos(2*pi*omega)/2, lam*y + sin(2*pi*omega)/2).
    The circle coordinate evolves independently of the fiber; the fiber records
    the history that forward data alone cannot see.
    """
    if not 0.0 < lam < 0.5:
        raise InvalidParameter(f"lambda must lie in (0, 1/2), got {lam}")
    x, y = fiber
    w = _coordinate(anchor)
    new_anchor = (w * 2) % 1
    if isinstance(anchor, CirclePoint):
        new_anchor = CirclePoint.from_fraction(new_anchor)
    c, s = math.cos(2 * math.pi * float(w)), math.sin(2 * math.pi * float(w))
    return new_anchor, (lam * x + 0.5 * c, lam * y + 0.5 * s)
