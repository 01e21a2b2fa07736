"""Sampling functions on the circle and the potentials they generate.

A sampling function is either a trigonometric polynomial (continuous) or a
right-continuous step function.  Potentials are v(n) = f(T^n omega) along the
forward orbit of the doubling map, extended to negative n through a backward
digit sequence.  Every sampling function also evaluates its left limits
f(omega-), which differ from f only on the breakpoints of a step function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dynamics import BackwardDigits, CirclePoint, backward_orbit
from .errors import InvalidParameter, MissingDigits

# Beyond this many forward steps a float anchor has shifted out its entire
# mantissa and plain iteration is meaningless; see forward_orbit.
FLOAT_ITERATION_LIMIT = 45

_MANTISSA_BITS = 53
#: digits spawned_potentials draws and windows at once, whatever the sample count
_SPAWN_DIGITS = 2 ** 15


@dataclass(frozen=True)
class TrigPoly:
    """f(w) = constant + sum_k cos_k * cos(2 pi (k+1) w) + sin_k * sin(2 pi (k+1) w)."""

    constant: float = 0.0
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()

    continuous = True

    def __post_init__(self):
        object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(c) for c in self.sin_coeffs))
        if not all(map(math.isfinite, (self.constant, *self.cos_coeffs, *self.sin_coeffs))):
            raise InvalidParameter("trigpoly coefficients must be finite")

    def __call__(self, omega):
        w = np.mod(np.asarray(omega, dtype=float), 1.0)
        out = np.full_like(w, self.constant)
        for k, c in enumerate(self.cos_coeffs):
            if c:
                out += c * np.cos(2 * np.pi * (k + 1) * w)
        for k, c in enumerate(self.sin_coeffs):
            if c:
                out += c * np.sin(2 * np.pi * (k + 1) * w)
        return out if out.ndim else float(out)

    def left_limit(self, omega):
        """f(omega-); f is continuous, so this is f itself."""
        return self(omega)

    def breakpoint_mask(self, omega) -> np.ndarray:
        """Which points of omega are breakpoints, elementwise; f has none."""
        return np.zeros(np.shape(omega), dtype=bool)


@dataclass(frozen=True)
class Step:
    """Right-continuous step function: f = values[i] on [breakpoints[i], breakpoints[i+1])."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    continuous = False

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        if len(bp) != len(vals) or not bp:
            raise InvalidParameter("breakpoints and values must have equal positive length")
        if not all(map(math.isfinite, bp + vals)):
            raise InvalidParameter("breakpoints and values must be finite")
        if bp[0] != 0.0:
            raise InvalidParameter("first breakpoint must be 0")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])) or bp[-1] >= 1.0:
            raise InvalidParameter("breakpoints must be strictly increasing within [0, 1)")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def __call__(self, omega):
        w = np.mod(np.asarray(omega, dtype=float), 1.0)
        idx = np.searchsorted(self.breakpoints, w, side="right") - 1
        out = np.asarray(self.values)[idx]
        return out if out.ndim else float(out)

    def left_limit(self, omega):
        """f(omega-): the value on the interval that ends at omega.

        At omega = 0 the index -1 wraps to values[-1], the value on the last
        interval [breakpoints[-1], 1).
        """
        w = np.mod(np.asarray(omega, dtype=float), 1.0)
        idx = np.searchsorted(self.breakpoints, w, side="left") - 1
        out = np.asarray(self.values)[idx]
        return out if out.ndim else float(out)

    def breakpoint_mask(self, omega) -> np.ndarray:
        """Which points of omega are exactly a breakpoint, elementwise."""
        w = np.mod(np.asarray(omega, dtype=float), 1.0)
        return np.isin(w, self.breakpoints)


SamplingFunction = TrigPoly | Step


def cosine(lam: float) -> TrigPoly:
    """The standard coupling-lam cosine sampling function 2*lam*cos(2 pi w)."""
    return TrigPoly(constant=0.0, cos_coeffs=(2.0 * lam,))


def bernoulli(lam: float) -> Step:
    """The two-valued function lam on [0, 1/2), 0 on [1/2, 1)."""
    return Step(breakpoints=(0.0, 0.5), values=(lam, 0.0))


#: the keys of each sampling type in the JSON schema
JSON_KEYS = {"trigpoly": ("type", "const", "cos", "sin"), "step": ("type", "breaks", "values")}


def _number(name: str, x, kind: type = float):
    """x as a finite number of the given kind, int or float; a bool is neither."""
    if (isinstance(x, bool) or not isinstance(x, int if kind is int else (int, float))
            or not math.isfinite(x)):
        what = "an integer" if kind is int else "a finite number"
        raise InvalidParameter(f"{name} must be {what}, got {x!r}")
    return kind(x)


def _numbers(name: str, xs, kind: type = float) -> tuple:
    """The JSON list xs as a tuple of finite numbers of the given kind."""
    if not isinstance(xs, list):
        raise InvalidParameter(f"{name} must be a list, got {xs!r}")
    return tuple(_number(f"{name} entry", x, kind) for x in xs)


def from_json(obj: dict) -> SamplingFunction:
    """Parse the sampling-function JSON schema; unknown keys and non-finite numbers raise."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise InvalidParameter("sampling spec must be an object with a 'type' field")
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in JSON_KEYS:
        raise InvalidParameter(f"unknown sampling type {kind!r}")
    unknown = sorted(set(obj) - set(JSON_KEYS[kind]))
    if unknown:
        raise InvalidParameter(
            f"unknown {kind} key(s) {', '.join(unknown)}; valid keys: {', '.join(JSON_KEYS[kind])}")
    if kind == "trigpoly":
        return TrigPoly(
            constant=_number("const", obj.get("const", 0.0)),
            cos_coeffs=_numbers("cos", obj.get("cos", [])),
            sin_coeffs=_numbers("sin", obj.get("sin", [])),
        )
    try:
        return Step(breakpoints=_numbers("breaks", obj["breaks"]),
                    values=_numbers("values", obj["values"]))
    except KeyError as exc:
        raise InvalidParameter(f"step spec missing field {exc}") from exc


@dataclass(frozen=True)
class Potential:
    """Potential values v(n) for n in [n_min, n_max], with their provenance."""

    values: tuple[float, ...]
    n_min: int
    anchor: object
    provenance: str = "forward"

    @property
    def n_max(self) -> int:
        return self.n_min + len(self.values) - 1

    def __getitem__(self, n: int) -> float:
        if not self.n_min <= n <= self.n_max:
            raise IndexError(f"n = {n} outside [{self.n_min}, {self.n_max}]")
        return self.values[n - self.n_min]

    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def __len__(self) -> int:
        return len(self.values)


def _window(digits: np.ndarray, count: int) -> np.ndarray:
    """Orbit values from binary digit streams on the last axis: w_k = 0.d_{k+1} d_{k+2} ...

    Each value reads a 53-digit window, so consecutive points share the
    digits the doubling map says they must share.  Leading axes are batch
    axes.  The windows are built as integers by doubling their length, 1, 2,
    4 ... 32 digits, each length in the narrowest type that holds it, and
    joined 32 + 16 + 4 + 1 as int64; an integer below 2^53 scaled by 2^-53 is
    exact, so w_k is the sum of d_j 2^-j bit for bit.
    """
    w = {1: np.asarray(digits).astype(np.uint8)}
    for n, kind in ((1, np.uint8), (2, np.uint8), (4, np.uint8), (8, np.uint16), (16, np.int64)):
        w[2 * n] = w[n][..., :-n].astype(kind, copy=False) << n | w[n][..., n:]
    joined = (w[32][..., :count] << 21 | w[16][..., 32:32 + count].astype(np.int64) << 5
              | w[4][..., 48:48 + count] << 1 | w[1][..., 52:52 + count])
    return joined * 2.0 ** -_MANTISSA_BITS


def random_orbits(rng: np.random.Generator, samples: int, count: int) -> np.ndarray:
    """Forward orbits of `samples` fresh uniform points, one row of length count each.

    Each point is an i.i.d. uniform binary digit stream (the digits of a
    Lebesgue-random point) read through _window, which keeps the exact joint
    law of the orbit without mantissa exhaustion.  Row i equals the i-th of
    `samples` successive random_orbit calls, and rng ends in the same state.
    """
    return _window(rng.integers(0, 2, size=(samples, count + _MANTISSA_BITS), dtype=np.int64), count)


def random_orbit(rng: np.random.Generator, count: int) -> np.ndarray:
    """Forward orbit of a fresh uniformly distributed point, of length count (see random_orbits)."""
    return random_orbits(rng, 1, count)[0]


def spawned_potentials(f, seed: int, samples: int, count: int) -> np.ndarray:
    """f along random_orbit of one generator per child of SeedSequence(seed).spawn(samples), as rows.

    Rows are drawn, windowed and passed to f in blocks of about _SPAWN_DIGITS
    digits, so the memory they take does not grow with the sample count.
    """
    children = np.random.SeedSequence(seed).spawn(samples)
    block = max(1, _SPAWN_DIGITS // (count + _MANTISSA_BITS))
    out = np.empty((samples, count))
    for i in range(0, samples, block):
        digits = [np.random.default_rng(ss).integers(0, 2, size=count + _MANTISSA_BITS, dtype=np.int64)
                  for ss in children[i:i + block]]
        out[i:i + block] = f(_window(np.stack(digits), count))
    return out


def forward_orbit(omega, count: int) -> np.ndarray:
    """[omega, T omega, ..., T^(count-1) omega] as floats.

    Rational anchors double their numerator exactly mod the denominator.
    Float anchors iterate w -> frac(2 w) directly for FLOAT_ITERATION_LIMIT
    values, then continue the anchor's bits by a generator seeded from its bit
    pattern, a Monte Carlo stand-in justified by the map preserving Lebesgue
    measure.  Deterministic in omega; a longer orbit extends a shorter one.
    """
    if count < 0:
        raise InvalidParameter("count must be nonnegative")
    if isinstance(omega, (CirclePoint, Fraction)):
        num, den = omega.numerator, omega.denominator
        return np.array([num * pow(2, k, den) % den / den for k in range(count)])
    return _float_orbits(np.array([float(omega)]), count)[0]


def _float_orbits(anchors: np.ndarray, count: int) -> np.ndarray:
    """forward_orbit of each float anchor, one row each, the doubling done on all rows at once."""
    anchors = np.mod(anchors, 1.0)
    out = np.empty((len(anchors), count))
    x = anchors
    for k in range(min(count, FLOAT_ITERATION_LIMIT)):
        out[:, k] = x
        x = 2 * x % 1.0
    if count > FLOAT_ITERATION_LIMIT:
        shifts = np.arange(_MANTISSA_BITS - 1, -1, -1)
        lead = (anchors * 2 ** _MANTISSA_BITS).astype(np.int64)[:, None] >> shifts & 1
        # each anchor's generator is seeded by its bit pattern
        tails = [np.random.default_rng(seed).integers(0, 2, size=count, dtype=np.int64)
                 for seed in anchors.view(np.uint64).tolist()]
        digits = np.concatenate([lead, np.reshape(tails, (len(anchors), count))], axis=1)
        out[:, FLOAT_ITERATION_LIMIT:] = _window(digits, count)[:, FLOAT_ITERATION_LIMIT:]
    return out


def potential(
    f: SamplingFunction,
    omega,
    n_min: int = 0,
    n_max: int = 0,
    digits: BackwardDigits | None = None,
) -> Potential:
    """Potential v(n) = f(T^n omega) on the index window [n_min, n_max].

    Negative indices require backward digits selecting the preimage chain.
    """
    if n_min > 0 or n_max < 0 or n_min > n_max:
        raise InvalidParameter("require n_min <= 0 <= n_max")
    if n_min < 0 and digits is None:
        raise MissingDigits("n_min < 0 requires a BackwardDigits sequence")
    fwd = forward_orbit(omega, n_max + 1)
    vals = list(np.atleast_1d(f(fwd)))
    provenance = "forward"
    if n_min < 0:
        back = backward_orbit(omega, digits, -n_min)
        back_vals = [float(f(float(w))) for w in back]
        vals = back_vals[::-1] + vals
        provenance = f"two-sided(seed={digits.seed})"
    return Potential(values=tuple(float(v) for v in vals), n_min=n_min,
                     anchor=omega, provenance=provenance)
