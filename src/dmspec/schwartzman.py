"""Rotation numbers of stable sections through the interpolated cocycle.

The one-step matrix is joined to the identity by the smooth path of
interpolated_step; following a direction field through that path and summing
lifted argument increments measures the asymptotic winding rate.  Applied to
the stable section of a hyperbolic energy, the winding rate is the gap label's
complement: it equals 1 - k(E), and for potentials generated by expanding
circle maps with continuous sampling it can only take integer values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .cocycle import (
    Direction,
    _projective_distance,
    _stable_core,
    dichotomy_test,
    rotation_profile,
    scaling_profile,
    step_matrix,
)
from .errors import InvalidParameter, LiftingAmbiguity, NotHyperbolic
from .sampling import SamplingFunction, random_orbit

PI = math.pi

#: folded sub-increments beyond this fraction of pi/2 are treated as
#: ambiguous: folding wraps true quarter-turn-plus motions to small apparent
#: ones, so only near-boundary values are observable evidence of trouble
AMBIGUITY_FRACTION = 0.9


@dataclass
class RotationEstimate:
    """Winding-rate estimate with convergence diagnostics."""

    value: float
    stderr: float
    steps_used: int
    omega_samples: int
    per_step_args: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


class Verdict(Enum):
    INTEGER = "integer"
    NON_INTEGER = "non_integer"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class IntegralityResult:
    verdict: Verdict
    integer: int | None = None


def _winding_core(E, pots, x, y, substeps):
    """Lifted argument change of the interpolation path, batched over sites.

    pots, x, y are aligned 1-d arrays: site n follows the direction (x_n, y_n)
    through t in [0, 1].  On the rotation half the lift is the profile itself;
    on the scaling half angles come from atan2 and increments are folded into
    (-pi/2, pi/2], which is unambiguous while the true motion per substep
    stays below a quarter turn.
    """
    pots = np.asarray(pots, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t = np.linspace(0.0, 1.0, substeps + 1)
    rot = t <= 0.5
    theta = rotation_profile(t[rot])
    lam = scaling_profile(t[~rot])

    base = np.arctan2(y, x)
    angles = np.empty((len(pots), substeps + 1))
    angles[:, rot] = base[:, None] + theta[None, :]
    u = lam[None, :] * ((E - pots) * x)[:, None] - y[:, None]
    w = np.broadcast_to(x[:, None], u.shape)
    angles[:, ~rot] = np.arctan2(w, u)

    d = np.diff(angles, axis=1)
    d = PI / 2 - np.mod(PI / 2 - d, PI)
    if np.any(np.abs(d) >= AMBIGUITY_FRACTION * PI / 2):
        raise LiftingAmbiguity(
            f"a winding sub-increment approached pi/2 with {substeps} substeps; "
            f"increase substeps"
        )
    return d.sum(axis=1)


def argument_winding_step(
    E: float, v: float, dir_in: Direction, substeps: int = 64
) -> tuple[Direction, float]:
    """Follow dir_in through the identity-to-step interpolation at one site.

    Returns the image direction under the full step matrix and the lifted
    argument change along the path, tracked on a uniform t-grid with the
    given number of substeps.
    """
    if substeps < 8:
        raise InvalidParameter("substeps must be >= 8")
    vec = dir_in.vector()
    delta = float(_winding_core(E, [v], [vec[0]], [vec[1]], substeps)[0])
    out = step_matrix(E, v) @ vec
    return Direction.from_vector(out[0], out[1]), delta


def rotation_number(
    f: SamplingFunction,
    E: float,
    omega_samples: int = 32,
    steps: int = 2000,
    substeps: int = 64,
    seed: int = 0,
    depth: int = 60,
    m: int = 2,
) -> RotationEstimate:
    """Winding rate of the stable section along random forward orbits.

    The direction followed at each site is the freshly computed stable
    direction.  Forward propagation repels from the stable section at twice
    the hyperbolicity rate, so every step is re-anchored rather than
    propagated; by the invariance identity that reproduces the section
    exactly, and the re-anchoring residual diagnostic reports how closely.
    """
    if steps < 1 or omega_samples < 1:
        raise InvalidParameter("steps and omega_samples must be >= 1")
    report = dichotomy_test(f, E, depth=depth, seed=seed, m=m)
    if not report.is_hyperbolic:
        raise NotHyperbolic(
            f"E = {E} failed the dichotomy pretest "
            f"(diagnostics: {report.diagnostics}); the stable section and its "
            f"rotation number are undefined inside the spectrum"
        )

    seeds = np.random.SeedSequence(seed).spawn(omega_samples)
    values = np.empty(omega_samples)
    residual_max = 0.0
    deltas_summary = []
    for i, ss in enumerate(seeds):
        orbit = random_orbit(np.random.default_rng(ss), steps + depth + 1, m=m)
        pots = np.asarray(f(orbit), dtype=float)
        windows = np.lib.stride_tricks.sliding_window_view(pots, depth)[: steps + 1]
        _, anchor_angles, _, _ = _stable_core(E, windows)

        xs = np.cos(anchor_angles[:steps])
        ys = np.sin(anchor_angles[:steps])
        prop_angles = np.arctan2(xs, (E - pots[:steps]) * xs - ys)
        resid = _projective_distance(prop_angles, anchor_angles[1 : steps + 1])
        residual_max = max(residual_max, float(np.max(resid, initial=0.0)))
        deltas = _winding_core(E, pots[:steps], xs, ys, substeps)
        deltas_summary.append((deltas / PI).mean())
        values[i] = deltas.sum() / (PI * steps)

    value = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(omega_samples)) if omega_samples > 1 else 0.0
    per_step = np.asarray(deltas_summary)
    return RotationEstimate(
        value=value,
        stderr=stderr,
        steps_used=steps,
        omega_samples=omega_samples,
        per_step_args={
            "mean": float(per_step.mean()),
            "min": float(per_step.min()),
            "max": float(per_step.max()),
        },
        diagnostics={
            "max_reanchor_residual": residual_max,
            "growth_rate": report.growth_rate,
            "substeps": substeps,
        },
    )


def integrality_check(est: RotationEstimate, tol: float = 0.01) -> IntegralityResult:
    """Classify a rotation estimate as an integer, a non-integer, or unclear."""
    nearest = round(est.value)
    dist = abs(est.value - nearest)
    if dist < tol and est.stderr < tol:
        return IntegralityResult(Verdict.INTEGER, int(nearest))
    if dist > 3.0 * max(tol, est.stderr):
        return IntegralityResult(Verdict.NON_INTEGER)
    return IntegralityResult(Verdict.INCONCLUSIVE)
