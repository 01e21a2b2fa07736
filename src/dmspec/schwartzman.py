"""Rotation numbers of stable sections through the interpolated cocycle.

The one-step matrix is joined to the identity by the smooth path of
interpolated_step; following a direction field through that path and summing
lifted argument increments (in closed form, with the substep lift of
argument_winding_step as its oracle) measures the asymptotic winding rate.
Applied to the stable section of a hyperbolic energy, the winding rate is the
gap label's complement: it equals 1 - k(E), and for potentials generated by
the doubling map with continuous sampling it can only take integer values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .cocycle import (
    DEPTH,
    PASS_ENTRIES,
    Direction,
    _line_angle,
    _pow2_rescaled,
    _rescale_interval,
    _site_rows,
    _stable_core,
    dichotomy_test,
    rotation_profile,
    scaling_profile,
    step_matrix,
)
from .errors import DmspecError, InvalidParameter, LiftingAmbiguity, NotHyperbolic
from .sampling import BLOCK_ENTRIES, SamplingFunction, _finite_energies, spawned_potentials

PI = math.pi

#: folded sub-increments beyond this fraction of pi/2 are treated as
#: ambiguous: folding wraps true quarter-turn-plus motions to small apparent
#: ones, so only near-boundary values are observable evidence of trouble
AMBIGUITY_FRACTION = 0.9
#: rotation_number checks every RESIDUAL_STRIDE-th site against its oracles
RESIDUAL_STRIDE = 64
#: the most substeps rotation_number's winding oracle takes at one site
ORACLE_ENTRIES = 2 ** 20


@dataclass
class RotationEstimate:
    """Winding-rate estimate with convergence diagnostics."""

    value: float
    stderr: float
    steps_used: int
    omega_samples: int
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
    """Lifted argument change of the interpolation path on a substep grid, batched over sites.

    pots, x, y are aligned 1-d arrays: site n follows the direction (x_n, y_n)
    through t in [0, 1].  On the rotation half the lift is the profile itself;
    on the scaling half angles come from atan2 and increments are folded into
    (-pi/2, pi/2], which is unambiguous while the true motion per substep
    stays below a quarter turn.  The sites are taken in chunks of at most
    BLOCK_ENTRIES (site, substep) entries.
    """
    pots = np.asarray(pots, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t = np.linspace(0.0, 1.0, substeps + 1)
    half = int(np.count_nonzero(t <= 0.5))  # the rotation half is t[:half]
    theta = rotation_profile(t[:half])
    lam = scaling_profile(t[half:])

    out = np.empty(len(pots))
    rows = max(1, BLOCK_ENTRIES // substeps)
    for start in range(0, len(pots), rows):
        v, xs, ys = (a[start:start + rows] for a in (pots, x, y))
        angles = np.empty((len(v), substeps + 1))
        angles[:, :half] = np.arctan2(ys, xs)[:, None] + theta[None, :]
        u = lam[None, :] * ((E - v) * xs)[:, None] - ys[:, None]
        angles[:, half:] = np.arctan2(np.broadcast_to(xs[:, None], u.shape), u)

        # d = pi/2 - mod(pi/2 - d, pi), in place; the mod is taken only outside
        # [0, pi), as inside it only turns -0 into +0, which pi/2 - . ignores
        d = np.diff(angles, axis=1)
        np.subtract(PI / 2, d, out=d)
        wrap = (d < 0.0) | (d >= PI)
        d[wrap] = np.mod(d[wrap], PI)
        np.subtract(PI / 2, d, out=d)
        bad = np.argwhere(np.abs(d) >= AMBIGUITY_FRACTION * PI / 2)
        if len(bad):
            n, j = bad[0]
            raise LiftingAmbiguity(
                f"winding sub-increment {d[n, j]:.3f} at site {start + n}, substep {j + 1} "
                f"of {substeps}, is past {AMBIGUITY_FRACTION} pi/2: the lift is ambiguous")
        out[start:start + rows] = d.sum(axis=1)
    return out


def _winding_closed(E, pots, x, y):
    """Lifted argument change of the interpolation path, in closed form, elementwise.

    The rotation half turns (x, y) by exactly pi/2, to (-y, x).  On the
    scaling half the image (lam (E - v) x - y, x) moves along a horizontal
    segment that misses the origin when x != 0, so its lift is the signed
    angle between the segment's ends.  Invariant under (x, y) -> (c x, c y).
    """
    t = E - pots
    return PI / 2 + np.arctan2(-t * x * x, x * x + y * y - t * x * y)


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


def _stable_sweep(E, pots: np.ndarray):
    """The stable directions of each row of pots (rows, L) at sites 0 .. L - DEPTH - 1, unnormalized.

    E is one energy or K of them, which sweep the rows once per energy,
    energy by energy, into K * rows rows.  The last site's direction is the
    most contracted one of the DEPTH steps from it (_stable_core); the sweep
    L_n = A_n^-1 L_{n+1} pulls it back to site 0, so every site sees at
    least DEPTH steps ahead.  With t_n = E - v_n it is the three-term
    recurrence u_n = t_n u_{n+1} - u_{n+2}, (x_n, y_n) being (u_{n+1}, u_n)
    normalized (_unit_directions).  u is rescaled by exact powers of two
    every _rescale_interval steps, so its directions do not depend on the
    interval.  Returns the buffer u (L - DEPTH + 1, K * rows), site by site,
    and the seams: the pairs (n + 1, e) of each rescale at n by 2^-e, whose
    site n + 1 mixes two scales.
    """
    # row n holds t_n of every row until the sweep puts u_n in its place
    u = _site_rows(E, pots)
    m = u.shape[0] - DEPTH
    every = _rescale_interval(u)
    u[m], u[m - 1] = _stable_core(E, pots[:, -DEPTH - 1 : -1])[0].T
    # a rescale at n scales u_n, u_{n+1} by 2^-e but not u_{n+2}: site n + 1 is a seam
    seams = []
    rows = list(u)
    for n in range(m - 2, -1, -1):
        np.multiply(rows[n], rows[n + 1], rows[n])
        np.subtract(rows[n], rows[n + 2], rows[n])
        if (m - 1 - n) % every == 0:
            (pair,), e = _pow2_rescaled(u[n:n + 2])
            u[n:n + 2] = pair
            seams.append((n + 1, e))
    return u[:m + 1], seams


def _unit_directions(u, seams, cols):
    """The unit stable directions (x, y) of the columns cols of _stable_sweep's buffer u, as
    two (len(cols), len(u) - 1) arrays: (u_{n+1}, u_n) / sqrt(u_{n+1}^2 + u_n^2) at site n.

    Power-of-two scalings change none of their bits.  A seam mixes two scales,
    which may under- or overflow in the first pass, and is redone from its
    exponents.
    """
    x, y = u[1:, cols], u[:-1, cols]
    with np.errstate(all="ignore"):
        r = x * x
        r += y * y
        np.sqrt(r, out=r)
        unit_x, unit_y = np.empty((2, x.shape[1], x.shape[0]))
        np.divide(x, r, out=unit_x.T)
        np.divide(y, r, out=unit_y.T)
    if seams:
        at = [n for n, _ in seams]
        a, b = x[at], np.ldexp(y[at], np.array([e[cols] for _, e in seams]))
        r = np.sqrt(a * a + b * b)
        unit_x.T[at], unit_y.T[at] = a / r, b / r
    return unit_x, unit_y


def rotation_number(
    f: SamplingFunction,
    E,
    omega_samples: int = 32,
    steps: int = 2000,
    seed: int = 0,
) -> RotationEstimate | list[RotationEstimate | DmspecError]:
    """Winding rate of the stable section along random forward orbits.

    The stable directions of all omega samples come from one backward sweep
    (_stable_sweep), and each site's winding from its closed form
    (_winding_closed).  max_reanchor_residual bounds how closely the followed
    directions reproduce the section: the largest angle, as the arcsine of
    a cross product, of the invariance A_n L_n = L_{n+1} at every site and
    of the windowed _stable_core directions at every RESIDUAL_STRIDE-th
    site.  At those sites winding_oracle_dev compares the closed form with
    the substep lift of _winding_core, whose 64 (1 + floor(|E - v| / 16))
    substeps at each site keep every sub-increment below a quarter turn
    (|d angle / dt| <= 4 |E - v|).  An energy whose oracle would need more
    than ORACLE_ENTRIES substeps at a site fails with InvalidParameter.

    Two arrays of (samples, sites) entries are held at full size: the
    potentials and the sweep buffer.  Every other temporary, in the draw,
    the estimate and the oracle, is a block of at most BLOCK_ENTRIES
    entries, and no result depends on that size.

    E is one energy or a sequence of them.  A sequence shares one dichotomy
    pretest, one draw of the omega samples and one backward sweep per
    PASS_ENTRIES (site, row) entries, and gives a list in the order of E:
    each energy's estimate, equal to the one it gets alone, or the error it
    would raise alone (NotHyperbolic, or the DmspecError of its estimate),
    so one failed energy does not sink the others.  A float returns its
    estimate or raises its error, as before.  A non-finite energy raises
    InvalidParameter.
    """
    if steps < 1 or omega_samples < 1:
        raise InvalidParameter("steps and omega_samples must be >= 1")
    energies = _finite_energies(E)
    reports = dichotomy_test(f, energies, seed=seed)
    failures = [None if report.is_hyperbolic else (
        f"E = {float(e)} failed the dichotomy pretest "
        f"(diagnostics: {report.diagnostics}); the stable section and its "
        f"rotation number are undefined inside the spectrum"
    ) for e, report in zip(energies, reports)]
    if np.ndim(E) == 0 and failures[0]:
        raise NotHyperbolic(failures[0])
    out = [failure and NotHyperbolic(failure) for failure in failures]
    hyperbolic = [i for i, failure in enumerate(failures) if failure is None]
    if hyperbolic:
        pots = spawned_potentials(f, seed, omega_samples, steps + DEPTH + 1)
        # one block of omega_samples rows per hyperbolic energy, at most
        # PASS_ENTRIES entries a sweep
        per_sweep = max(1, PASS_ENTRIES // pots.size)
        for start in range(0, len(hyperbolic), per_sweep):
            chunk = hyperbolic[start:start + per_sweep]
            u, seams = _stable_sweep(energies[chunk], pots)
            for j, i in enumerate(chunk):
                try:
                    out[i] = _estimate(energies[i], pots, u, seams, omega_samples * j,
                                       reports[i].growth_rate)
                except DmspecError as exc:
                    if np.ndim(E) == 0:
                        raise
                    out[i] = exc
            del u  # freed before the next sweep builds its buffer
    return out if np.ndim(E) else out[0]


def _estimate(E, pots, u, seams, first, growth_rate: float) -> RotationEstimate:
    """The winding rate at E along pots (rows, steps + DEPTH + 1) of the stable directions
    in the columns first .. first + len(pots) - 1 of _stable_sweep's buffer u.

    The rows are read a block of at most BLOCK_ENTRIES (row, site) entries at
    a time: each block's directions, closed-form windings and row sums, its
    sites on the stride and its largest invariance residual.  Every step is
    elementwise or runs over whole rows, so the blocks change no bit.
    """
    omega_samples, steps = pots.shape[0], pots.shape[1] - DEPTH - 1
    sites = np.arange(0, steps, RESIDUAL_STRIDE)
    v = pots[:, sites].ravel()
    reach = np.abs(E - v)
    substeps = 64 * (1 + float(reach.max()) // 16)  # nan for an infinite reach
    if not substeps <= ORACLE_ENTRIES:
        raise InvalidParameter(f"E = {E}: max|E - v| = {reach.max():.3g} needs {substeps:.3g} "
                               f"winding oracle substeps, more than {ORACLE_ENTRIES}")

    values = np.empty(omega_samples)
    closed, xs, ys = np.empty((3, omega_samples, len(sites)))
    residuals = []
    rows = max(1, BLOCK_ENTRIES // (steps + 1))
    for start in range(0, omega_samples, rows):
        block = slice(start, min(start + rows, omega_samples))
        x, y = _unit_directions(u, seams, slice(first + block.start, first + block.stop))
        deltas = _winding_closed(E, pots[block, :steps], x[:, :steps], y[:, :steps])
        values[block] = deltas.sum(axis=1) / (PI * steps)
        closed[block], xs[block], ys[block] = deltas[:, sites], x[:, sites], y[:, sites]
        # the image A_n (x_n, y_n) = (t_n x_n - y_n, x_n) against (x_{n+1}, y_{n+1})
        x0, y0 = x[:, :-1], y[:, :-1]
        residuals.append(_line_angle((E - pots[block, :steps]) * x0 - y0, x0, x[:, 1:], y[:, 1:]).max())
    xs, ys = xs.ravel(), ys.ravel()

    # each site takes its own substeps, one _winding_core pass per distinct count
    budgets = 64 * (1 + reach // 16)
    oracle = np.empty(len(v))
    for budget in np.unique(budgets):
        at = budgets == budget
        oracle[at] = _winding_core(E, v[at], xs[at], ys[at], int(budget))

    # the windowed directions at the strided sites
    windows = pots[:, sites[:, None] + np.arange(DEPTH)].reshape(-1, DEPTH)
    vec = _stable_core(E, windows)[0]
    residual = max(np.max(residuals), _line_angle(xs, ys, *vec.T).max())
    return RotationEstimate(
        value=float(values.mean()),
        stderr=float(values.std(ddof=1) / math.sqrt(omega_samples)) if omega_samples > 1 else 0.0,
        steps_used=steps,
        omega_samples=omega_samples,
        diagnostics={
            "max_reanchor_residual": float(residual),
            "growth_rate": growth_rate,
            "winding_method": "closed_form",
            "winding_oracle_dev": float(np.abs(oracle - closed.ravel()).max()),
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
