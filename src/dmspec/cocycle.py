"""Transfer-matrix cocycles over the doubling map.

The single-step matrix at energy E over potential value v is
[[E - v, -1], [1, 0]]; products along orbits propagate solutions of the
difference equation.  This module provides products, Floquet discriminants
(by spectrum._discriminant), most-contracted (stable) directions, an
exponential-dichotomy test, and the smooth interpolation of the one-step
matrix to the identity that underlies rotation-number computations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import PeriodicOrbit
from .errors import DegenerateSingularValues, InvalidParameter
from .sampling import SamplingFunction, _finite_energies, forward_orbit, random_orbits
from .spectrum import _discriminant, _sided_rows

#: the default depth of the stable-direction products of dichotomy_test, and
#: the depth of rotation_number's and of verify's digit check
DEPTH = 60
#: singular values closer than this admit no contracted direction
DEGENERACY_GAP = 1e-9
#: most_contracted_direction's bound on its depth vs depth/2 direction distance
DIRECTION_CONV_TOL = 1e-8
#: dichotomy_test's bound on the same distance, which decays like
#: exp(-rate * depth); 1e-5 at DEPTH resolves rates down to about 0.2 (the
#: free case at |E| = 2.05) while leaving in-band energies undetected
DICHOTOMY_CONV_TOL = 1e-5
#: dichotomy_test's bound on the invariance residual of L(w) against A(w)^-1 L(T w)
INVARIANCE_TOL = 1e-6
#: the smallest norm-growth exponent dichotomy_test accepts as hyperbolic
RATE_FLOOR = 1e-3
#: dichotomy_test probes every periodic point of minimal period up to this
PROBE_PERIODS = 8
#: the most entries of the _site_rows buffer of one pass of dichotomy_test or
#: rotation_number, so that it stays bounded however many energies a call asks for
PASS_ENTRIES = 2 ** 18


def step_matrix(E, v) -> np.ndarray:
    """One-step transfer matrix [[E - v, -1], [1, 0]].

    E and v broadcast: arrays of shape S give a stack of shape S + (2, 2).
    """
    t = np.subtract(E, v, dtype=float)
    out = np.zeros(t.shape + (2, 2))
    out[..., 0, 0] = t
    out[..., 0, 1] = -1.0
    out[..., 1, 0] = 1.0
    return out


def cocycle_product(f: SamplingFunction, E: float, omega, n: int) -> np.ndarray:
    """The n-step product A(T^{n-1} omega) ... A(T omega) A(omega)."""
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    pots = np.atleast_1d(f(forward_orbit(omega, n)))
    P = np.eye(2)
    for v in pots:
        P = step_matrix(E, v) @ P
    return P


def discriminant(orbit: PeriodicOrbit, f: SamplingFunction, E):
    """Floquet discriminant: trace of the transfer product over one full period.

    E may be a scalar or an array of any shape; the return matches.  It is
    spectrum._discriminant of the orbit's potential, a monic degree-p polynomial
    in E whose level set {|disc| <= 2} is the periodic spectrum.
    """
    E = np.asarray(E, dtype=float)
    out = _discriminant(np.array([orbit.potential_values(f)]), E.reshape(1, -1))[0].reshape(E.shape)
    return float(out) if E.ndim == 0 else out


@dataclass(frozen=True)
class Direction:
    """A line through the origin, represented by its angle in [0, pi)."""

    angle: float

    def __post_init__(self):
        a = self.angle % math.pi
        if a == math.pi:
            a = 0.0
        object.__setattr__(self, "angle", a)

    @classmethod
    def from_vector(cls, x: float, y: float) -> "Direction":
        return cls(math.atan2(y, x))

    def vector(self) -> np.ndarray:
        return np.array([math.cos(self.angle), math.sin(self.angle)])

    def distance(self, other: "Direction") -> float:
        """Projective distance min(|da|, pi - |da|)."""
        da = abs(self.angle - other.angle)
        return min(da, math.pi - da)


def _line_angle(x1, y1, x2, y2) -> np.ndarray:
    """The angle in [0, pi/2] between the lines through (x1, y1) and (x2, y2), elementwise
    over arrays: the arcsine of |x1 y2 - y1 x2| over the product of the norms."""
    # in place, so that few arrays of the inputs' size are alive at once
    sine2 = x1 * y2
    sine2 -= y1 * x2
    sine2 *= sine2
    norms = x1 * x1
    norms += y1 * y1
    other = x2 * x2
    other += y2 * y2
    norms *= other
    sine2 /= norms
    np.minimum(sine2, 1.0, out=sine2)
    return np.arcsin(np.sqrt(sine2, out=sine2), out=sine2)


def _rescale_interval(t) -> int:
    """Steps between the power-of-two rescales of a transfer recursion with step entries t.

    One step (u, w) <- (t u - w, u) grows the larger of |u|, |w| by at most
    1 + |t| < 2 + max|t|, so rows that start below 1 stay under 2 ** 500, far
    from overflow, for this many steps.  Non-finite entries rescale every step.
    """
    reach = max(np.max(t, initial=0.0), -np.min(t, initial=0.0))  # nan if t holds one
    return max(1, int(500 // math.log2(2.0 + reach))) if reach < math.inf else 1


def _pow2_rescaled(*rows):
    """The 2-d arrays rows scaled, column by column, by the power of two 2 ** -e that
    puts the column's largest |entry| in [0.5, 1), and e.  The scaling is exact, so
    where a linear recursion is rescaled changes none of its bits."""
    _, e = np.frexp(np.abs(np.concatenate(rows)).max(axis=0))
    return [np.ldexp(r, -e) for r in rows], e


def _site_rows(E, pots) -> np.ndarray:
    """E - pots as a C-contiguous (sites, rows) array, built in one pass: row n holds
    E - v_n of every row of pots (rows, sites), for each energy of E in turn."""
    pots = np.asarray(pots, dtype=float)
    rows, sites = pots.shape
    out = np.empty((sites, np.size(E) * rows))
    np.subtract(np.reshape(E, (1, -1, 1)), pots.T[:, None, :], out=out.reshape(sites, -1, rows))
    return out


def _stable_core(E, windows: np.ndarray, checkpoints=()):
    """Most-contracted directions of depth-step products, batched over rows.

    windows has shape (rows, depth): row b holds the potential values
    v_0 .. v_{depth-1} seen along the orbit piece starting at site b.  E is
    one energy or K of them, which take the rows once per energy, energy by
    energy, so the batch is K * rows.  The running product steps unscaled
    and is rescaled by exact powers of two every _rescale_interval steps and
    before each checkpoint, so its bits do not depend on the interval; its
    true largest singular value is recovered
    from the summed exponents (det = 1 pins the smaller one).
    Returns unit vectors (batch, 2) spanning the directions, log sigma_max,
    and per-checkpoint snapshots of (unit vectors, log sigma_max) taken after
    the given numbers of steps.
    """
    steps = _site_rows(E, windows)  # row j holds E - v_j of every window
    depth, batch = steps.shape
    every = _rescale_interval(steps)
    # the running product [[a, b], [c, d]] as its rows (a, b) and (c, d); a step
    # writes the new top into the third buffer, and the three rotate
    top = np.stack([np.ones(batch), np.zeros(batch)])
    bottom = top[::-1].copy()
    spare = np.empty_like(top)
    exponent = np.zeros(batch, dtype=np.int64)
    snaps = {}
    want = set(checkpoints)

    def rescale():
        nonlocal top, bottom, exponent
        (top, bottom), e = _pow2_rescaled(top, bottom)
        exponent += e

    def current_state():
        rescale()
        (a, b), (c, d) = top, bottom
        g11 = a * a + c * c
        g12 = a * b + c * d
        g22 = b * b + d * d
        half = 0.5 * (g11 + g22)
        root = np.sqrt(np.maximum(0.25 * (g11 - g22) ** 2 + g12 * g12, 0.0))
        lmin = np.maximum(half - root, 0.0)
        lmax = half + root
        v1 = np.stack([g12, lmin - g11], axis=-1)
        v2 = np.stack([lmin - g22, g12], axis=-1)
        pick = np.linalg.norm(v1, axis=-1) >= np.linalg.norm(v2, axis=-1)
        vec = np.where(pick[:, None], v1, v2)
        norms = np.linalg.norm(vec, axis=-1, keepdims=True)
        # a degenerate (isotropic) product leaves both candidates zero
        safe = np.where(norms > 0.0, norms, 1.0)
        vec = vec / safe
        vec[norms[:, 0] == 0.0] = np.array([1.0, 0.0])
        log_smax = exponent * math.log(2.0) + 0.5 * np.log(np.maximum(lmax, np.finfo(float).tiny))
        return vec, log_smax

    for j, t in enumerate(steps, 1):
        np.multiply(t, top, spare)
        np.subtract(spare, bottom, spare)
        top, bottom, spare = spare, top, bottom
        if j in want or j == depth:
            state = current_state()
            if j in want:
                snaps[j] = state
        elif j % every == 0:
            rescale()
    return (*state, snaps)


def _degenerate_mask(log_smax):
    """True where sigma_max - sigma_min < DEGENERACY_GAP (sigma_min = 1/sigma_max)."""
    small = log_smax < 5.0
    out = np.zeros_like(log_smax, dtype=bool)
    if np.any(small):
        s = np.exp(log_smax[small])
        out[small] = (s - 1.0 / s) < DEGENERACY_GAP
    return out


def _stable_vectors(f: SamplingFunction, E: float, omegas, depth: int, checkpoints=()):
    """_stable_core's unit vectors and snapshots of the depth-step products at each of omegas.

    Raises DegenerateSingularValues if any product has no contracted direction.
    """
    pots = f(np.array([forward_orbit(omega, depth) for omega in omegas]))
    vec, log_smax, snaps = _stable_core(E, pots, checkpoints=checkpoints)
    if _degenerate_mask(log_smax).any():
        raise DegenerateSingularValues(
            f"singular values of the depth-{depth} product at E = {E} differ by "
            f"less than {DEGENERACY_GAP}; no contracted direction"
        )
    return vec, snaps


def most_contracted_direction(
    f: SamplingFunction,
    E: float,
    omega,
    depth: int,
) -> tuple[Direction, bool]:
    """Direction most contracted by the depth-step product at omega.

    Returns (direction, converged); converged compares the answers at depth
    and depth // 2 in projective distance against DIRECTION_CONV_TOL.  The
    result depends only on the forward orbit of omega.
    """
    if depth < 2:
        raise InvalidParameter("depth must be >= 2")
    half = depth // 2
    vec, snaps = _stable_vectors(f, E, [omega], depth, checkpoints=(half,))
    converged = bool(_line_angle(*vec.T, *snaps[half][0].T)[0] < DIRECTION_CONV_TOL)
    return Direction.from_vector(*vec[0]), converged


@dataclass
class DichotomyReport:
    """Verdict and diagnostics of the uniform-hyperbolicity sampling test."""

    is_hyperbolic: bool
    growth_rate: float
    prefactor: float
    diagnostics: dict = field(default_factory=dict, kw_only=True)
    #: (omega, x, y) per sample: the point and its stable unit vector; keyword-only
    #: and private, in repr and == so that both see every stable vector's bits
    _stable: tuple = field(default=(), kw_only=True)

    @functools.cached_property
    def stable_direction_at(self) -> dict[float, Direction]:
        """The stable direction at each sample point, built on first read."""
        return {w: Direction.from_vector(x, y) for w, x, y in self._stable}


def dichotomy_test(
    f: SamplingFunction,
    E,
    sample_count: int = 200,
    depth: int = DEPTH,
    seed: int = 0,
) -> DichotomyReport | list[DichotomyReport]:
    """Sample-based exponential-dichotomy check at energy E.

    Draws sample_count uniform circle points, computes most-contracted
    directions of depth-step products at each point and its image, and
    declares hyperbolicity iff every sample converges (its depth and depth/2
    direction estimates agree within DICHOTOMY_CONV_TOL), the directions
    satisfy the invariance identity L(w) = A(w)^-1 L(T w) within
    INVARIANCE_TOL, both as angles between lines by rotation_number's cross
    product measure (_line_angle), and the minimal norm-growth exponent
    clears RATE_FLOOR.  The report always carries the verdict; nothing is
    raised for a negative answer.

    E is one energy or a sequence of them, all finite (else InvalidParameter).
    A sequence shares one draw of the samples and probes and one pass over
    the depth sites per PASS_ENTRIES (site, row) entries, and gives a list
    of reports in the order of E, each equal to the report its energy gets
    alone; a float gives its report as before.

    Uniform draws alone cannot refute hyperbolicity at energies where the
    almost-sure exponent is positive inside the spectrum (the section exists
    a.e. but is not continuous), so the sample set also probes the periodic
    points of minimal period <= PROBE_PERIODS: the dichotomy must be uniform
    over the whole support, and on a periodic orbit whose band contains E the
    monodromy is elliptic and the direction estimates never settle.  The
    probes are the rows of spectrum._sided_rows, each tiled to depth + 1
    sites: the same potentials whose bands make up union_spectrum.

    So True certifies contraction at a rate >= RATE_FLOOR, with settled and
    invariant directions, on the samples and every probe; not uniform
    hyperbolicity.  An energy in the spectrum but in no band of period <=
    PROBE_PERIODS, where the dichotomy fails only non-uniformly, passes (e.g.
    the gap midpoints of the period-8 union of cosine(3.0)); for continuous f
    its non-integer rotation number shows it is in the spectrum.
    """
    if sample_count < 1 or depth < 8:
        raise InvalidParameter("need sample_count >= 1 and depth >= 8")
    energies = _finite_energies(E)

    orbits = random_orbits(np.random.default_rng(seed), sample_count, depth + 1)
    rows = [np.asarray(f(orbits), dtype=float)]
    for p in range(1, PROBE_PERIODS + 1):
        rows.append(np.tile(_sided_rows(f, p)[1], depth // p + 2)[:, : depth + 1])
    pots = np.concatenate(rows)
    total = pots.shape[0]

    checkpoints = sorted({max(depth // 4, 1), depth // 2, max(3 * depth // 4, 1), depth})
    windows = np.concatenate([pots[:, :depth], pots[:, 1 : depth + 1]])
    omegas = orbits[:, 0]
    reports = []
    # one block of 2 * total rows per energy, at most PASS_ENTRIES entries a pass
    per_pass = max(1, PASS_ENTRIES // windows.size)
    for start in range(0, len(energies), per_pass):
        chunk = energies[start:start + per_pass]
        batch = _stable_core(chunk, windows, checkpoints=checkpoints)
        for i, e in enumerate(chunk):
            block = slice(2 * total * i, 2 * total * (i + 1))
            snaps = {k: (a[block], b[block]) for k, (a, b) in batch[2].items()}
            reports.append(_dichotomy_report(e, pots, omegas, depth, snaps))
    return reports if np.ndim(E) else reports[0]


def _dichotomy_report(E, pots, omegas, depth, snaps) -> DichotomyReport:
    """The verdict at E from _stable_core's snapshots at E: pots' rows from site 0, then site 1."""
    total, sample_count = pots.shape[0], len(omegas)
    vec, log_smax = snaps[depth]
    degenerate = bool(_degenerate_mask(log_smax).any())

    conv = (
        _line_angle(*vec.T, *snaps[depth // 2][0].T) < DICHOTOMY_CONV_TOL
    ).reshape(2, total).all(axis=0)

    # invariance residual: L(w) against the pullback (y', (E - v) y' - x') of L(T w) = (x', y'),
    # which does not cancel as the push-forward does; scaled so that no square overflows
    x1, y1 = vec[total:].T
    (pulled,), _ = _pow2_rescaled(np.stack([y1, (E - pots[:, 0]) * y1 - x1]))
    residuals = _line_angle(*vec[:total].T, *pulled)

    rates = log_smax[:total] / depth
    growth_rate = float(rates.min())
    is_hyperbolic = bool(
        not degenerate
        and conv.all()
        and (residuals < INVARIANCE_TOL).all()
        and growth_rate >= RATE_FLOOR
    )

    # prefactor estimate: sup over checkpoints of sigma_min(A^k) e^{c k}
    prefactor = 0.0
    for k, (_, snap_log) in snaps.items():
        prefactor = max(prefactor, float(np.exp(growth_rate * k - snap_log[:total]).max()))

    return DichotomyReport(
        is_hyperbolic=is_hyperbolic,
        growth_rate=growth_rate,
        prefactor=prefactor,
        diagnostics={
            "depth": depth,
            "sample_count": sample_count,
            "probe_count": total - sample_count,
            "converged_fraction": float(conv.mean()),
            "max_invariance_residual": float(residuals.max()),
            "min_rate": float(rates.min()),
            "max_rate": float(rates.max()),
            "degenerate": degenerate,
        },
        _stable=tuple(zip(omegas.tolist(), *vec[:sample_count].T.tolist())),
    )


def smooth_transition(u):
    """C-infinity nondecreasing ramp: 0 for u <= 0, 1 for u >= 1, strictly
    increasing in between, flat to all orders at both ends."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    out[u >= 1.0] = 1.0
    mid = (u > 0.0) & (u < 1.0)
    if np.any(mid):
        su = np.exp(-1.0 / u[mid])
        s1u = np.exp(-1.0 / (1.0 - u[mid]))
        out[mid] = su / (su + s1u)
    return out if out.ndim else float(out)


def rotation_profile(t):
    """theta(t): 0 near t = 0, pi/2 near t = 1/2, smooth and nondecreasing."""
    return (math.pi / 2.0) * smooth_transition(2.0 * np.asarray(t, dtype=float))


def scaling_profile(t):
    """lambda(t): 0 near t = 1/2, 1 near t = 1, smooth and nondecreasing."""
    return smooth_transition(2.0 * np.asarray(t, dtype=float) - 1.0)


def interpolated_step(E: float, v: float, t: float) -> np.ndarray:
    """Path from the identity (t = 0) to the step matrix (t = 1).

    Rotates by theta(t) up to t = 1/2, then ramps the energy entry with
    lambda(t); both halves are unimodular and agree at t = 1/2.
    """
    if not 0.0 <= t <= 1.0:
        raise InvalidParameter(f"t must lie in [0, 1], got {t}")
    if t <= 0.5:
        th = float(rotation_profile(t))
        c, s = math.cos(th), math.sin(th)
        return np.array([[c, -s], [s, c]])
    lam = float(scaling_profile(t))
    return np.array([[lam * (E - v), -1.0], [1.0, 0.0]])
