"""Periodic band spectra and their union over periodic orbits.

The spectrum of the operator over a period-p potential is the level set
{E : |disc(E)| <= 2} of its Floquet discriminant, a union of at most p closed
bands.  Its edges are the eigenvalues of the p x p periodic and antiperiodic
Jacobi matrices: sorted together, band k runs from edge 2k to edge 2k+1.
All potentials of one period are solved by batched symmetric eigenvalue
calls and polished on _discriminant, the one discriminant recursion; unions
over many orbits approximate the almost-sure essential spectrum from inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ids
from .dynamics import CirclePoint, PeriodicOrbit, check_period, orbit_table
from .errors import InvalidParameter
from .sampling import SamplingFunction

#: the edge tolerance of every band union the library and the CLI compute
TOL = 1e-10
#: merge tolerance and reporting resolution, as multiples of the edge tolerance
MERGE_FACTOR = 10.0
RESOLUTION_FACTOR = 100.0
#: potentials per batched eigenvalue call; bounds the memory of the stacked
#: (2, EIGEN_BLOCK, p, p) matrices
EIGEN_BLOCK = 512
#: a Newton step polishes an eigenvalue edge only if it is at most this many
#: times the eigensolver's error bound p * eps * |H|
POLISH_MARGIN = 64.0


@dataclass(frozen=True)
class Band:
    """A closed interval of energies."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidParameter(f"band with lo {self.lo} > hi {self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass
class SpectrumApprox:
    """A band union as the sorted arrays of its band edges: band k is [lo[k], hi[k]]."""

    lo: np.ndarray
    hi: np.ndarray
    max_period_used: int
    tol: float = TOL

    def __post_init__(self):
        self.lo, self.hi = np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)
        if self.lo.ndim != 1 or self.lo.shape != self.hi.shape or not len(self.lo):
            raise InvalidParameter("a band union needs 1-D lo and hi of one nonzero length")
        if (self.lo > self.hi).any():
            raise InvalidParameter("every band needs lo <= hi")
        if (self.hi[:-1] >= self.lo[1:]).any():
            raise InvalidParameter("bands must be sorted and disjoint after merging")

    @property
    def bands(self) -> list[Band]:
        return [Band(a, b) for a, b in zip(self.lo.tolist(), self.hi.tolist())]

    @property
    def hull(self) -> tuple[float, float]:
        return (self.lo[0].item(), self.hi[-1].item())

    @property
    def gaps(self) -> list[tuple[float, float]]:
        """All open intervals between consecutive bands."""
        return list(zip(self.hi[:-1].tolist(), self.lo[1:].tolist()))

    @property
    def resolution(self) -> float:
        """Gaps shorter than this are below what the merge tolerance resolves."""
        return RESOLUTION_FACTOR * self.tol

    def covers(self, x: float, slack: float = 0.0) -> bool:
        return bool(((self.lo - slack <= x) & (x <= self.hi + slack)).any())

    def to_json(self) -> dict:
        return {
            "bands": np.stack([self.lo, self.hi], axis=1).tolist(),
            "max_period_used": self.max_period_used,
            "tol": self.tol,
        }


@dataclass(frozen=True)
class PeriodBands:
    """The engine's band edges of every sided potential of one minimal period, in orbit order.

    Row i of edges (n, 2p) holds the sorted, polished periodic and
    antiperiodic eigenvalues of the potential labelled labels[i]; its band k
    runs from edges[i, 2k] to edges[i, 2k + 1].  Nothing is merged: a
    tolerance enters only when bands are merged (_row_bands, merge_bands).
    """

    period: int
    labels: list[str]
    edges: np.ndarray


def _edges(rows: np.ndarray, solve: np.ndarray | None = None) -> np.ndarray:
    """Sorted periodic and antiperiodic eigenvalues of each row's Jacobi matrix, (n, 2p).

    Given a mask solve, only its rows are solved, in place in the table; the
    other rows are left unset for the caller to fill.
    """
    n, p = rows.shape
    i = np.arange(p)
    at = np.arange(n) if solve is None else np.flatnonzero(solve)
    out = np.empty((n, 2 * p))
    for start in range(0, len(at), EIGEN_BLOCK):
        block = at[start:start + EIGEN_BLOCK]
        v = rows[block]
        h = np.zeros((2, len(v), p, p))
        h[:, :, i, i] = v
        h[:, :, i[:-1], i[1:]] = 1.0
        h[:, :, i[1:], i[:-1]] = 1.0
        # the boundary phase +1 / -1 adds to both corner entries, which are
        # the diagonal entry at p = 1 (v +- 2) and the hopping entry at p = 2
        for phase, sign in enumerate((1.0, -1.0)):
            h[phase, :, 0, p - 1] += sign
            h[phase, :, p - 1, 0] += sign
        ev = np.linalg.eigvalsh(h)
        edges = np.sort(np.concatenate([ev[0], ev[1]], axis=1), axis=1)
        out[block] = _polish(v, edges)
    return out


def _discriminant(rows: np.ndarray, E: np.ndarray, order: int = 0) -> list[np.ndarray]:
    """[disc, disc', ...] to order <= 2 of each row of potentials (n, p) at its energies (n, k).

    With t = E - v, the rows of the transfer product step as (u, w) <- (t u - w, u)
    and their Taylor coefficients u_j = u^(j) / j! as (t u_j + u_{j-1} - w_j, u_j),
    in place in one array for speed.  verify's certificate shares this yet stays
    independent of the eigvalsh edges: _polish keeps a Newton step only if it is at
    most POLISH_MARGIN * p * eps * (2 + max|v|), below 1e-10 for p <= 61 and
    |v| <= 100, against the certificate's verify.EDGE_TOL = 1e-6, so a fault here
    leaves the edges unpolished or fails the certificate.  Interlacing and trace
    sums skip it.
    """
    u = np.zeros((order + 1, 2) + E.shape)
    u[0, 0] = 1.0
    w = u[:, ::-1]
    for v in rows.T:
        nxt = (E - v[:, None]) * u
        nxt[1:] += u[:-1]
        nxt -= w
        u, w = nxt, u
    return [math.factorial(j) * (u[j, 0] + w[j, 1]) for j in range(order + 1)]


def _polish(rows: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """One Newton step of |disc(E)| = 2 from each eigenvalue edge, kept only if short.

    The eigenvalues are within about p * eps * |H| of the true edges.  Across
    a narrow band |disc| runs from -2 to 2, so that error shows as a large
    residual of |disc| - 2; the Newton step removes it.  A step longer than
    POLISH_MARGIN times that error bound is no correction (near a closed gap
    disc' vanishes) and is dropped, as is a step that is not finite (the
    recursion overflows at large |v|, where no step is within the bound).
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        disc, slope = _discriminant(rows, edges, 1)
        step = (disc - np.copysign(2.0, disc)) / slope
    scale = 2.0 + np.abs(rows).max(axis=1, keepdims=True)
    bound = POLISH_MARGIN * rows.shape[1] * np.finfo(float).eps * scale
    return np.sort(np.where(np.abs(step) <= bound, edges - step, edges), axis=1)


def _row_bands(edges: np.ndarray, tol: float):
    """Flat band edges of each row of edges (n, 2p), and the band count of each row.

    Neighbouring bands of one row that touch within MERGE_FACTOR * tol merge.
    """
    if tol <= 0.0:
        raise InvalidParameter("tol must be positive")
    lo, hi = edges[:, 0::2], edges[:, 1::2]
    is_open = lo[:, 1:] - hi[:, :-1] > MERGE_FACTOR * tol
    ones = np.ones((len(edges), 1), dtype=bool)
    starts = np.hstack([ones, is_open])
    ends = np.hstack([is_open, ones])
    return lo[starts], hi[ends], starts.sum(axis=1)


def _sided_rows(f: SamplingFunction, period: int):
    """The orbit table of `period`, its sided potentials as rows, and which rows are left limits.

    f is called once on the whole table, whose rows come in its order.  Each
    orbit through a breakpoint is followed by the further potentials of its
    PeriodicOrbit.sided_potentials: its left-limit potential when the
    left-limit values differ.
    """
    table = orbit_table(period)
    d = 2 ** period - 1
    points = table / d
    rows = np.asarray(f(points), dtype=float).reshape(table.shape)
    at, left = [], []
    for i in np.flatnonzero(f.breakpoint_mask(points).any(axis=1)).tolist():
        orbit = PeriodicOrbit(period, tuple(CirclePoint(q, d) for q in table[i].tolist()))
        for _, pots in orbit.sided_potentials(f)[1:]:
            at.append(i + 1)
            left.append(pots)
    is_left = np.zeros(len(table), dtype=bool)
    if at:
        rows = np.insert(rows, at, left, axis=0)
        is_left = np.insert(is_left, at, True)
    return table, rows, is_left


def _labels(minima: np.ndarray, period: int, is_left: np.ndarray) -> list[str]:
    """The label of each sided row: "k/d", or "k/d-" on a left limit.

    k/d is the minimum of the row's orbit, over 2^p - 1, in lowest terms.
    """
    d = 2 ** period - 1
    g = np.gcd(minima, d)
    names = [f"{k}/{q}" for k, q in zip((minima // g).tolist(), (d // g).tolist())]
    orbit = np.cumsum(~is_left) - 1
    return [names[i] + "-" if left else names[i]
            for i, left in zip(orbit.tolist(), is_left.tolist())]


def _paired_edges(table: np.ndarray, rows: np.ndarray, is_left: np.ndarray,
                  need: np.ndarray | None = None) -> np.ndarray:
    """_edges of the sided rows, an orbit reusing its conjugate's edges where the rows allow.

    The conjugate of the orbit of k/d, d = 2^p - 1, is the orbit of -k/d:
    its point j is minus point j + J of the orbit, where J is the argmax of
    the orbit's numerators, so its minimum is d - max_j k 2^j mod d.  The
    orbit's row turned by J lines up with the conjugate's row, w against -w.
    Of each pair the orbit with the larger minimum reuses the other's
    solved edges when
    - the rows agree within 8 p eps (1 + max|v|) (f even, as a TrigPoly
      without sine terms): it takes the same edges, off by no more than
      that by Weyl's inequality;
    - the rows sum to one exact constant c (f(-w) = c - f(w), as
      bernoulli(5)): it takes c - edges reversed, since c - H is the
      operator with potential c - v after the gauge psi(n) -> (-1)^n psi(n),
      which keeps or swaps the periodic and antiperiodic spectra.
    Every other row is solved: left limits, self-conjugate orbits, and the
    fixed point 0, whose conjugate 1/1 lies past the table's end.  Given a
    mask need, only the needed rows' edges are set, each as without the
    mask: the needed rows are solved, with the partner of each that reuses.
    """
    n, p = table.shape
    turn = table.argmax(axis=1)
    conj = np.searchsorted(table[:, 0], 2 ** p - 1 - table[np.arange(n), turn])
    late = np.flatnonzero(conj < np.arange(n))
    right = np.flatnonzero(~is_left)
    dst, src = right[late], right[conj[late]]
    mine = rows[dst[:, None], (turn[late, None] + np.arange(p)) % p]
    theirs = rows[src]
    reach = np.maximum(np.abs(mine), np.abs(theirs)).max(axis=1)
    same = np.abs(mine - theirs).max(axis=1) <= 8 * p * np.finfo(float).eps * (1.0 + reach)
    total = mine + theirs
    mirror = ~same & (total == total[:, :1]).all(axis=1)
    solve = np.ones(len(rows), dtype=bool) if need is None else need.copy()
    same &= solve[dst]
    mirror &= solve[dst]
    solve[dst[same | mirror]] = False
    solve[src[same | mirror]] = True
    edges = _edges(rows, solve)
    edges[dst[same]] = edges[src[same]]
    edges[dst[mirror]] = total[mirror, :1] - edges[src[mirror], ::-1]
    return edges


def period_bands(f: SamplingFunction, period: int) -> PeriodBands:
    """The unmerged edges of every sided potential of minimal period `period`.

    The potentials are those of _sided_rows, each labelled "k/d" by its
    orbit minimum in lowest terms, a left limit "k/d-"; an orbit may share
    its conjugate's edges (_paired_edges).
    """
    table, rows, is_left = _sided_rows(f, period)
    edges = _paired_edges(table, rows, is_left)
    return PeriodBands(period, _labels(table[:, 0], period, is_left), edges)


def bands_by_period(f: SamplingFunction, max_period: int) -> list[PeriodBands]:
    """period_bands for every period 1 .. max_period."""
    check_period(max_period)
    return [period_bands(f, p) for p in range(1, max_period + 1)]


def potential_bands(pots, tol: float = TOL) -> list[Band]:
    """Spectral bands of the periodic operator with one period pots.

    Bands touching within MERGE_FACTOR * tol are merged.
    """
    lo, hi, _ = _row_bands(_edges(np.asarray(pots, dtype=float).reshape(1, -1)), tol)
    return [Band(a, b) for a, b in zip(lo.tolist(), hi.tolist())]


def periodic_bands(orbit: PeriodicOrbit, f: SamplingFunction, tol: float = TOL) -> list[Band]:
    """Spectral bands of the periodic operator over one orbit.

    The potential is the right-continuous one, f(T^n w); orbit_bands also
    covers the left-limit potential of an orbit through a breakpoint.
    """
    return potential_bands(orbit.potential_values(f), tol=tol)


def orbit_bands(orbit: PeriodicOrbit, f: SamplingFunction,
                tol: float = TOL) -> list[tuple[str, list[Band]]]:
    """Bands of every potential in orbit.sided_potentials(f), under its label."""
    return [(label, potential_bands(pots, tol=tol)) for label, pots in orbit.sided_potentials(f)]


def _merged(lo: np.ndarray, hi: np.ndarray, tol: float):
    """The union of the bands [lo_i, hi_i], gaps <= MERGE_FACTOR * tol closed: sorted (lo, hi).

    Its bands are the pieces of the union once every gap of at most
    MERGE_FACTOR * tol is filled, so merging a union again with more bands
    equals merging all the bands at once, bit for bit.
    """
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    # sorted by lo, a band opens a new group when it starts beyond the reach
    # of every band before it
    reach = np.maximum.accumulate(hi)
    first = np.flatnonzero(np.concatenate([[True], lo[1:] - reach[:-1] > MERGE_FACTOR * tol]))
    return lo[first], np.maximum.reduceat(hi, first)


def merge_bands(per_period, tol: float) -> SpectrumApprox:
    """Union of the bands of several PeriodBands, closing gaps up to MERGE_FACTOR * tol.

    A gap of one potential closed by potential_bands is closed here too, so
    merging the raw edges equals merging every potential's merged bands.
    """
    if tol <= 0.0:
        raise InvalidParameter("tol must be positive")
    lo, hi = _merged(np.concatenate([pb.edges[:, 0::2].ravel() for pb in per_period]),
                     np.concatenate([pb.edges[:, 1::2].ravel() for pb in per_period]), tol)
    return SpectrumApprox(lo, hi, max_period_used=per_period[-1].period, tol=tol)


def _inside_union(rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Which rows (n, p) have their spectrum certified inside one band [lo_k, hi_k] of a union.

    k is the band that holds min v.  With the margin
    m = 4 POLISH_MARGIN p eps (2 + max|v|), more than twice the engine's
    edge error, let a = lo_k + m and b = hi_k - m.  The diagonal entries are
    Rayleigh quotients, so a row whose min v < a or max v > b cannot pass
    and is not tested further.  The p - 1 Dirichlet eigenvalues of sites
    1 .. p-1 lie one in each closed gap (Teschl, Jacobi Operators and
    Completely Integrable Nonlinear Lattices, AMS 2000, ch. 7), and disc
    runs from (-1)^p 2 at the lowest edge to 2 at the highest, past +-2 in
    every gap.  So no Dirichlet eigenvalue below a and (-1)^p disc(a) > 2
    put a below every edge; all p - 1 below b and disc(b) > 2 put b above
    every edge.  The row's computed edges then lie in [lo_k, hi_k], and
    merging them into the union would change none of its bands.  A row
    with non-finite values fails the comparisons.
    """
    n, p = rows.shape
    inside = np.zeros(n, dtype=bool)
    if not len(lo):
        return inside
    low, high = rows.min(axis=1), rows.max(axis=1)
    # below the union, k = -1 reads the last band, whose lo is above min v too
    k = np.searchsorted(lo, low, side="right") - 1
    margin = 4 * POLISH_MARGIN * p * np.finfo(float).eps * (2.0 + np.maximum(-low, high))
    a, b = lo[k] + margin, hi[k] - margin
    test = np.flatnonzero((low >= a) & (high <= b))
    if test.size:
        E = np.stack([a[test], b[test]], axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            disc = _discriminant(rows[test], E)[0]
        dirichlet = ids._sturm_counts(rows[test, 1:].T[:, :, None], E)
        inside[test] = ((dirichlet == [0, p - 1]).all(axis=1)
                        & ((-1) ** p * disc[:, 0] > 2.0) & (disc[:, 1] > 2.0))
    return inside


def union_spectrum(
    f: SamplingFunction,
    max_period: int,
    tol: float = TOL,
) -> SpectrumApprox:
    """Union of periodic bands over all orbits of minimal period <= max_period.

    Each orbit contributes the bands of its right-continuous potential and,
    when it passes through a breakpoint of a step function, of its
    left-limit potential too (see _sided_rows).  Both lie in the hull,
    so the union approximates the almost-sure spectrum from inside; for
    5 * chi_[0,1/2) the left limit at the fixed point 0 is the free potential
    and supplies the band [-2, 2] from period 1 on.

    The union is the last of _running_unions, merged period by period; it
    equals merge_bands(bands_by_period(f, max_period), tol) bit for bit.
    """
    check_period(max_period)
    if tol <= 0.0:
        raise InvalidParameter("tol must be positive")
    for union in _running_unions(f, max_period, tol):
        pass
    return union


def _running_unions(f: SamplingFunction, last: int, tol: float, per_period=()):
    """The SpectrumApprox of periods 1 .. p for p = 1 .. last, each merged onto the one before.

    A period of per_period (bands_by_period of the first periods) merges its
    whole edge table.  A later period solves the rows of _sided_rows that
    _inside_union does not certify inside one band of the union so far, as
    no other row's edges could change a band; so by _merged, each union
    equals merge_bands(bands_by_period(f, p), tol) bit for bit.
    """
    lo = hi = np.empty(0)
    for p in range(1, last + 1):
        if p <= len(per_period):
            edges = per_period[p - 1].edges
        else:
            table, rows, is_left = _sided_rows(f, p)
            need = ~_inside_union(rows, lo, hi)
            edges = _paired_edges(table, rows, is_left, need)[need]
        lo, hi = _merged(np.concatenate([lo, edges[:, 0::2].ravel()]),
                         np.concatenate([hi, edges[:, 1::2].ravel()]), tol)
        yield SpectrumApprox(lo, hi, max_period_used=p, tol=tol)


def gap_report(
    s: SpectrumApprox, include_below_resolution: bool = False
) -> list[tuple[tuple[float, float], float]]:
    """Interior gaps sorted by length, longest first.

    Gaps shorter than the approximation's resolution are below what its
    merge tolerance resolves and are excluded unless explicitly requested.
    """
    gaps = [(g, g[1] - g[0]) for g in s.gaps]
    if not include_below_resolution:
        gaps = [(g, w) for g, w in gaps if w >= s.resolution]
    return sorted(gaps, key=lambda t: -t[1])
