"""Integrated density of states by eigenvalue counting on finite truncations.

Finite half-line truncations are N x N symmetric tridiagonal matrices with the
potential on the diagonal and unit hopping; eigenvalues below E are counted by
the Sturm / LDL^T sign recursion without forming any matrix.  Averaging counts
over independent random potentials estimates k(E).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGapGrid, InvalidParameter
from .sampling import Potential, SamplingFunction, _finite_energies, spawned_potentials

#: pivot substituted for an exact zero in the Sturm recursion (counted negative)
ZERO_PIVOT = -1e-300
#: ids_estimate runs its M samples in one Sturm recursion over chunks of
#: energies whose (chunk, M) state has at most this many entries
BATCH_ENTRIES = 2 ** 15
#: sites whose negative pivots _sturm_counts sums in its uint8 counter
_COUNT_BLOCK = 255


@dataclass
class IDSTable:
    """Tabulated k(E) on an energy grid, with the sampling parameters."""

    energies: np.ndarray
    k_values: np.ndarray
    truncation_size: int
    sample_count: int
    seed: int

    @property
    def tolerance(self) -> float:
        """Statistical plus boundary error scale: 3/sqrt(M N) + 2/N."""
        return 3.0 / np.sqrt(self.sample_count * self.truncation_size) + 2.0 / self.truncation_size

    def value_at(self, E: float) -> float:
        """k at the grid point nearest to E."""
        return float(self.k_values[int(np.argmin(np.abs(self.energies - E)))])

    def to_json(self) -> dict:
        return {
            "energies": [float(x) for x in self.energies],
            "k": [float(x) for x in self.k_values],
            "N": self.truncation_size,
            "M": self.sample_count,
            "seed": self.seed,
        }


def _sturm_counts(values: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Eigenvalues <= E of tridiag(values, offdiag 1), for every E at once.

    d_1 = V_1 - E, d_i = V_i - E - 1/d_{i-1}; the count of negative pivots
    equals the count of eigenvalues below E (Sylvester inertia).  Zero pivots
    take the ZERO_PIVOT convention.  Each values[i] may be an array that
    broadcasts against energies, e.g. one column of sites per row of E.
    The pivots step in place in one buffer, and the negative ones are summed
    in blocks of _COUNT_BLOCK sites in a narrow counter.
    """
    E = np.asarray(energies, dtype=float)
    shape = np.broadcast_shapes(E.shape, np.shape(values)[1:])
    d = np.full(shape, np.inf)  # so the first step has no 1/d term
    inverse = np.empty(shape)
    below = np.empty(shape, dtype=bool)
    block = np.zeros(shape, dtype=np.uint8)
    counts = np.zeros(shape, dtype=np.int64)
    # a subnormal pivot overflows 1/d to +-inf; the next pivot is then -+inf,
    # of the sign the exact recursion gives, and the one after it sees
    # 1/d = -0.0, as it would see a pivot too large to matter
    with np.errstate(over="ignore"):
        for i, v in enumerate(values, 1):
            np.divide(1.0, d, inverse)
            np.subtract(v, E, d)
            np.subtract(d, inverse, d)
            if np.equal(d, 0.0, below).any():
                d[below] = ZERO_PIVOT
            np.add(block, np.less(d, 0.0, below), block)
            if i % _COUNT_BLOCK == 0:
                counts += block
                block[...] = 0
    counts += block
    return counts


def eigen_count(potential, E: float) -> int:
    """Number of eigenvalues <= E of the truncation with the given potential; E must be finite."""
    values = potential.array() if isinstance(potential, Potential) else np.asarray(potential, float)
    return int(_sturm_counts(values, _finite_energies(float(E)))[0])


def ids_estimate(
    f: SamplingFunction,
    energies,
    truncation_size: int = 512,
    sample_count: int = 64,
    seed: int = 0,
) -> IDSTable:
    """Monte Carlo k(E) over an energy grid.

    Every sample draws a fresh uniformly distributed point and counts
    eigenvalues of its length-N potential window at all grid energies, so each
    sample's contribution is nondecreasing in E and the average is too.
    Deterministic in the seed.  The count is elementwise in E, so k at an
    energy does not depend on the other energies asked for; each must be finite.
    Energies at least 2 below or above the range of f take k = 0 or 1 without
    a draw: there the count is exact by Gershgorin, and equals the sampled one
    bit for bit.
    """
    if truncation_size < 16 or sample_count < 1:
        raise InvalidParameter("need truncation_size >= 16 and sample_count >= 1")
    energies = np.sort(_finite_energies(energies))
    # Gershgorin: every computed value v of f lies in [lo, hi], so where lo - E >= 2
    # every pivot is >= fl(2 - 1) = 1 by monotone rounding (1/d <= 1), and where
    # hi - E <= -2 every pivot is <= -1; no pivot is zero, and the count is 0 or N
    # for every sample.  Those energies are a prefix and a suffix of the sorted ones.
    lo, hi = f._range()
    start = int(np.count_nonzero(lo - energies >= 2.0))
    stop = len(energies) - int(np.count_nonzero(hi - energies <= -2.0))
    total = np.zeros(len(energies), dtype=np.int64)
    total[stop:] = sample_count * truncation_size
    if start < stop:
        # one contiguous row of samples per site; the state is (energies, samples)
        sites = np.ascontiguousarray(spawned_potentials(f, seed, sample_count, truncation_size).T)
        inside, counted = energies[start:stop, None], total[start:stop]
        chunk = max(1, BATCH_ENTRIES // sample_count)
        for i in range(0, len(inside), chunk):
            counted[i:i + chunk] = _sturm_counts(sites, inside[i:i + chunk]).sum(axis=1)
    k = total / float(sample_count * truncation_size)
    return IDSTable(
        energies=energies,
        k_values=k,
        truncation_size=truncation_size,
        sample_count=sample_count,
        seed=seed,
    )


def default_energy_grid(hull: tuple[float, float], points: int = 2001) -> np.ndarray:
    """Uniform grid over the spectral hull widened by 1 on each side."""
    return np.linspace(hull[0] - 1.0, hull[1] + 1.0, points)


def gap_label(table: IDSTable, gap: tuple[float, float]) -> float:
    """Mean of k over grid points strictly inside the gap.

    k must be constant on a true spectral gap; a spread above three times the
    Monte Carlo tolerance triggers a non-flatness warning.
    """
    lo, hi = gap
    mask = (table.energies > lo) & (table.energies < hi)
    if not mask.any():
        raise EmptyGapGrid(f"no grid point inside ({lo}, {hi})")
    vals = table.k_values[mask]
    spread = float(vals.max() - vals.min())
    if spread > 3.0 * table.tolerance:
        warnings.warn(
            f"k varies by {spread:.3g} inside ({lo}, {hi}); the interval "
            f"may not be a spectral gap",
            stacklevel=2,
        )
    return float(vals.mean())
