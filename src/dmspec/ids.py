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
#: energies whose (M, chunk) state has at most this many entries
BATCH_ENTRIES = 2 ** 15


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
    """
    E = np.asarray(energies, dtype=float)
    d = np.full_like(E, np.inf)  # so the first step has no 1/d term
    counts = np.zeros(E.shape, dtype=np.int64)
    # a subnormal pivot overflows 1/d to +-inf; the next pivot is then -+inf,
    # of the sign the exact recursion gives, and the one after it sees
    # 1/d = -0.0, as it would see a pivot too large to matter
    with np.errstate(over="ignore"):
        for v in values:
            d = v - E - 1.0 / d
            d[d == 0.0] = ZERO_PIVOT
            counts += d < 0.0
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
    """
    if truncation_size < 16 or sample_count < 1:
        raise InvalidParameter("need truncation_size >= 16 and sample_count >= 1")
    energies = np.sort(_finite_energies(energies))
    # one contiguous row of samples per site, for the recursion's pass over the sites
    cols = np.ascontiguousarray(spawned_potentials(f, seed, sample_count, truncation_size).T)[:, :, None]
    chunk = max(1, BATCH_ENTRIES // sample_count)
    total = np.concatenate([_sturm_counts(cols, np.broadcast_to(e, (sample_count, len(e)))).sum(axis=0)
                            for e in np.split(energies, range(chunk, len(energies), chunk))])
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
