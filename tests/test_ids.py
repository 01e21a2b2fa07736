"""Sturm counting against dense diagonalization; IDS estimates and gap labels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmspec import (
    EmptyGapGrid,
    IDSTable,
    TrigPoly,
    bernoulli,
    cosine,
    eigen_count,
    gap_label,
    ids_estimate,
)
from dmspec import ids, verify
from dmspec.ids import default_energy_grid
from dmspec.sampling import random_orbit

FREE = TrigPoly()


def dense_count(values, E):
    values = np.asarray(values, dtype=float)
    n = len(values)
    H = np.diag(values)
    if n > 1:
        H += np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    return int(np.count_nonzero(np.linalg.eigvalsh(H) <= E))


def free_ids(E):
    """Closed-form free-case IDS: k(E) = 1 - arccos(E/2)/pi on [-2, 2]."""
    if E <= -2.0:
        return 0.0
    if E >= 2.0:
        return 1.0
    return 1.0 - np.arccos(E / 2.0) / np.pi


class TestEigenCount:
    def test_singleton(self):
        assert eigen_count([0.0], 1.0) == 1
        assert eigen_count([0.0], -1.0) == 0

    def test_two_sites(self):
        # free 2-site eigenvalues are -1 and 1
        assert eigen_count([0.0, 0.0], 0.0) == 1
        assert eigen_count([0.0, 0.0], 1.5) == 2

    @pytest.mark.parametrize("case", range(20))
    def test_matches_dense_solver(self, case):
        rng = np.random.default_rng(1000 + case)
        n = int(rng.integers(8, 65))
        values = rng.uniform(-4.0, 4.0, size=n)
        E = float(rng.uniform(-6.0, 6.0))
        assert eigen_count(values, E) == dense_count(values, E)

    def test_counts_at_eigenvalue_boundaries(self):
        values = [0.5, -0.25, 1.0, 0.0, 0.0, 0.75, -1.0, 0.25]
        eigs = np.linalg.eigvalsh(
            np.diag(values) + np.diag(np.ones(7), 1) + np.diag(np.ones(7), -1)
        )
        for i, e in enumerate(eigs):
            assert eigen_count(values, e + 1e-12) == i + 1
            assert eigen_count(values, e - 1e-12) == i

    @pytest.mark.parametrize("tiny", [1e-310, -1e-310, 5e-324],
                             ids=["subnormal", "negative", "least"])
    def test_subnormal_pivot(self, tiny):
        # the first pivot V_1 - E is subnormal, so 1/d overflows to +-inf; the
        # count still equals the dense one, and no overflow warning is raised
        values = [tiny, 0.5, -0.3, 1.2, 0.0]
        assert verify.dense_eigen_count(values, 0.0) == 3
        assert eigen_count(values, 0.0) == 3
        assert ids._sturm_counts(np.array(values)[:, None], np.array([[0.0]]))[0, 0] == 3


class TestIdsEstimate:
    def test_free_case_midpoint(self):
        grid = np.linspace(-3.0, 3.0, 61)
        table = ids_estimate(FREE, grid, truncation_size=512, sample_count=4, seed=0)
        assert table.value_at(0.0) == pytest.approx(0.5, abs=0.02)

    def test_below_spectrum_is_exactly_zero(self):
        grid = np.array([-3.0, 0.0])
        table = ids_estimate(FREE, grid, truncation_size=256, sample_count=4, seed=0)
        assert table.k_values[0] == 0.0

    def test_free_case_arccos_oracle(self):
        grid = np.linspace(-2.0, 2.0, 101)
        table = ids_estimate(FREE, grid, truncation_size=512, sample_count=8, seed=1)
        err = np.abs(table.k_values - [free_ids(E) for E in grid])
        assert err.max() < 0.03

    def test_monotone_exactly(self):
        grid = np.linspace(-4.0, 9.0, 301)
        table = ids_estimate(bernoulli(5.0), grid, truncation_size=128,
                             sample_count=16, seed=3)
        assert np.all(np.diff(table.k_values) >= 0.0)

    def test_bernoulli_gap_value(self):
        grid = np.linspace(-4.0, 9.0, 301)
        table = ids_estimate(bernoulli(5.0), grid, truncation_size=512,
                             sample_count=32, seed=4)
        assert table.value_at(2.5) == pytest.approx(0.5, abs=0.02)

    def test_bernoulli_gap_cross_checked_dense(self):
        # independent dense-eigensolver estimate at N = 256
        rng = np.random.default_rng(11)
        f = bernoulli(5.0)
        counts = []
        for _ in range(16):
            values = np.asarray(f(random_orbit(rng, 256)))
            counts.append(dense_count(values, 2.5))
        dense_k = np.mean(counts) / 256.0
        grid = np.array([2.0, 2.5, 3.0])
        table = ids_estimate(f, grid, truncation_size=256, sample_count=16, seed=12)
        assert table.value_at(2.5) == pytest.approx(dense_k, abs=0.03)
        assert dense_k == pytest.approx(0.5, abs=0.03)

    def test_deterministic_in_seed(self):
        grid = np.linspace(-3, 3, 31)
        a = ids_estimate(FREE, grid, truncation_size=64, sample_count=8, seed=9)
        b = ids_estimate(FREE, grid, truncation_size=64, sample_count=8, seed=9)
        assert np.array_equal(a.k_values, b.k_values)

    def test_limits_outside_hull(self):
        f = cosine(0.5)
        grid = default_energy_grid((-2.5, 3.0), 201)
        table = ids_estimate(f, grid, truncation_size=256, sample_count=16, seed=5)
        tol = table.tolerance
        assert table.k_values[grid <= -2.6].max(initial=0.0) <= tol
        assert table.k_values[grid >= 3.1].min(initial=1.0) >= 1.0 - tol

    def test_boundary_condition_insensitivity(self):
        # Dirichlet vs periodic truncation is a rank-2 perturbation: counts
        # shift by at most 2, so k by at most 2/N at every grid point
        rng = np.random.default_rng(21)
        f = cosine(0.5)
        N = 128
        for _ in range(5):
            values = np.asarray(f(random_orbit(rng, N)))
            H = np.diag(values) + np.diag(np.ones(N - 1), 1) + np.diag(np.ones(N - 1), -1)
            Hp = H.copy()
            Hp[0, N - 1] = Hp[N - 1, 0] = 1.0
            dir_eigs = np.linalg.eigvalsh(H)
            per_eigs = np.linalg.eigvalsh(Hp)
            for E in np.linspace(-3.0, 3.0, 13):
                d = np.count_nonzero(dir_eigs <= E)
                p = np.count_nonzero(per_eigs <= E)
                assert abs(d - p) <= 2

    def test_support_consistent_with_band_union(self):
        # windows carrying visible dk mass must meet the band union
        from dmspec import union_spectrum

        f = cosine(0.5)
        s = union_spectrum(f, 8)
        grid = default_energy_grid(s.hull, 401)
        table = ids_estimate(f, grid, truncation_size=256, sample_count=32, seed=6)
        h = 0.05
        for i, E in enumerate(grid):
            lo = table.value_at(E - h)
            hi = table.value_at(E + h)
            if hi - lo > 5.0 * table.tolerance:
                assert s.covers(float(E), slack=h)


class TestEnergySubsets:
    # the Sturm count is elementwise in E, so k at an energy is the same
    # whichever other energies are asked for, in whichever chunk
    def test_subsets_equal_the_full_grid_across_a_chunk_boundary(self):
        M = 64
        edge = ids.BATCH_ENTRIES // M  # energies per chunk
        grid = np.linspace(-4.0, 4.0, 2 * edge + 1)
        f = cosine(0.7)
        full = ids_estimate(f, grid, truncation_size=16, sample_count=M, seed=5)
        for pick in (slice(0, edge), slice(0, edge + 1), [3], [0, edge, 2 * edge],
                     slice(edge - 20, edge + 20)):
            part = ids_estimate(f, grid[pick], truncation_size=16, sample_count=M, seed=5)
            assert np.array_equal(part.k_values, full.k_values[pick])

    def test_no_energies(self):
        assert ids_estimate(FREE, [], truncation_size=16, sample_count=2).k_values.shape == (0,)


class TestIdsProperties:
    @given(c=st.floats(-6.0, 6.0), step=st.booleans(), seed=st.integers(0, 2 ** 16),
           points=st.integers(2, 400))
    @settings(max_examples=40, deadline=None)
    def test_nondecreasing(self, c, step, seed, points):
        f = bernoulli(c) if step else cosine(c / 4)
        grid = np.linspace(-6.0, 6.0, points)
        table = ids_estimate(f, grid, truncation_size=64, sample_count=4, seed=seed)
        assert np.all(np.diff(table.k_values) >= 0.0)
        assert table.k_values[0] >= 0.0 and table.k_values[-1] <= 1.0


class TestGapLabel:
    def _free_table(self):
        grid = np.linspace(-3.5, 3.5, 141)
        return ids_estimate(FREE, grid, truncation_size=256, sample_count=8, seed=7)

    def test_above_spectrum(self):
        assert gap_label(self._free_table(), (2.5, 3.0)) == pytest.approx(1.0, abs=0.01)

    def test_below_spectrum(self):
        assert gap_label(self._free_table(), (-3.0, -2.5)) == pytest.approx(0.0, abs=0.01)

    def test_bernoulli_half(self):
        grid = np.linspace(-4.0, 9.0, 301)
        table = ids_estimate(bernoulli(5.0), grid, truncation_size=512,
                             sample_count=32, seed=8)
        assert gap_label(table, (2.0, 3.0)) == pytest.approx(0.5, abs=0.02)

    def test_empty_grid_error(self):
        table = self._free_table()
        with pytest.raises(EmptyGapGrid):
            gap_label(table, (10.0, 10.001))

    def test_non_flat_warning(self):
        table = IDSTable(
            energies=np.linspace(0.0, 1.0, 11),
            k_values=np.linspace(0.1, 0.9, 11),
            truncation_size=512,
            sample_count=64,
            seed=0,
        )
        with pytest.warns(UserWarning, match="not.*gap|gap"):
            gap_label(table, (0.2, 0.8))
