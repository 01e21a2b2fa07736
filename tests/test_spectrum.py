"""Band spectra against a dense eigenvalue oracle, unions, gap reports."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from hypothesis import given, settings
from hypothesis import strategies as st

from dmspec import (
    Band,
    SpectrumApprox,
    Step,
    TrigPoly,
    bernoulli,
    cosine,
    enumerate_orbits,
    gap_report,
    periodic_bands,
    union_spectrum,
)
from dmspec import spectrum
from dmspec.spectrum import RESOLUTION_FACTOR, orbit_bands, period_bands, potential_bands

FREE = TrigPoly()


def eigen_band_oracle(pots, merge_gap=1e-9):
    """Floquet band edges as eigenvalues of the p x p matrices with corner
    phases 0 and pi, one matrix at a time; independent of the batched
    engine under test."""
    pots = [float(v) for v in pots]
    p = len(pots)
    if p == 1:
        return [(pots[0] - 2.0, pots[0] + 2.0)]
    H = np.diag(pots) + np.diag(np.ones(p - 1), 1) + np.diag(np.ones(p - 1), -1)
    Hp, Ha = H.copy(), H.copy()
    if p == 2:
        Hp[0, 1] = Hp[1, 0] = 2.0
        Ha[0, 1] = Ha[1, 0] = 0.0
    else:
        Hp[0, p - 1] = Hp[p - 1, 0] = 1.0
        Ha[0, p - 1] = Ha[p - 1, 0] = -1.0
    edges = np.sort(np.concatenate([np.linalg.eigvalsh(Hp), np.linalg.eigvalsh(Ha)]))
    bands = []
    for i in range(p):
        lo, hi = float(edges[2 * i]), float(edges[2 * i + 1])
        if bands and lo - bands[-1][1] <= merge_gap:
            bands[-1][1] = max(bands[-1][1], hi)
        else:
            bands.append([lo, hi])
    return [tuple(b) for b in bands]


class TestPeriodicBands:
    def test_fixed_point_constant(self):
        orbit = enumerate_orbits(1)[0]
        bands = periodic_bands(orbit, TrigPoly(constant=1.5))
        assert len(bands) == 1
        assert bands[0].lo == pytest.approx(-0.5, abs=1e-9)
        assert bands[0].hi == pytest.approx(3.5, abs=1e-9)

    def test_period_two_cosine_single_band(self):
        # V = -1 on both points of {1/3, 2/3}: a constant shift of [-2, 2]
        orbit = enumerate_orbits(2)[1]
        bands = periodic_bands(orbit, cosine(1.0))
        assert len(bands) == 1
        assert bands[0].lo == pytest.approx(-3.0, abs=1e-9)
        assert bands[0].hi == pytest.approx(1.0, abs=1e-9)

    def test_period_three_cosine_vs_oracle(self):
        orbit = next(o for o in enumerate_orbits(3) if o.period == 3)
        bands = periodic_bands(orbit, cosine(1.0))
        oracle = eigen_band_oracle(orbit.potential_values(cosine(1.0)))
        assert len(bands) == len(oracle)
        for b, (lo, hi) in zip(bands, oracle):
            assert b.lo == pytest.approx(lo, abs=1e-6)
            assert b.hi == pytest.approx(hi, abs=1e-6)

    @pytest.mark.parametrize("f,label", [(cosine(0.5), "cos 0.5"),
                                         (cosine(1.0), "cos 1.0"),
                                         (bernoulli(5.0), "bernoulli 5")])
    def test_all_orbits_up_to_eight_vs_oracle(self, f, label):
        worst = 0.0
        for orbit in enumerate_orbits(8):
            bands = periodic_bands(orbit, f, tol=1e-10)
            oracle = eigen_band_oracle(orbit.potential_values(f))
            assert len(bands) == len(oracle), f"{label}, orbit {orbit.label()}"
            for b, (lo, hi) in zip(bands, oracle):
                worst = max(worst, abs(b.lo - lo), abs(b.hi - hi))
        assert worst < 1e-6

    def test_free_case_is_single_band(self):
        for orbit in enumerate_orbits(5):
            bands = periodic_bands(orbit, FREE)
            assert len(bands) == 1
            assert bands[0].lo == pytest.approx(-2.0, abs=1e-9)
            assert bands[0].hi == pytest.approx(2.0, abs=1e-9)

    def test_narrow_band_found(self):
        # strong Bernoulli coupling makes very narrow bands; at tol = 1e-12
        # none may be lost or merged with a neighbour
        f = bernoulli(5.0)
        for orbit in enumerate_orbits(6):
            bands = periodic_bands(orbit, f, tol=1e-12)
            oracle = eigen_band_oracle(orbit.potential_values(f), merge_gap=1e-11)
            assert len(bands) == len(oracle)

    def test_left_limit_bands_only_through_breakpoints(self):
        f = bernoulli(5.0)
        for orbit in enumerate_orbits(6):
            sided = orbit_bands(orbit, f)
            assert sided[0] == (orbit.label(), periodic_bands(orbit, f))
            # 0 is the only periodic point on a breakpoint of 5 * chi_[0,1/2)
            assert len(sided) == (2 if orbit.label() == "0/1" else 1)
        [(label, [band])] = orbit_bands(enumerate_orbits(1)[0], f)[1:]
        assert label == "0/1-"
        assert band.lo == pytest.approx(-2.0, abs=1e-9)
        assert band.hi == pytest.approx(2.0, abs=1e-9)
        for orbit in enumerate_orbits(4):
            assert len(orbit_bands(orbit, cosine(0.5))) == 1

    def test_narrow_bands_at_period_twelve(self):
        # the discriminant scan found 8 of these 12 bands, missing the two
        # slivers near 6.5 and closing the gaps near -0.2 and 3.71
        pb = period_bands(bernoulli(5.0), 12)
        bands = [Band(*e) for e in zip(*pb.band_edges(1e-10)[pb.labels.index("109/1365")])]
        assert len(bands) == 12
        for lo, hi in ((6.4933, 6.4953), (6.5038, 6.5057)):
            assert any(abs(b.lo - lo) < 1e-4 and abs(b.hi - hi) < 1e-4 for b in bands)

    def test_dense_eigenvalues_at_period_twelve(self):
        # the scan was 4.48 off in Hausdorff distance on this orbit
        f = bernoulli(5.0)
        orbit = next(o for o in enumerate_orbits(12) if o.label() == "103/455")
        oracle = eigen_band_oracle(orbit.potential_values(f))
        pb = period_bands(f, 12)
        bands = [Band(*e) for e in zip(*pb.band_edges(1e-10)[pb.labels.index("103/455")])]
        assert len(bands) == len(oracle)
        for b, (lo, hi) in zip(bands, oracle):
            assert abs(b.lo - lo) < 1e-6 and abs(b.hi - hi) < 1e-6

    def test_period_bands_match_orbit_bands(self, monkeypatch):
        # the batched period engine and the one-orbit path give the same
        # labels and bands, left-limit potentials included, across blocks
        monkeypatch.setattr(spectrum, "EIGEN_BLOCK", 4)
        f = bernoulli(5.0)
        for p in range(1, 7):
            pb = period_bands(f, p)
            sided = [x for o in enumerate_orbits(p) if o.period == p
                     for x in orbit_bands(o, f)]
            assert pb.labels == [label for label, _ in sided]
            for (_, bands), edges in zip(sided, pb.band_edges(1e-10), strict=True):
                got = [Band(*e) for e in zip(*edges)]
                assert len(got) == len(bands)
                for a, b in zip(got, bands):
                    assert abs(a.lo - b.lo) < 1e-12 and abs(a.hi - b.hi) < 1e-12


def exact_disc(pots, energies):
    """Floquet discriminant in exact rational arithmetic at float energies.

    Near a nearly closed gap |disc| - 2 can be below the rounding of a float
    transfer product, so the property below evaluates it exactly.
    """
    out = []
    for E in energies:
        E = Fraction(E)
        a, b, c, d = Fraction(1), Fraction(0), Fraction(0), Fraction(1)
        for v in pots:
            t = E - Fraction(v)
            a, c = t * a - c, a
            b, d = t * b - d, b
        out.append(a + d)
    return out


class TestDiscriminantProperty:
    # the edges are eigenvalues; the discriminant must sit at +-2 there,
    # within 2 inside every band and beyond 2 inside every resolved gap
    @given(pots=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_edges_bands_and_gaps(self, pots):
        bands = potential_bands(pots)
        edges = [x for b in bands for x in (b.lo, b.hi)]
        assert max(abs(abs(D) - 2) for D in exact_disc(pots, edges)) <= 1e-6
        mids = [0.5 * (b.lo + b.hi) for b in bands]
        # a band may hold a merged gap narrower than MERGE_FACTOR * tol, where
        # |disc| exceeds 2 by far less than the edge bound
        assert all(abs(D) <= 2 + 1e-6 for D in exact_disc(pots, mids))
        resolution = RESOLUTION_FACTOR * 1e-10
        gap_mids = [0.5 * (a.hi + b.lo) for a, b in zip(bands, bands[1:])
                    if b.lo - a.hi > resolution]
        assert all(abs(D) > 2 for D in exact_disc(pots, gap_mids))


def polynomial_disc(pots):
    """The discriminant as a numpy Polynomial: the trace of the product of step matrices."""
    a, b, c, d = Polynomial([1.0]), Polynomial([0.0]), Polynomial([0.0]), Polynomial([1.0])
    for v in pots:
        t = Polynomial([-v, 1.0])
        a, b, c, d = t * a - c, t * b - d, a, b
    return a + d


class TestDiscriminantKernel:
    # spectrum._discriminant's disc, disc' and disc'' against a Polynomial
    # and its derivatives, relative to the size of the evaluated terms
    @given(pots=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=10),
           energies=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_derivatives_match_the_polynomial(self, pots, energies):
        E = np.array([energies])
        got = spectrum._discriminant(np.array([pots]), E, 2)
        poly = polynomial_disc(pots)
        for k, values in enumerate(got):
            exact = poly.deriv(k)
            for e, value in zip(energies, values[0]):
                scale = float(np.sum(np.abs(exact.coef) * abs(e) ** np.arange(len(exact.coef))))
                # a zero polynomial (disc'' at p = 1) is compared absolutely
                assert abs(value - exact(e)) <= (1e-9 * scale if scale else 1e-12)

    @given(pots=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=10),
           energies=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_lower_orders_are_leading_entries(self, pots, energies):
        rows, E = np.array([pots, pots[::-1]]), np.array([energies, energies[::-1]])
        full = spectrum._discriminant(rows, E, 2)
        for order in (0, 1):
            part = spectrum._discriminant(rows, E, order)
            assert len(part) == order + 1
            assert all(np.array_equal(x, y) for x, y in zip(part, full))


class TestUnionSpectrum:
    def test_free_union(self):
        for P in (1, 3, 5):
            s = union_spectrum(FREE, P)
            assert len(s.bands) == 1
            assert s.bands[0].lo == pytest.approx(-2.0, abs=1e-9)
            assert s.bands[0].hi == pytest.approx(2.0, abs=1e-9)
            assert s.max_period_used == P

    def test_bernoulli_fixed_point_only(self):
        # period 1 is the fixed point 0 read from both sides: f(0) = 5 gives
        # V = 5 and the band [3, 7]; the left limit f(0-) = 0 gives the free
        # potential and the band [-2, 2]
        s = union_spectrum(bernoulli(5.0), 1)
        assert len(s.bands) == 2
        for band, (lo, hi) in zip(s.bands, [(-2.0, 2.0), (3.0, 7.0)]):
            assert band.lo == pytest.approx(lo, abs=1e-9)
            assert band.hi == pytest.approx(hi, abs=1e-9)

    def test_cosine_hull_contains_fixed_point_band(self):
        s = union_spectrum(cosine(0.5), 4)
        assert s.hull[0] <= -1.0 + 1e-9 and s.hull[1] >= 3.0 - 1e-9

    @pytest.mark.parametrize("P", [1, 2, 3, 4, 5])
    def test_monotone_in_period(self, P):
        f = cosine(0.5)
        small = union_spectrum(f, P)
        big = union_spectrum(f, P + 1)
        for band in small.bands:
            for x in np.linspace(band.lo, band.hi, 7):
                assert big.covers(float(x), slack=1e-8)


class TestUnionProperty:
    # the union over periods <= P + 1 contains the union over periods <= P
    @given(c=st.floats(-3.0, 3.0), step=st.booleans(), P=st.integers(1, 7))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_max_period(self, c, step, P):
        f = bernoulli(2 * c) if step else cosine(c / 2)
        small, big = union_spectrum(f, P), union_spectrum(f, P + 1)
        for band in small.bands:
            for x in np.linspace(band.lo, band.hi, 5):
                assert big.covers(float(x), slack=1e-8)


class TestGapReport:
    def test_single_band_no_gaps(self):
        s = SpectrumApprox(bands=[Band(-2.0, 2.0)], max_period_used=3)
        assert gap_report(s) == []

    def test_two_bands(self):
        s = SpectrumApprox(bands=[Band(-2.0, 2.0), Band(3.0, 7.0)], max_period_used=1)
        assert gap_report(s) == [((2.0, 3.0), 1.0)]

    def test_sorted_by_length(self):
        s = SpectrumApprox(
            bands=[Band(0.0, 1.0), Band(1.5, 2.0), Band(4.0, 5.0)], max_period_used=1
        )
        report = gap_report(s)
        assert report[0] == ((2.0, 4.0), 2.0)
        assert report[1] == ((1.0, 1.5), 0.5)

    def test_below_resolution_filtered(self):
        tiny = 5e-9  # below resolution for tol = 1e-10
        s = SpectrumApprox(
            bands=[Band(0.0, 1.0), Band(1.0 + tiny, 2.0)], max_period_used=1, tol=1e-10
        )
        assert gap_report(s) == []
        [(gap, width)] = gap_report(s, include_below_resolution=True)
        assert gap == (1.0, 1.0 + tiny)
        assert width == pytest.approx(tiny, rel=1e-6)


class TestDichotomySpectrumConsistency:
    # uniform draws alone cannot refute hyperbolicity inside the spectrum of
    # pseudo-random potentials (the a.s. exponent is positive there); the
    # periodic probes in dichotomy_test supply the refutation, since energies
    # inside the band union sit in some probed orbit's elliptic band
    @pytest.mark.parametrize("f", [FREE, cosine(0.5), bernoulli(5.0)],
                             ids=["free", "cos-0.5", "bernoulli-5"])
    def test_hyperbolic_outside_union_and_interior_not(self, f):
        from dmspec import dichotomy_test

        s = union_spectrum(f, 8)
        for E in np.linspace(s.hull[0] - 1.0, s.hull[1] + 1.0, 31):
            rep = dichotomy_test(f, float(E), sample_count=60, depth=60, seed=7)
            if rep.is_hyperbolic:
                assert not s.covers(float(E), slack=1e-9)
            deep = any(b.lo + 0.1 < E < b.hi - 0.1 for b in s.bands)
            if deep:
                assert not rep.is_hyperbolic


#: spectrum._edges as imported, before any test wraps it: every row solved, no pairing
_full_edges = spectrum._edges


def _solved_rows(monkeypatch) -> list:
    """Wrap spectrum._edges; the row count of each call appends to the list."""
    counts = []

    def counting(rows):
        counts.append(len(rows))
        return _full_edges(rows)

    monkeypatch.setattr(spectrum, "_edges", counting)
    return counts


class Bumped:
    """cosine(0.5) raised by `bump` on the points k 2^j / d of one orbit, and nowhere else."""

    continuous = True

    def __init__(self, k: int, period: int, bump: float):
        d = 2 ** period - 1
        self.points = np.array([k * 2 ** j % d for j in range(period)]) / d
        self.bump = bump

    def __call__(self, omega):
        w = np.asarray(omega, dtype=float)
        return cosine(0.5)(w) + self.bump * np.isin(w, self.points)

    def left_limit(self, omega):
        return self(omega)

    def breakpoint_mask(self, omega):
        return np.zeros(np.shape(omega), dtype=bool)


class TestConjugatePairs:
    # the orbit of -w reuses the edges of the orbit of w only when the rows
    # check out: equal within 8 p eps (1 + max|v|), or summing to a constant
    @pytest.mark.parametrize("f", [FREE, cosine(0.5), cosine(3.0), bernoulli(5.0)],
                             ids=["free", "cos-0.5", "cos-3", "bernoulli-5"])
    def test_paired_edges_are_within_the_bound_of_a_full_solve(self, monkeypatch, f):
        eps = np.finfo(float).eps
        solved = _solved_rows(monkeypatch)
        for p in range(1, 15):
            pb = period_bands(f, p)
            _, rows, _ = spectrum._sided_rows(f, p)
            full = _full_edges(rows)
            scale = 2.0 + np.abs(rows).max()
            bound = spectrum.POLISH_MARGIN * p * eps * scale + 8 * p * eps * scale
            assert np.abs(pb.edges - full).max() <= bound, p
            counts = spectrum._row_bands(full, spectrum.TOL)[2]
            assert np.array_equal(spectrum._row_bands(pb.edges, spectrum.TOL)[2], counts)
            if p >= 3:
                # every orbit but the self-conjugate ones has a partner
                assert solved[-1] < len(rows)
        # periods 1 .. 14 hold 2537 right-continuous rows; about half are solved
        assert sum(solved) < 0.51 * 2537 + 2

    @pytest.mark.parametrize("f", [TrigPoly(cos_coeffs=(1.0,), sin_coeffs=(0.5,)),
                                   Step((0.0, 0.3), (1.0, 0.0))],
                             ids=["sine-term", "asymmetric-step"])
    def test_asymmetric_f_solves_every_row(self, monkeypatch, f):
        solved = _solved_rows(monkeypatch)
        for p in range(1, 11):
            pb = period_bands(f, p)
            assert solved[-1] == len(pb.labels)

    def test_an_orbit_altered_alone_loses_its_pair_only(self, monkeypatch):
        # 3/31 and its conjugate 7/31 (28 = 7 * 2^2 mod 31): the row of 3/31
        # bumped by 1e-9, far above the pairing bound, is solved with 7/31,
        # and every other row keeps its edges bit for bit
        solved = _solved_rows(monkeypatch)
        plain = period_bands(cosine(0.5), 5)
        bumped = period_bands(Bumped(3, 5, 1e-9), 5)
        assert solved == [3, 4]
        pair = [plain.labels.index("3/31"), plain.labels.index("7/31")]
        rest = np.setdiff1d(np.arange(len(plain.labels)), pair)
        assert np.array_equal(bumped.edges[rest], plain.edges[rest])
        _, rows, _ = spectrum._sided_rows(Bumped(3, 5, 1e-9), 5)
        assert np.array_equal(bumped.edges[pair], _full_edges(rows[pair]))
        assert not np.array_equal(bumped.edges[pair[0]], plain.edges[pair[0]])


class TestLabels:
    # labels come from the int64 orbit minima; they equal PeriodicOrbit.label(),
    # left limits included, and the rows are the sided potentials
    @pytest.mark.parametrize("f", [bernoulli(5.0),
                                   Step((0.0, 1 / 7, 1 / 3, 0.6), (1.0, 2.0, -1.0, 0.5))],
                             ids=["bernoulli-5", "step-1/7-1/3-3/5"])
    def test_labels_and_rows_equal_the_sided_potentials(self, f):
        lefts = set()
        for p in range(1, 11):
            sided = [x for o in enumerate_orbits(p) if o.period == p for x in o.sided_potentials(f)]
            pb = period_bands(f, p)
            assert pb.labels == [label for label, _ in sided]
            assert np.array_equal(spectrum._sided_rows(f, p)[1], [pots for _, pots in sided])
            lefts |= {label for label in pb.labels if label.endswith("-")}
        assert lefts == ({"0/1-"} if f == bernoulli(5.0) else {"0/1-", "1/3-", "1/5-", "1/7-"})
