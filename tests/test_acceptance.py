"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.

Criterion 3 is split: test_criterion_3_bernoulli_structure checks the
band-structure, gap, and label clauses, and test_criterion_3_hausdorff the
Hausdorff clause.  The all-zero potential of the two-valued model lies in the
hull as the left limit of the fixed point 0 (f(0-) = 0), and the band union
includes such left-limit orbits, so the free band [-2, 2] is present from
period 1 on and the period-10 union meets [-2, 2] u [3, 7] to about 1e-10.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from dmspec import (
    TrigPoly,
    Verdict,
    bernoulli,
    cocycle_product,
    cosine,
    dichotomy_test,
    enumerate_orbits,
    gap_label,
    gap_report,
    ids_estimate,
    integrality_check,
    periodic_bands,
    rotation_number,
    union_spectrum,
)
from dmspec.ids import default_energy_grid
from dmspec.spectrum import bands_by_period
from dmspec.verify import (
    check_band_edge_oracle,
    check_digit_independence,
    check_sturm_counts,
    covers_interval,
)

FREE = TrigPoly()


def _distance_to_intervals(x: np.ndarray, intervals: np.ndarray) -> np.ndarray:
    """Distance from each point of x to the union of the closed (n, 2) intervals."""
    lo, hi = intervals[None, :, 0], intervals[None, :, 1]
    d = np.minimum(np.abs(x[:, None] - lo), np.abs(x[:, None] - hi))
    d[(lo <= x[:, None]) & (x[:, None] <= hi)] = 0.0
    return d.min(axis=1)


def hausdorff_to_intervals(bands, targets) -> float:
    """Hausdorff distance between a band union and a union of closed intervals."""
    pts = []
    for lo, hi in targets:
        pts.append(np.linspace(lo, hi, max(int((hi - lo) * 2000), 2)))
    target_pts = np.concatenate(pts)
    band_arr = np.array([[b.lo, b.hi] for b in bands])
    band_pts = np.concatenate([np.linspace(b.lo, b.hi, max(int(b.width * 2000), 2)) for b in bands])
    return float(max(_distance_to_intervals(target_pts, band_arr).max(),
                     _distance_to_intervals(band_pts, np.asarray(targets, dtype=float)).max()))


def report(name, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {name}: {status} [{elapsed:.1f}s / limit {limit}s] {detail}")


def test_criterion_1_fixed_point_bands():
    t0 = time.perf_counter()
    worst = 0.0
    orbit0 = enumerate_orbits(1)[0]
    for lam in (0.5, 1.0):
        bands = periodic_bands(orbit0, cosine(lam))
        assert len(bands) == 1
        worst = max(worst, abs(bands[0].lo - (2 * lam - 2)), abs(bands[0].hi - (2 * lam + 2)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 1.0
    report("1 fixed-point bands", ok, elapsed, 1, f"max edge error {worst:.2e}")
    assert worst < 1e-8
    assert elapsed < 1.0


def test_criterion_2_containment():
    t0 = time.perf_counter()
    ok = True
    for lam in (0.5, 1.0):
        f = cosine(lam)
        lo, hi = 2 * lam - 2, 2 * lam + 2
        for max_period in range(1, 11):
            s = union_spectrum(f, max_period)
            if not covers_interval(s, lo, hi, 1e-6):
                ok = False
    elapsed = time.perf_counter() - t0
    report("2 containment", ok and elapsed < 30, elapsed, 30,
           "fixed-point band covered at every max_period 1..10")
    assert ok
    assert elapsed < 30.0


def test_criterion_3_bernoulli_structure():
    t0 = time.perf_counter()
    f = bernoulli(5.0)
    # the circle orbits alone leave micro-gaps up to 0.18 inside the lower
    # cluster; the left-limit band [-2, 2] of the fixed point covers them,
    # and the coarse merge scale (10 * tol = 0.2) would close them as well
    coarse = union_spectrum(f, 10, tol=0.02)
    two_bands = len(coarse.bands) == 2
    gaps = coarse.gaps
    gap_ok = bool(gaps) and gaps[0][0] <= 2.1 and gaps[0][1] >= 2.9

    grid = default_energy_grid((-2.0, 7.0), 2001)
    table = ids_estimate(f, grid, truncation_size=512, sample_count=64, seed=0)
    label = gap_label(table, (2.0, 3.0))
    label_ok = abs(label - 0.5) <= 0.02
    elapsed = time.perf_counter() - t0
    ok = two_bands and gap_ok and label_ok and elapsed < 120
    report("3 bernoulli structure", ok, elapsed, 120,
           f"bands={len(coarse.bands)}, gap=({gaps[0][0]:.3f},{gaps[0][1]:.3f}), "
           f"label={label:.4f}")
    assert two_bands
    assert gap_ok
    assert label_ok
    assert elapsed < 120.0


def test_criterion_3_hausdorff():
    # stated bound: Hausdorff distance 0.05 from [-2,2] u [3,7] at period 10.
    # The lower band comes from the left limit of the fixed point (V = 0);
    # the circle orbits alone top out at 2 cos(pi/10) = 1.90211, a distance
    # of 2 - 2cos(pi/10) ~ 0.098, so the bound tells the two apart.
    t0 = time.perf_counter()
    fine = union_spectrum(bernoulli(5.0), 10)
    h = hausdorff_to_intervals(fine.bands, [(-2.0, 2.0), (3.0, 7.0)])
    elapsed = time.perf_counter() - t0
    report("3 bernoulli hausdorff", h <= 0.05 and elapsed < 120, elapsed, 120,
           f"hausdorff={h:.2e} (bound 0.05; circle orbits alone give "
           f"2 - 2cos(pi/10) = {2 - 2 * math.cos(math.pi / 10):.4f})")
    assert elapsed < 120.0
    assert h <= 0.05, (
        f"Hausdorff distance {h:.4f} > 0.05: is the left-limit band [-2, 2] "
        f"of the fixed point missing from the union?"
    )


def test_criterion_4_gap_shrinkage():
    t0 = time.perf_counter()
    f = cosine(0.5)
    maxgaps = []
    for max_period in (4, 6, 8, 10, 12):
        s = union_spectrum(f, max_period)
        rep = gap_report(s)
        maxgaps.append(rep[0][1] if rep else 0.0)
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(maxgaps, maxgaps[1:]))
    # "below 50%" is met with equality when the period-4 union is already
    # gapless, which is what this coupling produces
    halved = maxgaps[-1] <= 0.5 * maxgaps[0]
    elapsed = time.perf_counter() - t0
    ok = nonincreasing and halved and elapsed < 300
    report("4 gap shrinkage", ok, elapsed, 300,
           "max gaps " + ", ".join(f"{g:.3g}" for g in maxgaps))
    assert nonincreasing
    assert halved
    assert elapsed < 300.0


def test_criterion_4_gap_shrinkage_at_strong_coupling():
    # cosine(3.0) keeps interior gaps at every period, so here a union that
    # stopped shrinking fails; the max gaps read 2.5, 0.975, 0.209, 0.0798, 0.0298
    t0 = time.perf_counter()
    f = cosine(3.0)
    maxgaps = []
    for max_period in (4, 6, 8, 10, 12):
        rep = gap_report(union_spectrum(f, max_period))
        maxgaps.append(rep[0][1] if rep else 0.0)
    nonzero = all(g > 0.0 for g in maxgaps)
    shrinking = all(b < a for a, b in zip(maxgaps, maxgaps[1:]))
    halved = maxgaps[-1] <= 0.5 * maxgaps[0]
    elapsed = time.perf_counter() - t0
    ok = nonzero and shrinking and halved and elapsed < 300
    report("4 gap shrinkage, strong coupling", ok, elapsed, 300,
           "max gaps " + ", ".join(f"{g:.3g}" for g in maxgaps))
    assert nonzero
    assert shrinking
    assert halved
    assert elapsed < 300.0


def test_criterion_5_free_ids_oracle():
    t0 = time.perf_counter()
    grid = np.linspace(-2.0, 2.0, 101)
    table = ids_estimate(FREE, grid, truncation_size=512, sample_count=64, seed=0)
    oracle = np.where(grid <= -2, 0.0,
                      np.where(grid >= 2, 1.0, 1.0 - np.arccos(np.clip(grid / 2, -1, 1)) / np.pi))
    err = float(np.abs(table.k_values - oracle).max())
    elapsed = time.perf_counter() - t0
    ok = err < 0.03 and elapsed < 60
    report("5 free IDS oracle", ok, elapsed, 60, f"max |k - oracle| = {err:.4f}")
    assert err < 0.03
    assert elapsed < 60.0


def test_criterion_6_gap_labelling_identity():
    t0 = time.perf_counter()
    details = []
    ok = True
    for f in (FREE, cosine(0.5)):
        s = union_spectrum(f, 10)
        grid = default_energy_grid(s.hull, 2001)
        table = ids_estimate(f, grid, truncation_size=512, sample_count=64, seed=0)
        for E, expected in ((s.hull[0] - 0.5, 1), (s.hull[1] + 0.5, 0)):
            est = rotation_number(f, E, omega_samples=32, steps=2000, seed=0)
            k = table.value_at(E)
            verdict = integrality_check(est)
            close = abs(est.value - (1.0 - k)) < 0.03
            integer_ok = verdict.verdict is Verdict.INTEGER and verdict.integer == expected
            ok = ok and close and integer_ok
            details.append(f"E={E:+.2f}: rot={est.value:+.4f} 1-k={1 - k:+.4f} "
                           f"-> {verdict.verdict.value}({verdict.integer})")
    elapsed = time.perf_counter() - t0
    report("6 gap labelling", ok and elapsed < 120, elapsed, 120, "; ".join(details))
    assert ok, details
    assert elapsed < 120.0


def test_criterion_7_bernoulli_non_integer():
    t0 = time.perf_counter()
    est = rotation_number(bernoulli(5.0), 2.5, omega_samples=32, steps=2000, seed=0)
    verdict = integrality_check(est)
    value_ok = abs(est.value - 0.5) <= 0.02
    verdict_ok = verdict.verdict is Verdict.NON_INTEGER
    elapsed = time.perf_counter() - t0
    ok = value_ok and verdict_ok and elapsed < 60
    report("7 bernoulli non-integer", ok, elapsed, 60,
           f"rot={est.value:.4f} +- {est.stderr:.4f} -> {verdict.verdict.value}")
    assert value_ok
    assert verdict_ok
    assert elapsed < 60.0


def test_criterion_8_structural_oracles():
    t0 = time.perf_counter()
    details = []

    sturm = check_sturm_counts(seed=0)
    details.append(f"sturm: {sturm['detail']}")

    edges_ok = True
    for f in (cosine(0.5), bernoulli(5.0)):
        res = check_band_edge_oracle(f, bands_by_period(f, 8))
        edges_ok = edges_ok and res["passed"]
        details.append(f"edges: {res['detail']}")

    rng = np.random.default_rng(0)
    det_worst = 0.0
    for _ in range(20):
        E = float(rng.uniform(-1.9, 1.9))
        n = int(rng.integers(1, 65))
        P = cocycle_product(FREE, E, float(rng.random()), n)
        det_worst = max(det_worst, abs(float(np.linalg.det(P)) - 1.0) / n)
    for E in (-3.0, 3.0):
        P = cocycle_product(cosine(0.5), E, 0.37, 8)
        det_worst = max(det_worst, abs(float(np.linalg.det(P)) - 1.0) / 8)
    det_ok = det_worst < 1e-9
    details.append(f"det: worst |det-1|/n = {det_worst:.2e}")

    resid_worst = 0.0
    hyper_ok = True
    for f, E in ((FREE, 3.0), (FREE, -2.5), (cosine(0.5), 3.5)):
        rep = dichotomy_test(f, E, sample_count=100, depth=60, seed=1)
        hyper_ok = hyper_ok and rep.is_hyperbolic
        resid_worst = max(resid_worst, rep.diagnostics["max_invariance_residual"])
    resid_ok = hyper_ok and resid_worst < 1e-6
    details.append(f"invariance: worst residual {resid_worst:.2e}")

    digits = check_digit_independence(cosine(0.5), (-3.0, 3.0))
    digits_ok = digits["passed"]
    details.append(f"digits: {digits['detail']}")

    elapsed = time.perf_counter() - t0
    ok = (sturm["passed"] and edges_ok and det_ok and resid_ok and digits_ok
          and elapsed < 60)
    report("8 structural oracles", ok, elapsed, 60, " | ".join(details))
    assert sturm["passed"], sturm["detail"]
    assert edges_ok
    assert det_ok
    assert resid_ok
    assert digits_ok
    assert elapsed < 60.0
