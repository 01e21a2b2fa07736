"""The band-edge check of verify: its certificate and the faults it sees."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmspec import (
    PeriodicOrbit,
    Step,
    TrigPoly,
    bernoulli,
    cocycle,
    cosine,
    dynamics,
    enumerate_orbits,
    ids,
    sampling,
    schwartzman,
    spectrum,
    union_spectrum,
    verify,
)
from dmspec.dynamics import orbit_table
from dmspec.sampling import forward_orbit, from_json
from dmspec.spectrum import MERGE_FACTOR, bands_by_period, merge_bands
from dmspec.verify import (
    Params,
    _lyndon_minima,
    _oracle_potentials,
    check_band_edge_oracle,
    check_determinants,
    check_digit_independence,
    check_disconnection,
    check_gap_labelling,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _faulty_edges(monkeypatch, fault):
    """Make spectrum._edges return fault(its edges), a copy to change."""
    original = spectrum._edges
    monkeypatch.setattr(spectrum, "_edges", lambda rows: fault(original(rows).copy()))


class TestBandEdgeCheck:
    @pytest.mark.parametrize("f", [cosine(0.5), bernoulli(5.0)], ids=["cos-0.5", "bernoulli-5"])
    def test_passes(self, f):
        res = check_band_edge_oracle(f, bands_by_period(f, 6))
        assert res["passed"], res["detail"]
        assert "||disc| - 2|" in res["detail"] and "closed form" in res["detail"]

    @pytest.mark.parametrize("f", [cosine(3.0), cosine(1e-3)], ids=["cos-3", "cos-1e-3"])
    def test_passes_at_strong_and_weak_coupling(self, f):
        # a narrow band of 1/17 at 6 cos, and the narrow gaps of 1/7 at
        # 2e-3 cos, are below what a scan of the discriminant resolves
        res = check_band_edge_oracle(f, bands_by_period(f, 8))
        assert res["passed"], res["detail"]
        assert "70 potentials of periods <= 8" in res["detail"]

    def test_sees_a_shifted_top_edge(self, monkeypatch):
        def shift(edges):
            edges[:, -1] += 1e-5
            return edges

        _faulty_edges(monkeypatch, shift)
        res = check_band_edge_oracle(cosine(0.5), bands_by_period(cosine(0.5), 8))
        assert not res["passed"]
        assert res["detail"].startswith("orbit 0/1: ") and "off by 1.00e-05" in res["detail"]

    def test_passes_at_a_merged_gap_of_strong_coupling(self):
        # orbit 1/65 of 12 cos has a gap closed below MERGE_FACTOR * tol, where
        # disc + 2 has a double root; the float disc misses -2 by about 1e-5
        # there, which the second-order step turns into about 1e-9 in energy
        res = check_band_edge_oracle(cosine(6.0), bands_by_period(cosine(6.0), 12))
        assert res["passed"], res["detail"]

    def test_sees_a_shifted_merged_gap(self, monkeypatch):
        # both edges of every merged gap moved up by 1e-5: the gap stays
        # merged, disc'' keeps the error in energy units, and it shows
        def shift(edges):
            at_gap = np.zeros(edges.shape, dtype=bool)
            at_gap[:, 1:-1:2] = at_gap[:, 2::2] = (
                edges[:, 2::2] - edges[:, 1:-1:2] <= spectrum.MERGE_FACTOR * 1e-10)
            edges[at_gap] += 1e-5
            return edges

        _faulty_edges(monkeypatch, shift)
        res = check_band_edge_oracle(TrigPoly(), bands_by_period(TrigPoly(), 3))
        assert not res["passed"]
        assert res["detail"].startswith("orbit 1/3: disc") and "off by 1.00e-05" in res["detail"]

    def test_sees_swapped_edges(self, monkeypatch):
        # bands (e0, e2) and (e1, e3) overlap, and merging them closes gap 0
        def swap(edges):
            if edges.shape[1] > 2:
                edges[:, [1, 2]] = edges[:, [2, 1]]
            return edges

        _faulty_edges(monkeypatch, swap)
        res = check_band_edge_oracle(cosine(0.5), bands_by_period(cosine(0.5), 8))
        assert not res["passed"]
        assert res["detail"].startswith("orbit 1/3: ") and "out of order" in res["detail"]

    @pytest.mark.parametrize("f, seen_by", [
        (cosine(0.5), "1 Dirichlet eigenvalues below the midpoint of band 0, want 0"),
        (cosine(1e-3), "want the trace"),
    ], ids=["cos-0.5", "cos-1e-3"])
    def test_sees_a_repeated_edge_hiding_a_gap(self, monkeypatch, f, seen_by):
        # edge 1 replaced by edge 2: band 0 swallows the gap above it while
        # every edge stays a root of the right sign; at 2e-3 cos the gap is
        # too narrow to move band 0's midpoint past the gap's Dirichlet
        # eigenvalue, and only the trace sum sees it
        def repeat(edges):
            if edges.shape[1] > 2:
                edges[:, 1] = edges[:, 2]
            return edges

        _faulty_edges(monkeypatch, repeat)
        res = check_band_edge_oracle(f, bands_by_period(f, 3))
        assert not res["passed"]
        assert res["detail"].startswith("orbit 1/7: ") and seen_by in res["detail"]

    def test_sees_a_dropped_left_limit(self, monkeypatch):
        # bernoulli-five without its left-limit potential f(0-) = 0 in the
        # engine: the oracle builds its own sided potentials and lists 0/1-
        original = PeriodicOrbit.sided_potentials
        monkeypatch.setattr(PeriodicOrbit, "sided_potentials",
                            lambda self, f: original(self, f)[:1])
        res = check_band_edge_oracle(bernoulli(5.0), bands_by_period(bernoulli(5.0), 8))
        assert not res["passed"]
        assert res["detail"] == "engine and orbit potentials differ: ['0/1-']"

    def test_sees_a_left_limit_dropped_by_engine_and_oracle(self, monkeypatch):
        # with no breakpoint seen, neither path lists f(0-) = 0, the two
        # agree, and only the closed form f(0-) +- 2 of the period-1 union
        # sees the missing band
        monkeypatch.setattr(Step, "breakpoint_mask",
                            lambda self, omega: np.zeros(np.shape(omega), dtype=bool))
        res = check_band_edge_oracle(bernoulli(5.0), bands_by_period(bernoulli(5.0), 8))
        assert not res["passed"]
        assert res["detail"].startswith("period-1 union") and "closed form" in res["detail"]

    def test_sees_an_orbit_dropped_from_the_orbit_table(self, monkeypatch):
        # the oracle's orbits owe nothing to orbit_table: dropped there, an
        # orbit goes missing from the engine alone, and the check names it
        table = dynamics.orbit_table
        missing = f"{table(7)[5, 0]}/127"

        def dropped(p):
            return np.delete(table(p), 5, axis=0) if p == 7 else table(p)

        monkeypatch.setattr(dynamics, "orbit_table", dropped)
        monkeypatch.setattr(spectrum, "orbit_table", dropped)
        res = check_band_edge_oracle(cosine(0.5), bands_by_period(cosine(0.5), 8))
        assert not res["passed"]
        assert res["detail"] == f"engine and orbit potentials differ: ['{missing}']"

    def test_sees_a_fault_in_the_shared_recursion(self, monkeypatch):
        # the polish and the certificate share spectrum._discriminant; with
        # its last site dropped the polish rejects every wrong Newton step,
        # so the edges stay the eigenvalues, and the certificate fails them
        f = cosine(0.5)
        sound = bands_by_period(f, 6)
        original = spectrum._discriminant
        monkeypatch.setattr(spectrum, "_discriminant",
                            lambda rows, E, order=0: original(rows[:, :-1], E, order))
        per_period = bands_by_period(f, 6)
        for pb, ok in zip(per_period, sound, strict=True):
            assert np.abs(pb.edges - ok.edges).max() < 1e-12
        res = check_band_edge_oracle(f, per_period)
        assert not res["passed"]
        assert "disc" in res["detail"] and "off by" in res["detail"]


class TestOraclePotentials:
    def test_lyndon_minima_are_the_table_minima(self):
        assert _lyndon_minima(14) == [orbit_table(p)[:, 0].tolist() for p in range(1, 15)]

    @pytest.mark.parametrize("f", [TrigPoly(), cosine(0.5), bernoulli(5.0), Step((0.0, 1 / 3), (1.0, -1.0))],
                             ids=["free", "cos-0.5", "bernoulli-5", "step-1/3"])
    def test_rows_are_the_sided_potentials_of_enumerate_orbits(self, f):
        want = [(o.period, label, pots) for o in enumerate_orbits(10)
                for label, pots in o.sided_potentials(f)]
        got = [(p, label, row) for p, (labels, rows) in enumerate(_oracle_potentials(f, 10), 1)
               for label, row in zip(labels, rows.tolist(), strict=True)]
        assert got == want


class TestEdgeTable:
    def test_sees_an_edited_edge_table(self):
        # the check certifies the table it is given: one stored edge moved
        # after bands_by_period, with the engine left alone, fails it
        f = cosine(0.5)
        per_period = bands_by_period(f, 8)
        assert check_band_edge_oracle(f, per_period)["passed"]
        per_period[3].edges[0, -1] += 1e-5
        res = check_band_edge_oracle(f, per_period)
        assert not res["passed"]
        assert res["detail"].startswith(f"orbit {per_period[3].labels[0]}: ")
        assert "off by 1.00e-05" in res["detail"]

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["cosine", "bernoulli", "step-1/3"]),
           coupling=st.floats(0.05, 6.0), tol=st.sampled_from([1e-10, 0.02]),
           max_period=st.integers(1, 9))
    def test_merging_edges_equals_merging_potential_bands(self, kind, coupling, tol, max_period):
        # a gap that band_edges closes in one potential is closed by the
        # union too, so merging the raw edges gives the very same floats
        f = {"cosine": cosine, "bernoulli": bernoulli,
             "step-1/3": lambda c: Step((0.0, 1.0 / 3.0), (c, -c))}[kind](coupling)
        per_period = bands_by_period(f, max_period)
        want = []
        for lo, hi in sorted((a, b) for pb in per_period for los, his in pb.band_edges(tol)
                             for a, b in zip(los, his)):
            if want and lo - want[-1][1] <= MERGE_FACTOR * tol:
                want[-1][1] = max(want[-1][1], hi)
            else:
                want.append([lo, hi])
        assert [[b.lo, b.hi] for b in merge_bands(per_period, tol).bands] == want


class TestBandReuse:
    @pytest.mark.parametrize("f", [cosine(0.5), bernoulli(5.0)], ids=["cos-0.5", "bernoulli-5"])
    def test_prefix_merges_equal_union_spectrum(self, f):
        # run_verification merges prefixes of one bands_by_period call, at
        # the band tolerance and at the coarse one, in place of union_spectrum
        per_period = bands_by_period(f, 9)
        for p in range(1, 10):
            assert merge_bands(per_period[:p], 1e-10).bands == union_spectrum(f, p).bands
        assert merge_bands(per_period, 0.02).bands == union_spectrum(f, 9, tol=0.02).bands


class TestUnimodularity:
    # each trial stops before the step whose entries would pass 3e3; the
    # step past it left det rounding of about |P|^2 * eps above 1e-9 * n
    @pytest.mark.parametrize("f, seeds", [
        (bernoulli(5.0), (39, 45, 55, 71)),
        (cosine(3.0), (2, 8, 12, 46, 47, 60, 69, 93)),
    ], ids=["bernoulli-5", "cos-3"])
    def test_passes_where_the_last_step_passed_3e3(self, f, seeds):
        hull = union_spectrum(f, 8).hull
        for seed in seeds:
            res = check_determinants(f, hull, seed=seed)
            assert res["passed"], (seed, res["detail"])

    @pytest.mark.parametrize("f, hull", [
        (TrigPoly(), (-2.0, 2.0)),
        (cosine(0.5), (-3.0, 3.0)),
        (bernoulli(5.0), (-2.0, 7.0)),
        (Step((0.0, 1 / 3), (1.0, -1.0)), (-3.0, 3.0)),
        (lambda w: np.where(np.asarray(w) < 0.5, np.nan, 1.0), (-3.0, 3.0)),
    ], ids=["free", "cos-0.5", "bernoulli-5", "step-1/3", "nan-on-half"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in det")
    def test_detail_equals_a_loop_per_energy(self, f, hull):
        # the batched trials against one product per energy, each stopped
        # at its own first step past 3e3; a NaN product never stops
        for seed in range(20):
            rng = np.random.default_rng(seed)
            energies = [float(rng.uniform(hull[0], hull[1])) for _ in range(24)]
            energies += [hull[0] - 0.5, hull[1] + 0.5]
            worst = 0.0
            for E in energies:
                pots = np.atleast_1d(f(forward_orbit(float(rng.random()), 64)))
                P, n = np.array([[E - pots[0], -1.0], [1.0, 0.0]]), 1
                for v in pots[1:]:
                    Q = np.array([[E - v, -1.0], [1.0, 0.0]]) @ P
                    if np.abs(Q).max() > 3e3:
                        break
                    P, n = Q, n + 1
                worst = max(worst, abs(float(np.linalg.det(P)) - 1.0) / n)
            res = check_determinants(f, hull, seed=seed)
            assert res["detail"] == f"max |det - 1|/n = {worst:.2e} over 26 products with entries <= 3e3"
            assert res["passed"] == (worst < 1e-9)

    def test_sees_a_step_off_det_one(self, monkeypatch):
        step = cocycle.step_matrix
        monkeypatch.setattr(cocycle, "step_matrix", lambda E, v: step(E, v) * np.sqrt(1.0 + 1e-8))
        f = cosine(0.5)
        res = check_determinants(f, union_spectrum(f, 8).hull)
        assert not res["passed"] and "entries <= 3e3" in res["detail"]


class TestDigitIndependence:
    # the stable direction at either preimage of w, pushed through its own
    # step, lands on the one at w
    CASES = [(TrigPoly(), (-2.0, 2.0)), (cosine(0.5), (-3.0, 3.0)), (bernoulli(5.0), (-2.0, 7.0))]

    @pytest.mark.parametrize("f, hull", CASES, ids=["free", "cos-0.5", "bernoulli-5"])
    def test_passes(self, f, hull):
        res = check_digit_independence(f, hull)
        assert res["passed"], res["detail"]

    @pytest.mark.parametrize("f, hull", CASES[1:], ids=["cos-0.5", "bernoulli-5"])
    def test_sees_the_step_taken_at_w(self, monkeypatch, f, hull):
        # f = 0 cannot see it: there every step is the same matrix
        step = cocycle.step_matrix
        monkeypatch.setattr(cocycle, "step_matrix", lambda E, v: step(E, f(0.372)))
        res = check_digit_independence(f, hull)
        assert not res["passed"], res["detail"]


def _counted(monkeypatch, fn) -> list:
    """Replace fn wherever a dmspec module binds it by a wrapper; its calls append to the list."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "dmspec" or name.startswith("dmspec."):
            for attr in [a for a, value in vars(module).items() if value is fn]:
                monkeypatch.setattr(module, attr, counting)
    return calls


def _during(monkeypatch, check: str, calls: list) -> list:
    """The number of entries added to calls during each run of verify.<check>."""
    seen = []
    fn = getattr(verify, check)

    def measured(*args, **kwargs):
        before = len(calls)
        try:
            return fn(*args, **kwargs)
        finally:
            seen.append(len(calls) - before)

    monkeypatch.setattr(verify, check, measured)
    return seen


class TestBatchedChecks:
    # the call counts of the batched checks are fixed, so a return to one
    # call per case or per orbit shows here
    @pytest.mark.parametrize("name", ["bernoulli-five", "cosine-half"])
    def test_call_counts_of_a_verify_round(self, monkeypatch, name):
        obj = json.loads((CONFIGS / f"{name}.json").read_text())
        params = verify.VERIFY_DEFAULTS.updated(obj.pop("command"))
        f = from_json(obj)
        orbits = _counted(monkeypatch, dynamics.enumerate_orbits)
        cores = _counted(monkeypatch, cocycle._stable_core)
        sturms = _counted(monkeypatch, ids._sturm_counts)
        digit = _during(monkeypatch, "check_digit_independence", cores)
        sturm = _during(monkeypatch, "check_sturm_counts", sturms)
        assert verify.run_verification(f, params)["all_passed"]
        assert orbits == []
        assert digit == [1] and sturm == [1]

    def test_determinant_orbits_are_one_array_pass(self, monkeypatch):
        orbits = _counted(monkeypatch, forward_orbit)
        batches = _counted(monkeypatch, sampling._float_orbits)
        assert check_determinants(cosine(0.5), (-3.0, 3.0), seed=3)["passed"]
        assert orbits == [] and batches == ["_float_orbits"]

    def test_dichotomy_probes_build_no_labels(self, monkeypatch):
        labels = _counted(monkeypatch, spectrum._labels)
        points = []
        init = dynamics.CirclePoint.__post_init__
        monkeypatch.setattr(dynamics.CirclePoint, "__post_init__",
                            lambda self: (points.append(self), init(self)))
        assert cocycle.dichotomy_test(bernoulli(5.0), [-3.0, 8.0], sample_count=20)[0].is_hyperbolic
        assert labels == []
        # only the left limit of the fixed point 0 builds its orbit
        assert len(points) == 1


class TestRotationEvidence:
    # the gap checks fail when a rotation number's section or winding loses
    # its independent evidence, and name which one
    SMALL = Params(max_period=4, N=64, M=8, grid_points=201, steps=300, omega_samples=4)
    CHECKS = [(cosine(0.5), check_gap_labelling), (bernoulli(5.0), check_disconnection)]

    @pytest.mark.parametrize("f, check", CHECKS, ids=["labelling", "disconnection"])
    def test_passes(self, f, check):
        res = check(f, bands_by_period(f, 4), self.SMALL)
        assert res["passed"], res["detail"]
        assert "winding_oracle_dev" not in res["detail"]

    @pytest.mark.parametrize("f, check", CHECKS, ids=["labelling", "disconnection"])
    def test_fails_on_an_energy_past_the_oracle_budget(self, monkeypatch, f, check):
        # the estimate's error reaches the check, which fails and names it
        monkeypatch.setattr(schwartzman, "ORACLE_ENTRIES", 32)
        res = check(f, bands_by_period(f, 4), self.SMALL)
        assert not res["passed"]
        assert res["detail"].startswith("error: E = ")
        assert "winding oracle substeps" in res["detail"]

    @pytest.mark.parametrize("f, check", CHECKS, ids=["labelling", "disconnection"])
    def test_sees_a_winding_off_its_oracle(self, monkeypatch, f, check):
        closed = schwartzman._winding_closed
        monkeypatch.setattr(schwartzman, "_winding_closed", lambda *a: closed(*a) + 1e-6)
        res = check(f, bands_by_period(f, 4), self.SMALL)
        assert not res["passed"] and "winding_oracle_dev 1.00e-06" in res["detail"]

    @pytest.mark.parametrize("f, check", CHECKS, ids=["labelling", "disconnection"])
    def test_sees_a_section_off_the_windowed_directions(self, monkeypatch, f, check):
        sweep = schwartzman._stable_sweep

        def rotated(E, pots, depth):
            x, y = sweep(E, pots, depth)
            c, s = np.cos(1e-3), np.sin(1e-3)
            return c * x - s * y, s * x + c * y

        monkeypatch.setattr(schwartzman, "_stable_sweep", rotated)
        res = check(f, bands_by_period(f, 4), self.SMALL)
        assert not res["passed"] and "max_reanchor_residual" in res["detail"]
