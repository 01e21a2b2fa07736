"""Transfer products, discriminants, stable directions, dichotomy, interpolation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmspec import (
    CirclePoint,
    DegenerateSingularValues,
    DichotomyReport,
    Direction,
    InvalidParameter,
    TrigPoly,
    bernoulli,
    cocycle_product,
    cosine,
    dichotomy_test,
    discriminant,
    enumerate_orbits,
    interpolated_step,
    most_contracted_direction,
    step_matrix,
)

FREE = TrigPoly()


def chebyshev_trace(p, E):
    """2 T_p(E/2) by the recurrence t_{k+1} = E t_k - t_{k-1}."""
    t_prev, t_cur = 2.0, E
    for _ in range(p - 1):
        t_prev, t_cur = t_cur, E * t_cur - t_prev
    return t_cur if p >= 1 else t_prev


class TestStepMatrix:
    def test_examples(self):
        assert np.array_equal(step_matrix(0, 0), [[0, -1], [1, 0]])
        assert np.array_equal(step_matrix(1, 0), [[1, -1], [1, 0]])
        assert np.array_equal(step_matrix(3, 1), [[2, -1], [1, 0]])

    def test_unit_determinant(self):
        assert np.linalg.det(step_matrix(2.3, -0.7)) == pytest.approx(1.0, abs=1e-14)

    def test_scalar_output_is_the_literal_matrix(self):
        v = np.float64(-0.7)
        got = step_matrix(2.3, v)
        assert got.shape == (2, 2) and got.dtype == np.float64
        assert np.array_equal(got, np.array([[2.3 - v, -1.0], [1.0, 0.0]]))

    def test_arrays_give_a_stack_of_the_scalar_matrices(self):
        rng = np.random.default_rng(4)
        E, v = rng.normal(size=(3, 1)), rng.normal(size=(3, 5))
        got = step_matrix(E, v)
        assert got.shape == (3, 5, 2, 2)
        for i in range(3):
            for j in range(5):
                assert np.array_equal(got[i, j], step_matrix(float(E[i, 0]), float(v[i, j])))
        assert step_matrix(1.5, v).shape == (3, 5, 2, 2)
        assert np.array_equal(step_matrix(1.5, v[0])[2], step_matrix(1.5, v[0, 2]))


class TestCocycleProduct:
    def test_single_step(self):
        E = 1.7
        assert np.allclose(cocycle_product(FREE, E, 0.3, 1), [[E, -1], [1, 0]])

    def test_rotation_squares_to_minus_identity(self):
        assert np.allclose(cocycle_product(FREE, 0.0, 0.3, 2), -np.eye(2), atol=1e-14)

    def test_free_power_oracle(self):
        P = cocycle_product(FREE, 2.0, 0.3, 3)
        assert np.allclose(P, np.linalg.matrix_power(step_matrix(2.0, 0.0), 3))
        assert np.trace(P) == pytest.approx(2.0 * chebyshev_trace(3, 2.0) / 2.0, abs=1e-12) \
            or np.trace(P) == pytest.approx(chebyshev_trace(3, 2.0), abs=1e-12)

    def test_left_multiplication_order(self):
        # Bernoulli at 1/3 gives potentials (5, 0): product must be A(0) @ A(5)
        f = bernoulli(5.0)
        E = 1.0
        got = cocycle_product(f, E, CirclePoint(1, 3), 2)
        expected = step_matrix(E, 0.0) @ step_matrix(E, 5.0)
        assert np.allclose(got, expected, atol=1e-14)
        assert not np.allclose(got, step_matrix(E, 5.0) @ step_matrix(E, 0.0))

    @given(E=st.floats(-1.9, 1.9), n=st.integers(1, 50),
           omega=st.floats(0, 1, exclude_max=True))
    @settings(max_examples=40, deadline=None)
    def test_unimodular_inside_band(self, E, n, omega):
        P = cocycle_product(FREE, E, omega, n)
        assert abs(np.linalg.det(P) - 1.0) <= 1e-9 * n

    def test_unimodular_hyperbolic_short(self):
        for E in (-3.0, 3.0, 2.5):
            P = cocycle_product(cosine(0.5), E, 0.37, 8)
            assert abs(np.linalg.det(P) - 1.0) <= 8e-9


class TestDiscriminant:
    def test_fixed_point_linear(self):
        orbit = enumerate_orbits(1)[0]
        f = TrigPoly(constant=1.5)
        for E in (-2.0, 0.0, 3.7):
            assert discriminant(orbit, f, E) == pytest.approx(E - 1.5, abs=1e-12)

    def test_period_two_free(self):
        orbit = enumerate_orbits(2)[1]
        assert discriminant(orbit, FREE, 0.0) == pytest.approx(-2.0, abs=1e-14)

    def test_period_two_cosine_coupling_two(self):
        # 2*lam*cos(2pi/3) = -lam on both orbit points; lam = 2 gives V = -2,
        # so at E = 0 each step matrix is [[2,-1],[1,0]] and tr of its square is 2
        orbit = enumerate_orbits(2)[1]
        assert discriminant(orbit, cosine(2.0), 0.0) == pytest.approx(2.0, abs=1e-12)
        # at lam = 1 the potential is -1 and the trace comes from [[1,-1],[1,0]]^2
        expected = np.trace(np.linalg.matrix_power(step_matrix(0.0, -1.0), 2))
        assert discriminant(orbit, cosine(1.0), 0.0) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_chebyshev_identity_free_case(self, p):
        orbits = [o for o in enumerate_orbits(p) if o.period == p]
        grid = np.linspace(-3, 3, 25)
        for orbit in orbits[:3]:
            for E in grid:
                assert discriminant(orbit, FREE, E) == pytest.approx(
                    chebyshev_trace(p, E), abs=1e-9)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_monic_degree_p(self, p):
        # finite differences at step h = 1: order p is constantly p!,
        # order p + 1 vanishes
        orbit = next(o for o in enumerate_orbits(p) if o.period == p)
        f = cosine(0.5)
        E0 = np.arange(p + 3, dtype=float)
        vals = np.array([discriminant(orbit, f, E) for E in E0])
        diffs = vals
        for _ in range(p):
            diffs = np.diff(diffs)
        assert diffs == pytest.approx([math.factorial(p)] * len(diffs), rel=1e-8)
        assert np.diff(diffs) == pytest.approx([0.0] * (len(diffs) - 1), abs=1e-6)

    def test_vectorized_matches_scalar(self):
        orbit = enumerate_orbits(3)[2]
        f = cosine(1.0)
        grid = np.linspace(-4, 4, 11)
        vec = discriminant(orbit, f, grid)
        assert vec == pytest.approx([discriminant(orbit, f, E) for E in grid])

    def test_keeps_the_shape_of_a_2d_energy_array(self):
        orbit = enumerate_orbits(3)[2]
        f = cosine(1.0)
        grid = np.linspace(-4, 4, 12).reshape(3, 4)
        out = discriminant(orbit, f, grid)
        assert out.shape == (3, 4)
        assert np.array_equal(out.ravel(), discriminant(orbit, f, grid.ravel()))
        assert isinstance(discriminant(orbit, f, 0.5), float)


class TestMostContracted:
    def test_stable_slope_above_spectrum(self):
        direction, converged = most_contracted_direction(FREE, 3.0, 0.2, 40)
        assert converged
        assert math.tan(direction.angle) == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-9)

    def test_stable_slope_below_spectrum(self):
        direction, converged = most_contracted_direction(FREE, -3.0, 0.2, 40)
        assert converged
        assert math.tan(direction.angle) == pytest.approx((-3 - math.sqrt(5)) / 2, abs=1e-9)

    def test_degenerate_inside_spectrum(self):
        with pytest.raises(DegenerateSingularValues):
            most_contracted_direction(FREE, 0.0, 0.2, 16)

    def test_eigendirection_invariance(self):
        direction, _ = most_contracted_direction(FREE, 3.0, 0.2, 40)
        v = direction.vector()
        image = step_matrix(3.0, 0.0) @ v
        image_dir = Direction.from_vector(*image)
        assert direction.distance(image_dir) < 1e-9


class TestDirection:
    def test_angle_reduced_mod_pi(self):
        assert Direction(math.pi + 0.3).angle == pytest.approx(0.3)

    def test_distance_wraps(self):
        assert Direction(0.05).distance(Direction(math.pi - 0.05)) == pytest.approx(0.1)

    @given(a=st.floats(0, math.pi, exclude_max=True),
           b=st.floats(0, math.pi, exclude_max=True))
    @settings(max_examples=50, deadline=None)
    def test_distance_symmetric_bounded(self, a, b):
        d1, d2 = Direction(a), Direction(b)
        assert d1.distance(d2) == pytest.approx(d2.distance(d1))
        assert 0 <= d1.distance(d2) <= math.pi / 2 + 1e-12


class TestDichotomy:
    def test_free_hyperbolic(self):
        rep = dichotomy_test(FREE, 3.0, sample_count=50, depth=60, seed=1)
        assert rep.is_hyperbolic
        assert rep.growth_rate == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=0.01)
        assert rep.diagnostics["max_invariance_residual"] < 1e-6

    def test_free_elliptic(self):
        rep = dichotomy_test(FREE, 0.0, sample_count=50, depth=60, seed=1)
        assert not rep.is_hyperbolic

    def test_free_weakly_hyperbolic(self):
        rep = dichotomy_test(FREE, 2.05, sample_count=50, depth=60, seed=1)
        assert rep.is_hyperbolic
        # the depth-60 estimate carries a log(prefactor)/depth bias
        expected = math.log((2.05 + math.sqrt(2.05**2 - 4)) / 2)
        assert rep.growth_rate == pytest.approx(expected, abs=0.04)

    def test_band_edge_not_hyperbolic(self):
        rep = dichotomy_test(FREE, 2.0, sample_count=30, depth=60, seed=1)
        assert not rep.is_hyperbolic

    def test_cosine_in_gap(self):
        rep = dichotomy_test(cosine(0.5), 3.5, sample_count=50, depth=60, seed=2)
        assert rep.is_hyperbolic
        assert rep.diagnostics["max_invariance_residual"] < 1e-6

    @pytest.mark.parametrize("f", [cosine(0.5), bernoulli(5.0)], ids=["cos-0.5", "bernoulli-5"])
    def test_probes_are_the_sided_potentials(self, f):
        # one probe per sided potential of every orbit of period <= PROBE_PERIODS,
        # left limits included
        from dmspec.cocycle import PROBE_PERIODS

        rep = dichotomy_test(f, 9.0, sample_count=5, depth=40, seed=1)
        expected = sum(len(o.sided_potentials(f)) for o in enumerate_orbits(PROBE_PERIODS))
        assert rep.diagnostics["probe_count"] == expected
        assert rep.is_hyperbolic

    def test_stable_directions_recorded(self):
        rep = dichotomy_test(FREE, 3.0, sample_count=10, depth=40, seed=3)
        assert len(rep.stable_direction_at) == 10
        slope = (3 + math.sqrt(5)) / 2
        for direction in rep.stable_direction_at.values():
            assert math.tan(direction.angle) == pytest.approx(slope, abs=1e-6)


#: configs with energies both hyperbolic and in a band of period <= PROBE_PERIODS
BATCHES = [(FREE, (3.0, 0.0, -3.0)), (cosine(0.5), (3.5, 0.0, -3.0)),
           (bernoulli(5.0), (2.5, 1.0, 7.5)), (cosine(3.0), (0.323, 6.0, 9.0, -3.0))]
BATCH_IDS = ["free", "cos-0.5", "bernoulli-5", "cos-3"]


class TestDichotomyOverEnergies:
    # a sequence of energies shares one draw; repr shows every float's bits

    @pytest.mark.parametrize("f, energies", BATCHES, ids=BATCH_IDS)
    def test_each_report_equals_its_own_call(self, f, energies):
        batch = dichotomy_test(f, energies, sample_count=40, depth=60, seed=5)
        alone = [dichotomy_test(f, E, sample_count=40, depth=60, seed=5) for E in energies]
        assert {r.is_hyperbolic for r in alone} == {True, False}
        assert [repr(r) for r in batch] == [repr(r) for r in alone]

    @pytest.mark.parametrize("f, energies", BATCHES, ids=BATCH_IDS)
    def test_reversed_energies_give_reversed_reports(self, f, energies):
        forward = dichotomy_test(f, energies, sample_count=40, depth=40, seed=6)
        backward = dichotomy_test(f, energies[::-1], sample_count=40, depth=40, seed=6)
        assert [repr(r) for r in backward] == [repr(r) for r in forward][::-1]

    def test_a_float_gives_a_report_and_a_sequence_a_list(self):
        rep = dichotomy_test(FREE, 3.0, sample_count=10, depth=40, seed=1)
        assert isinstance(rep, DichotomyReport)
        for energies in ([3.0], (3.0,), np.array([3.0])):
            [one] = dichotomy_test(FREE, energies, sample_count=10, depth=40, seed=1)
            assert repr(one) == repr(rep)



class TestInterpolatedStep:
    def test_identity_at_zero(self):
        assert np.allclose(interpolated_step(5.0, 1.0, 0.0), np.eye(2))

    def test_quarter_rotation_at_half(self):
        assert np.allclose(interpolated_step(5.0, 1.0, 0.5), [[0, -1], [1, 0]], atol=1e-12)

    def test_step_at_one(self):
        assert np.allclose(interpolated_step(3.0, 1.0, 1.0), [[2, -1], [1, 0]])

    def test_domain(self):
        for t in (-0.1, 1.1):
            with pytest.raises(InvalidParameter):
                interpolated_step(0.0, 0.0, t)

    def test_unimodular_along_path(self):
        for t in np.linspace(0, 1, 21):
            assert np.linalg.det(interpolated_step(4.0, -1.0, t)) == pytest.approx(1.0, abs=1e-12)

    def test_continuity_in_t(self):
        E, v = 3.0, 0.0
        ts = np.linspace(0.0, 1.0, 10001)
        mats = np.stack([interpolated_step(E, v, t) for t in ts])
        jumps = np.abs(np.diff(mats, axis=0)).max()
        bound = 8.0 * max(math.pi / 2, abs(E - v))
        assert jumps < bound * 1e-4
