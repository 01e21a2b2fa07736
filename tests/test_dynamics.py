"""Exact circle-map arithmetic, orbit enumeration, backward extension."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmspec import (
    BackwardDigits,
    CapacityExceeded,
    CirclePoint,
    InvalidParameter,
    MissingDigits,
    Step,
    TrigPoly,
    bernoulli,
    cosine,
    enumerate_orbits,
    extend_backward,
    forward_orbit,
    map_forward,
    solenoid_forward,
)
from dmspec.dynamics import TABLE_PERIOD, backward_orbit, check_period, orbit_table


def loop_orbit_table(p, m=2):
    """The per-point enumeration that orbit_table replaced, as integer rows."""
    d = m**p - 1
    rows = []
    for k in range(d):
        cycle = [k]
        x = k * m % d
        while x != k:
            if x < k:
                break
            cycle.append(x)
            x = x * m % d
        else:
            if len(cycle) == p:
                rows.append(cycle)
    return rows


def brute_force_orbits(max_period, m=2):
    """Independent enumeration: orbit sets of all k/(m^p - 1), deduplicated."""
    seen = set()
    orbits = []
    for p in range(1, max_period + 1):
        d = m**p - 1
        for k in range(d):
            x = Fraction(k, d)
            orbit = [x]
            y = (x * m) % 1
            while y != x:
                orbit.append(y)
                y = (y * m) % 1
            key = frozenset(orbit)
            if key not in seen and len(orbit) <= max_period:
                seen.add(key)
                orbits.append(key)
    return orbits


class TestMapForward:
    def test_doubling_examples(self):
        assert map_forward(CirclePoint(1, 7), 1) == CirclePoint(2, 7)
        assert map_forward(CirclePoint(1, 2), 1) == CirclePoint(0, 1)
        assert map_forward(CirclePoint(1, 7), 3) == CirclePoint(1, 7)

    def test_zero_steps_is_identity(self):
        p = CirclePoint(3, 11)
        assert map_forward(p, 0) == p

    @given(num=st.integers(0, 10**6), den=st.integers(1, 10**6),
           a=st.integers(0, 50), b=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_semigroup_property(self, num, den, a, b):
        p = CirclePoint(num, den)
        assert map_forward(p, a + b) == map_forward(map_forward(p, a), b)


class TestCirclePoint:
    def test_normalization(self):
        p = CirclePoint(10, 4)  # 10/4 = 5/2 = 1/2 mod 1
        assert (p.numerator, p.denominator) == (1, 2)

    def test_reduction(self):
        assert CirclePoint(2, 6) == CirclePoint(1, 3)

    def test_invalid_denominator(self):
        with pytest.raises(InvalidParameter):
            CirclePoint(1, 0)


class TestEnumerateOrbits:
    def test_period_one(self):
        orbits = enumerate_orbits(1)
        assert len(orbits) == 1
        assert orbits[0].points == (CirclePoint(0, 1),)

    def test_period_two(self):
        orbits = enumerate_orbits(2)
        assert [o.period for o in orbits] == [1, 2]
        assert orbits[1].points == (CirclePoint(1, 3), CirclePoint(2, 3))

    def test_period_three_matches_brute_force(self):
        orbits = enumerate_orbits(3)
        assert len(orbits) == 4
        got = {frozenset(p.as_fraction() for p in o.points) for o in orbits}
        expected = set(map(frozenset, brute_force_orbits(3)))
        assert got == expected

    # m, the map base the reference enumerations take, is 2: the doubling map
    @pytest.mark.parametrize("m,max_period", [(2, 8)])
    def test_matches_brute_force(self, m, max_period):
        got = {frozenset(p.as_fraction() for p in o.points)
               for o in enumerate_orbits(max_period)}
        assert got == set(map(frozenset, brute_force_orbits(max_period, m=m)))

    @pytest.mark.parametrize("m", [2])
    def test_fixed_point_count(self, m):
        # points of period dividing p number m^p - 1
        orbits = enumerate_orbits(10)
        for p in range(1, 10 + 1):
            count = sum(o.period for o in orbits if p % o.period == 0)
            assert count == m**p - 1

    def test_orbit_structure(self):
        for orbit in enumerate_orbits(7):
            assert map_forward(orbit.points[0], orbit.period) == orbit.points[0]
            for a, b in zip(orbit.points, orbit.points[1:]):
                assert map_forward(a, 1) == b
            assert min(orbit.points, key=lambda q: q.as_fraction()) == orbit.points[0]
            d = 2**orbit.period - 1
            for q in orbit.points:
                assert d % q.denominator == 0

    def test_sided_potentials(self):
        f = bernoulli(5.0)
        fixed = enumerate_orbits(1)[0]
        assert fixed.sided_potentials(f) == [("0/1", [5.0]), ("0/1-", [0.0])]
        two = enumerate_orbits(2)[1]
        assert two.sided_potentials(f) == [("1/3", [5.0, 0.0])]
        assert fixed.sided_potentials(TrigPoly(constant=1.5)) == [("0/1", [1.5])]
        # equal values on both sides of a breakpoint give no second potential
        assert fixed.sided_potentials(Step((0.0,), (2.0,))) == [("0/1", [2.0])]

    @pytest.mark.parametrize("f", [
        cosine(0.5),
        TrigPoly(0.3, (1.0, -0.5, 0.25), (0.7, 0.1)),
        bernoulli(5.0),
        Step((0.0, 1 / 3), (1.0, -2.0)),
    ], ids=["cos-0.5", "trigpoly", "bernoulli-5", "step-1/3"])
    def test_one_call_of_f_equals_per_point_evaluation(self, f):
        for orbit in enumerate_orbits(10):
            right = [float(f(q.as_float())) for q in orbit.points]
            left = [float(f.left_limit(q.as_float())) for q in orbit.points]
            want = [(orbit.label(), right)]
            if left != right:
                want.append((orbit.label() + "-", left))
            assert orbit.potential_values(f) == right
            assert orbit.sided_potentials(f) == want

    @pytest.mark.parametrize("m, limit", [(2, 61)])
    def test_one_capacity_limit(self, m, limit):
        # the int64 orbit table is the only bound: every period above it
        # fails with the table's message, well past the old 126-bit bound too
        for p in range(1, 140):
            try:
                check_period(p)
                over = False
            except CapacityExceeded as exc:
                over = True
                assert f"max period is {limit}" in str(exc)
            assert over == (p > limit)

    def test_capacity_guard(self):
        for p in (127, 10**12):  # no huge power is computed
            with pytest.raises(CapacityExceeded, match="max period is 61"):
                check_period(p)
        with pytest.raises(CapacityExceeded, match="max period is 61"):
            enumerate_orbits(127)

    def test_int64_table_guard(self):
        # 2^(p+1) must stay below 2^63; the guard raises before any table
        assert TABLE_PERIOD == max(p for p in range(1, 64) if 2 ** (p + 1) < 2 ** 63)
        for fn in (enumerate_orbits, orbit_table):
            with pytest.raises(CapacityExceeded, match="int64.*max period is 61"):
                fn(62)

    @pytest.mark.parametrize("m,max_period", [(2, 12)])
    def test_table_matches_loop(self, m, max_period):
        for p in range(1, max_period + 1):
            table = orbit_table(p)
            assert table.dtype == np.int64 and table.shape[1] == p
            assert table.tolist() == loop_orbit_table(p, m)


class TestBackwardExtension:
    def test_fixed_point_chain(self):
        assert extend_backward(CirclePoint(0, 1), BackwardDigits([0] * 5), 5) == CirclePoint(0, 1)

    def test_single_step(self):
        assert extend_backward(CirclePoint(0, 1), BackwardDigits([1]), 1) == CirclePoint(1, 2)

    def test_two_cycle_digits(self):
        # staying on the 2-cycle 1/3 <- 2/3 <- 1/3 requires digits (1, 0):
        # (1/3 + 1)/2 = 2/3 and (2/3 + 0)/2 = 1/3
        out = extend_backward(CirclePoint(1, 3), BackwardDigits([1, 0]), 2)
        assert out == CirclePoint(1, 3)
        # the all-ones digit choice leaves the cycle
        out = extend_backward(CirclePoint(1, 3), BackwardDigits([1, 1]), 2)
        assert out == CirclePoint(5, 6)

    def test_float_anchor(self):
        out = extend_backward(0.0, BackwardDigits([1]), 1)
        assert out == pytest.approx(0.5, abs=1e-15)

    @given(num=st.integers(0, 1000), den=st.integers(1, 1000),
           digits=st.lists(st.integers(0, 1), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_forward_inverts_backward(self, num, den, digits):
        anchor = CirclePoint(num, den)
        back = extend_backward(anchor, BackwardDigits(digits), len(digits))
        assert map_forward(back, len(digits)) == anchor

    def test_missing_digits(self):
        with pytest.raises(MissingDigits):
            extend_backward(CirclePoint(0, 1), BackwardDigits([1]), 3)

    def test_seeded_digits_reproducible(self):
        assert BackwardDigits(seed=42).take(30) == BackwardDigits(seed=42).take(30)

    def test_explicit_then_seeded(self):
        d = BackwardDigits(digits=[1, 0], seed=7)
        taken = d.take(10)
        assert taken[:2] == [1, 0]
        assert all(x in (0, 1) for x in taken)


class TestSolenoidForward:
    def test_fixed_point(self):
        anchor, fiber = solenoid_forward(CirclePoint(0, 1), (0.0, 0.0), 0.25)
        assert anchor == CirclePoint(0, 1)
        assert fiber == pytest.approx((0.5, 0.0), abs=1e-15)

    def test_quarter(self):
        anchor, fiber = solenoid_forward(CirclePoint(1, 4), (0.0, 0.0), 0.25)
        assert anchor == CirclePoint(1, 2)
        assert fiber == pytest.approx((0.0, 0.5), abs=1e-15)

    def test_two_iterations(self):
        state = (CirclePoint(0, 1), (0.0, 0.0))
        for _ in range(2):
            state = solenoid_forward(state[0], state[1], 0.25)
        assert state[0] == CirclePoint(0, 1)
        assert state[1] == pytest.approx((0.625, 0.0), abs=1e-15)

    def test_circle_coordinate_matches_map(self):
        p = CirclePoint(3, 7)
        anchor, _ = solenoid_forward(p, (0.1, -0.2), 0.3)
        assert anchor == map_forward(p, 1)

    @pytest.mark.parametrize("lam", [0.0, 0.5, -0.1, 0.7])
    def test_lambda_domain(self, lam):
        with pytest.raises(InvalidParameter):
            solenoid_forward(0.0, (0.0, 0.0), lam)


class TestAnchorKinds:
    # a CirclePoint anchor takes the exact path of the equal Fraction anchor
    @given(x=st.fractions(0, 1, max_denominator=2 ** 20).filter(lambda x: x < 1),
           digits=st.lists(st.integers(0, 1), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_circle_point_equals_fraction(self, x, digits):
        point = CirclePoint(x.numerator, x.denominator)
        orbit = forward_orbit(point, 70)
        assert np.array_equal(orbit, forward_orbit(x, 70))
        assert orbit.tolist() == [map_forward(point, j).as_float() for j in range(70)]
        back = backward_orbit(point, BackwardDigits(digits), len(digits))
        assert [p.as_fraction() for p in back] == backward_orbit(x, BackwardDigits(digits), len(digits))
        anchor, fiber = solenoid_forward(point, (0.1, -0.2), 0.3)
        assert (anchor.as_fraction(), fiber) == solenoid_forward(x, (0.1, -0.2), 0.3)

    # a Fraction off [0, 1) is the circle point it names, as a CirclePoint or a float is
    def test_backward_orbit_reduces_a_fraction_anchor(self):
        assert backward_orbit(Fraction(3, 2), BackwardDigits([1]), 1) == [Fraction(3, 4)]

    def test_solenoid_forward_reduces_a_fraction_anchor(self):
        steps = [solenoid_forward(anchor, (0.1, -0.2), 0.3)
                 for anchor in (Fraction(3, 2), CirclePoint(3, 2), 1.5)]
        assert len({(float(anchor), fiber) for anchor, fiber in steps}) == 1

    @pytest.mark.parametrize("anchor", [0.372, 1.25, 3])
    def test_float_and_int_anchors_give_floats(self, anchor):
        back = backward_orbit(anchor, BackwardDigits([0, 1, 1]), 3)
        assert [type(w) for w in back] == [float] * 3
        assert type(solenoid_forward(anchor, (0.0, 0.0), 0.25)[0]) is float
