"""Sampling functions, potentials, and orbit generation."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmspec import (
    BackwardDigits,
    CirclePoint,
    InvalidParameter,
    MissingDigits,
    Step,
    TrigPoly,
    bernoulli,
    cosine,
    forward_orbit,
    potential,
)
from dmspec import sampling


class TestEval:
    def test_trig_at_zero(self):
        lam = 0.7
        assert TrigPoly(0.0, (2 * lam,), ())(0.0) == pytest.approx(2 * lam)

    def test_step_half_open(self):
        f = Step((0.0, 0.5), (5.0, 0.0))
        assert f(0.25) == 5.0
        assert f(0.75) == 0.0

    def test_step_right_continuous_at_breakpoint(self):
        f = Step((0.0, 0.5), (5.0, 0.0))
        assert f(0.5) == 0.0
        assert f(np.nextafter(0.5, 0.0)) == 5.0

    def test_step_left_limit_at_interior_breakpoint(self):
        f = Step((0.0, 0.25, 0.5), (5.0, 1.0, 0.0))
        assert f.left_limit(0.25) == 5.0
        assert f.left_limit(0.5) == 1.0
        # off the breakpoints the left limit is the value itself
        assert f.left_limit(0.3) == f(0.3) == 1.0
        assert f.left_limit(np.array([0.25, 0.5, 0.75])).tolist() == [5.0, 1.0, 0.0]

    def test_step_left_limit_wraps_at_zero(self):
        f = bernoulli(5.0)
        assert f(0.0) == 5.0
        assert f.left_limit(0.0) == 0.0
        assert f.left_limit(1.0) == 0.0
        assert f.left_limit(np.nextafter(0.0, 1.0)) == 5.0

    def test_step_on_breakpoint(self):
        f = bernoulli(5.0)
        assert f.breakpoint_mask([0.0]).any()
        assert f.breakpoint_mask([0.25, 1.5]).any()
        assert not f.breakpoint_mask([1 / 3, 2 / 3]).any()

    def test_trig_left_limit_is_value(self):
        f = TrigPoly(0.3, (1.0, -0.5), (0.25,))
        w = np.array([0.0, 0.125, 0.5, 0.9])
        assert np.array_equal(f.left_limit(w), f(w))
        assert f.left_limit(0.0) == f(0.0)
        assert not f.breakpoint_mask(w).any()

    def test_wraps_mod_one(self):
        f = cosine(1.0)
        assert f(1.25) == pytest.approx(f(0.25))

    def test_continuity_flags(self):
        assert TrigPoly().continuous is True
        assert bernoulli(1.0).continuous is False

    def test_vectorized(self):
        f = cosine(0.5)
        w = np.array([0.0, 0.25, 0.5])
        assert f(w) == pytest.approx([1.0, 0.0, -1.0])

    def test_step_validation(self):
        with pytest.raises(InvalidParameter):
            Step((0.1, 0.5), (1.0, 2.0))  # first breakpoint not 0
        with pytest.raises(InvalidParameter):
            Step((0.0, 0.5, 0.4), (1.0, 2.0, 3.0))


class TestPotential:
    def test_constant(self):
        pot = potential(TrigPoly(constant=3.0), 0.123, 0, 5)
        assert pot.values == (3.0,) * 6

    def test_cosine_on_period_two_orbit(self):
        pot = potential(TrigPoly(0.0, (1.0,), ()), CirclePoint(1, 3), 0, 2)
        assert pot.values == pytest.approx([-0.5, -0.5, -0.5])

    def test_bernoulli_alternates(self):
        # 1/3 = 0.010101..._2; doubling alternates 1/3, 2/3
        pot = potential(bernoulli(5.0), CirclePoint(1, 3), 0, 3)
        assert pot.values == (5.0, 0.0, 5.0, 0.0)

    def test_rational_periodicity_exact(self):
        f = cosine(0.8)
        pot = potential(f, CirclePoint(3, 7), 0, 11)
        for n in range(9):
            assert pot.values[n + 3] == pot.values[n]

    def test_two_sided_requires_digits(self):
        with pytest.raises(MissingDigits):
            potential(TrigPoly(), 0.3, -2, 2)

    def test_two_sided_with_digits(self):
        f = bernoulli(5.0)
        digits = BackwardDigits([1, 0])
        pot = potential(f, CirclePoint(1, 3), -2, 2, digits=digits)
        # backward chain 2/3, 1/3: values f(1/3)=5 at n=-2, f(2/3)=0 at n=-1
        assert pot[-2] == 5.0
        assert pot[-1] == 0.0
        assert pot[0] == 5.0
        assert pot.n_min == -2 and pot.n_max == 2
        assert "two-sided" in pot.provenance

    @given(
        const=st.floats(-2, 2), c1=st.floats(-2, 2), s1=st.floats(-2, 2),
        omega=st.floats(0, 1, exclude_max=True),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_sup(self, const, c1, s1, omega):
        f = TrigPoly(const, (c1,), (s1,))
        pot = potential(f, omega, 0, 20)
        assert max(abs(v) for v in pot.values) <= abs(const) + abs(c1) + abs(s1) + 1e-12


class TestForwardOrbit:
    def test_exact_rational(self):
        orbit = forward_orbit(CirclePoint(1, 3), 6)
        assert orbit == pytest.approx([1 / 3, 2 / 3] * 3)

    def test_dyadic_float_exact(self):
        # dyadic rationals are represented exactly, so plain float doubling
        # agrees with exact arithmetic until the orbit hits 0
        w = 3.0 / 64.0
        orbit = forward_orbit(w, 40)
        exact = forward_orbit(Fraction(3, 64), 40)
        assert np.array_equal(orbit, exact)

    def test_float_matches_exact_within_growth_bound(self):
        # float(1/3) is off by about 2^-54; the deviation doubles each step,
        # so agreement to 2^-40 holds up to n = 13 and the general bound is
        # 2^(n-53)
        w = 1.0 / 3.0
        fl = forward_orbit(w, 41)
        ex = np.array([float(x) for x in _exact_orbit(Fraction(1, 3), 41)])
        err = np.abs(fl - ex)
        err = np.minimum(err, 1.0 - err)  # circle distance
        for n in range(41):
            assert err[n] <= 2.0 ** (n - 52)
        assert err[:14].max() <= 2.0 ** -40

    def test_long_float_orbit_does_not_collapse(self):
        orbit = forward_orbit(0.37, 600)
        # plain doubling would reach exactly 0 by step 53 and stay there
        assert orbit[100:].min() > 0.0
        assert orbit.min() >= 0.0 and orbit.max() < 1.0

    def test_long_float_orbit_deterministic(self):
        a = forward_orbit(0.37, 300)
        b = forward_orbit(0.37, 300)
        assert np.array_equal(a, b)

    def test_long_orbit_agrees_with_short_prefix(self):
        # both take their first FLOAT_ITERATION_LIMIT values by direct doubling
        long = forward_orbit(0.37, 200)
        short = forward_orbit(0.37, 10)
        assert np.array_equal(long[:10], short)

    # a longer float orbit extends a shorter one, across the switch from
    # direct doubling to the seeded window too, and starts at the anchor
    @given(x=st.floats(-4.0, 4.0), n=st.integers(0, 200), m=st.integers(0, 200))
    @settings(max_examples=200, deadline=None)
    def test_float_orbit_prefixes_agree(self, x, n, m):
        n, m = max(n, m), min(n, m)
        long = forward_orbit(x, n)
        assert np.array_equal(long[:m], forward_orbit(x, m))
        if n:
            assert long[0] == x % 1.0

    # the float orbits of many anchors at once, as check_determinants takes
    # them, are bit-equal to one forward_orbit call per anchor
    @given(xs=st.lists(st.one_of(st.floats(-4.0, 4.0),
                                 st.sampled_from([-0.0, -1e-20, -5e-324, 0.75])),
                       min_size=1, max_size=8),
           n=st.integers(0, 120))
    @settings(max_examples=100, deadline=None)
    def test_float_orbits_equal_forward_orbit(self, xs, n):
        rows = sampling._float_orbits(np.array(xs), n)
        assert rows.shape == (len(xs), n)
        for x, row in zip(xs, rows):
            assert row.tobytes() == forward_orbit(x, n).tobytes()

    def test_random_orbit_uniformish(self):
        rng = np.random.default_rng(5)
        orbit = sampling.random_orbit(rng, 4000)
        assert 0.0 <= orbit.min() and orbit.max() < 1.0
        assert abs(orbit.mean() - 0.5) < 0.05
        # consecutive values satisfy the doubling relation up to window truncation
        drift = np.abs((2 * orbit[:-1]) % 1.0 - orbit[1:])
        assert drift.max() < 2.0 ** -50


def scalar_orbit(rng, count):
    """The per-point base-2 window loop, the reference for sampling._window."""
    digits = rng.integers(0, 2, size=count + 53, dtype=np.int64)
    out = np.empty(count)
    for k in range(count):
        x = 0.0
        for j in range(52, -1, -1):
            x = (x + digits[k + j]) / 2
        out[k] = x
    return out


class TestBatchedOrbits:
    # m, the base of the map whose orbits are drawn, is 2: the doubling map
    @pytest.mark.parametrize("m", [2])
    def test_rows_equal_successive_draws(self, m):
        rng_batch, rng_loop = np.random.default_rng(21), np.random.default_rng(21)
        batch = sampling.random_orbits(rng_batch, 7, 90)
        loop = np.stack([sampling.random_orbit(rng_loop, 90) for _ in range(7)])
        assert batch.shape == (7, 90) and np.array_equal(batch, loop)
        # every row is an orbit of the map up to window truncation
        assert np.abs((m * batch[:, :-1]) % 1.0 - batch[:, 1:]).max() < 2.0 ** -50
        # the generator is left where the successive draws leave it
        assert rng_batch.bit_generator.state == rng_loop.bit_generator.state
        assert rng_batch.integers(0, 2**62) == rng_loop.integers(0, 2**62)

    def test_window_equals_the_scalar_recurrence(self):
        # the per-point recurrence x = (x + d) / 2, bit for bit, on a batch
        digits = np.random.default_rng(8).integers(0, 2, size=(4, 60 + 53), dtype=np.int64)
        want = np.empty((4, 60))
        for i in range(4):
            for k in range(60):
                x = 0.0
                for j in range(52, -1, -1):
                    x = (x + digits[i, k + j]) / 2
                want[i, k] = x
        assert np.array_equal(sampling._window(digits, 60), want)

    @pytest.mark.parametrize("shape, count", [((53,), 1), ((1, 60), 8), ((3, 120), 50),
                                              ((2, 5, 200), 148), ((15, 2114), 2061)])
    def test_window_equals_the_powers_of_two_matmul(self, shape, count):
        # the windows as a matmul with 2^-1 .. 2^-53, bit for bit, on random
        # digits and on all ones, the largest window
        rng = np.random.default_rng(len(shape) * count)
        for digits in (rng.integers(0, 2, size=shape, dtype=np.int64), np.ones(shape, dtype=np.int64)):
            bits = np.lib.stride_tricks.sliding_window_view(digits.astype(float), 53, axis=-1)
            want = bits[..., :count, :] @ 0.5 ** np.arange(1, 54)
            assert np.array_equal(sampling._window(digits, count), want)

    @pytest.mark.parametrize("m", [2])
    @pytest.mark.parametrize("block_digits", [1, 3 * (70 + 53), 2 ** 15])
    def test_spawned_rows_equal_one_draw_per_child(self, m, block_digits, monkeypatch):
        # one row per spawned child, whether the blocks hold one row, a few or all
        monkeypatch.setattr(sampling, "_SPAWN_DIGITS", block_digits)
        f = cosine(0.5)
        orbits = [sampling.random_orbit(np.random.default_rng(ss), 70)
                  for ss in np.random.SeedSequence(4).spawn(7)]
        assert np.array_equal(sampling.spawned_potentials(f, 4, 7, 70), np.stack([f(w) for w in orbits]))
        # the rows follow orbits of the map, read through its base-m digits
        assert all(np.abs((m * w[:-1]) % 1.0 - w[1:]).max() < 2.0 ** -50 for w in orbits)

    def test_label_kernels_are_bit_identical(self, monkeypatch):
        # dichotomy_test, ids_estimate and rotation_number give the same bits
        # when their orbits are drawn one at a time, through the per-point
        # window loop, as they were before the draws were batched
        from dmspec import cocycle, ids, schwartzman

        def one_at_a_time(f, seed, samples, count):
            return np.stack([np.asarray(f(scalar_orbit(np.random.default_rng(ss), count)), dtype=float)
                             for ss in np.random.SeedSequence(seed).spawn(samples)])

        def labels():
            out = []
            for f, E in ((cosine(0.5), 3.5), (bernoulli(5.0), 2.5)):
                rep = cocycle.dichotomy_test(f, E, sample_count=40, seed=11)
                out += [rep.growth_rate, rep.prefactor, *rep.diagnostics.values(),
                        *[(w, a.angle) for w, a in rep.stable_direction_at.items()]]
                out += list(ids.ids_estimate(f, np.linspace(-3.0, 7.0, 9), truncation_size=64,
                                             sample_count=6, seed=4).k_values)
                est = schwartzman.rotation_number(f, E, omega_samples=3, steps=100, seed=2)
                out += [est.value, est.stderr, *est.diagnostics.values()]
            return out

        batched = labels()
        monkeypatch.setattr(cocycle, "random_orbits", lambda rng, samples, count: np.stack(
            [scalar_orbit(rng, count) for _ in range(samples)]))
        monkeypatch.setattr(ids, "spawned_potentials", one_at_a_time)
        monkeypatch.setattr(schwartzman, "spawned_potentials", one_at_a_time)
        assert labels() == batched


class TestJson:
    def test_trig_round_trip(self):
        obj = {"type": "trigpoly", "const": 0.5, "cos": [1.0, 0.0, 2.0], "sin": [0.25]}
        assert sampling.from_json(obj) == TrigPoly(0.5, (1.0, 0.0, 2.0), (0.25,))

    def test_step_round_trip(self):
        obj = {"type": "step", "breaks": [0.0, 0.25, 0.5], "values": [1.0, -1.0, 0.0]}
        assert sampling.from_json(obj) == Step((0.0, 0.25, 0.5), (1.0, -1.0, 0.0))

    def test_schema_shapes(self):
        assert sampling.from_json({"type": "trigpoly", "const": 1.0, "cos": [2.0], "sin": []}) \
            == TrigPoly(1.0, (2.0,), ())
        assert sampling.from_json({"type": "step", "breaks": [0.0, 0.5], "values": [5.0, 0.0]}) \
            == bernoulli(5.0)

    def test_rejects_unknown(self):
        with pytest.raises(InvalidParameter):
            sampling.from_json({"type": "wavelet"})
        with pytest.raises(InvalidParameter):
            sampling.from_json([1, 2, 3])

    @pytest.mark.parametrize("obj", [
        {"type": "trigpoly", "const": 0.0, "coss": [1.0]},
        {"type": "step", "breaks": [0.0], "values": [1.0], "cos": []},
    ])
    def test_rejects_unknown_keys(self, obj):
        with pytest.raises(InvalidParameter, match="valid keys"):
            sampling.from_json(obj)

    @pytest.mark.parametrize("obj", [
        {"type": "trigpoly", "const": "1.0"},
        {"type": "trigpoly", "cos": ["a"]},
        {"type": "trigpoly", "sin": [True]},
        {"type": "trigpoly", "cos": 1.0},
        {"type": "trigpoly", "cos": [float("nan")]},
        {"type": "step", "breaks": [0.0, "0.5"], "values": [5.0, 0.0]},
        {"type": "step", "breaks": [0.0, 0.5], "values": [5.0, None]},
        {"type": "step", "breaks": [0.0, 0.5], "values": [float("inf"), 0.0]},
    ])
    def test_rejects_non_numeric_and_non_finite(self, obj):
        with pytest.raises(InvalidParameter):
            sampling.from_json(obj)


class TestFinite:
    @pytest.mark.parametrize("args", [
        (float("nan"),), (0.0, (1.0, float("inf"))), (0.0, (), (float("-inf"),)),
    ])
    def test_trigpoly_rejects_non_finite(self, args):
        with pytest.raises(InvalidParameter, match="finite"):
            TrigPoly(*args)

    @pytest.mark.parametrize("breaks, values", [
        ((0.0, float("nan")), (1.0, 0.0)), ((0.0, 0.5), (1.0, float("nan"))),
    ])
    def test_step_rejects_non_finite(self, breaks, values):
        with pytest.raises(InvalidParameter, match="finite"):
            Step(breaks, values)


def _exact_orbit(x: Fraction, count: int):
    out = []
    for _ in range(count):
        out.append(x)
        x = (2 * x) % 1
    return out
