"""Winding steps, rotation numbers, integrality verdicts."""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dmspec import (
    Direction,
    InvalidParameter,
    NotHyperbolic,
    RotationEstimate,
    TrigPoly,
    Verdict,
    argument_winding_step,
    bernoulli,
    cocycle,
    cosine,
    ids_estimate,
    integrality_check,
    most_contracted_direction,
    rotation_number,
    sampling,
    schwartzman,
)
from dmspec.cocycle import _line_angle, _stable_core
from dmspec.sampling import random_orbit
from dmspec.schwartzman import _stable_sweep, _unit_directions, _winding_closed, _winding_core

FREE = TrigPoly()


class TestWindingStep:
    def test_pure_rotation_when_energy_cancels(self):
        # E = v collapses the scaling half to a fixed quarter rotation
        dir_out, delta = argument_winding_step(2.0, 2.0, Direction(0.0))
        assert delta == pytest.approx(math.pi / 2, abs=1e-12)
        assert dir_out.angle == pytest.approx(math.pi / 2, abs=1e-12)

    def test_flat_near_zero(self):
        # the profile is constant near t = 0, so early increments vanish
        vec = Direction(0.3).vector()
        deltas = _winding_core(2.0, [2.0], [vec[0]], [vec[1]], 64)
        t = np.linspace(0, 1, 65)
        # reconstruct the first few increments: path is a rotation by theta(t)
        from dmspec.cocycle import rotation_profile

        first = rotation_profile(t[1]) - rotation_profile(t[0])
        assert first < 1e-6
        assert deltas[0] == pytest.approx(math.pi / 2, abs=1e-12)

    def test_invariant_direction_zero_delta(self):
        slope = (3 + math.sqrt(5)) / 2
        d = Direction(math.atan2(slope, 1.0))
        dir_out, delta = argument_winding_step(3.0, 0.0, d)
        assert dir_out.distance(d) < 1e-12
        assert delta == pytest.approx(0.0, abs=1e-12)
        # repeated application keeps a constant per-step delta, 0 mod pi
        total = 0.0
        cur = d
        for _ in range(5):
            cur, delta = argument_winding_step(3.0, 0.0, cur)
            total += delta
        assert total == pytest.approx(0.0, abs=1e-10)

    def test_negative_energy_invariant_direction_gives_pi(self):
        slope = (-3 - math.sqrt(5)) / 2
        d = Direction(math.atan2(slope, 1.0))
        _, delta = argument_winding_step(-3.0, 0.0, d)
        assert delta == pytest.approx(math.pi, abs=1e-12)

    def test_substep_floor(self):
        with pytest.raises(Exception):
            argument_winding_step(1.0, 0.0, Direction(0.0), substeps=4)

    def test_lifting_ambiguity_detected_and_resolvable(self):
        from dmspec import LiftingAmbiguity

        with pytest.raises(LiftingAmbiguity):
            argument_winding_step(100.0, 0.0, Direction(0.0), substeps=8)
        _, delta = argument_winding_step(100.0, 0.0, Direction(0.0), substeps=512)
        assert abs(delta) < math.pi

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        pots = rng.uniform(-2, 2, size=6)
        angles = rng.uniform(0, math.pi, size=6)
        E = 3.7
        xs, ys = np.cos(angles), np.sin(angles)
        batch = _winding_core(E, pots, xs, ys, 64)
        for i in range(6):
            _, delta = argument_winding_step(E, float(pots[i]),
                                             Direction(float(angles[i])), 64)
            assert batch[i] == pytest.approx(delta, abs=1e-12)

    def test_chunks_give_the_same_lift(self, monkeypatch):
        # 64 entries a chunk take one site at a time; the sites named in a
        # LiftingAmbiguity count from the first site, not from the chunk
        from dmspec import LiftingAmbiguity
        rng = np.random.default_rng(4)
        pots = rng.uniform(-2, 2, size=7)
        xs, ys = np.cos(rng.uniform(0, math.pi, size=7)), np.sin(rng.uniform(0, math.pi, size=7))
        whole = _winding_core(3.7, pots, xs, ys, 64)
        monkeypatch.setattr(schwartzman, "BLOCK_ENTRIES", 64)
        assert np.array_equal(_winding_core(3.7, pots, xs, ys, 64), whole)
        # (1, 2.1) at E - v = 100 turns too fast for 64 substeps to lift
        pots[5], xs[5], ys[5] = 3.7 - 100.0, 1.0, 2.1
        with pytest.raises(LiftingAmbiguity, match="at site 5,"):
            _winding_core(3.7, pots, xs, ys, 64)

    def test_delta_is_a_lift_of_the_image_direction(self):
        # the accumulated change must land on the image line: angle(dir_in)
        # + delta == angle(dir_out) mod pi
        rng = np.random.default_rng(4)
        for _ in range(30):
            E = float(rng.uniform(-6, 6))
            v = float(rng.uniform(-3, 3))
            a = float(rng.uniform(0, math.pi))
            dir_out, delta = argument_winding_step(E, v, Direction(a), 64)
            mismatch = (a + delta - dir_out.angle) % math.pi
            assert min(mismatch, math.pi - mismatch) < 1e-9


class TestClosedFormWinding:
    @given(E=st.floats(-30.0, 30.0), v=st.floats(-10.0, 10.0), angle=st.floats(0.0, math.pi))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_substep_lift(self, E, v, angle):
        # 512 substeps keep every sub-increment of |E - v| <= 40 below a quarter turn
        x, y = math.cos(angle), math.sin(angle)
        lift = _winding_core(E, [v], [x], [y], 512)[0]
        assert _winding_closed(E, v, x, y) == pytest.approx(lift, abs=1e-12)

    def test_scale_and_sign_invariant(self):
        x, y = 0.3, -0.7
        assert _winding_closed(2.5, 0.4, -3 * x, -3 * y) == pytest.approx(
            _winding_closed(2.5, 0.4, x, y), abs=1e-15)


class TestStableSweep:
    @pytest.mark.parametrize("f, E", [(FREE, 3.0), (cosine(0.5), 3.5), (cosine(0.5), -3.0),
                                      (bernoulli(5.0), 2.5), (cosine(3.0), 0.323)],
                             ids=["free-3", "cos-3.5", "cos--3", "bernoulli-2.5", "cos3-0.323"])
    def test_matches_the_windowed_core(self, f, E):
        rng = np.random.default_rng(11)
        pots = np.stack([f(random_orbit(rng, 361)) for _ in range(4)])
        x, y = _unit_directions(*_stable_sweep(E, pots), slice(None))
        windows = np.lib.stride_tricks.sliding_window_view(pots, 60, axis=1)[:, : x.shape[1]]
        vec, _, _ = _stable_core(E, windows.reshape(-1, 60))
        assert _line_angle(x.ravel(), y.ravel(), *vec.T).max() < 1e-12

    @pytest.mark.parametrize("site", [100, 128], ids=["off-stride", "on-stride"])
    def test_one_perturbed_angle_shows_in_the_residual(self, monkeypatch, site):
        directions = schwartzman._unit_directions

        def perturbed(u, seams, cols):
            x, y = directions(u, seams, cols)
            a = math.atan2(y[1, site], x[1, site]) + 1e-4
            x[1, site], y[1, site] = math.cos(a), math.sin(a)
            return x, y

        monkeypatch.setattr(schwartzman, "_unit_directions", perturbed)
        est = rotation_number(cosine(0.5), 3.5, omega_samples=4, steps=300, seed=3)
        assert est.diagnostics["max_reanchor_residual"] > 1e-6

    def test_an_invariant_unstable_section_shows_in_the_residual(self, monkeypatch):
        # a forward sweep is invariant too, but follows the unstable section:
        # only the windowed directions at the strided sites tell it apart
        sweep = schwartzman._stable_sweep
        seen = {}

        def recorded(E, pots):
            seen["t"] = E - pots  # E comes as an array of one energy
            return sweep(E, pots)

        def forward(u, seams, cols):
            t = seen["t"][cols]
            x, y = np.ones((2, t.shape[0], len(u) - 1))
            for n in range(1, x.shape[1]):
                a, b = t[:, n - 1] * x[:, n - 1] - y[:, n - 1], x[:, n - 1]
                r = np.hypot(a, b)
                x[:, n], y[:, n] = a / r, b / r
            return x, y

        monkeypatch.setattr(schwartzman, "_stable_sweep", recorded)
        monkeypatch.setattr(schwartzman, "_unit_directions", forward)
        est = rotation_number(cosine(0.5), 3.5, omega_samples=4, steps=300, seed=3)
        assert est.diagnostics["max_reanchor_residual"] > 1e-6

    def test_diagnostics(self):
        est = rotation_number(bernoulli(5.0), 2.5, omega_samples=4, steps=300, seed=1)
        assert est.diagnostics["winding_method"] == "closed_form"
        assert est.diagnostics["winding_oracle_dev"] < 1e-12
        assert est.diagnostics["max_reanchor_residual"] < 1e-12
        assert est.diagnostics["growth_rate"] > 0.1

    def test_oracle_substeps_grow_with_the_energy(self, monkeypatch):
        # on the scaling half the image of (1, 2.1) at E - v = 100 passes
        # the origin at lam = 0.021, too fast for 64 substeps to lift; the
        # image of a stable direction passes it near lam = 1, where the
        # ramp is flat
        def steep(u, seams, cols):
            shape = (u[0, cols].size, len(u) - 1)
            return np.full(shape, 1.0), np.full(shape, 2.1)

        monkeypatch.setattr(schwartzman, "_unit_directions", steep)
        est = rotation_number(FREE, 100.0, omega_samples=2, steps=200, seed=0)
        assert est.diagnostics["winding_oracle_dev"] < 1e-12

    def test_each_oracle_site_takes_its_own_substeps(self, monkeypatch):
        # |30 - v| runs over [27, 33] on cosine(3.0): 128 substeps below 32, 192 from 32 on
        core = schwartzman._winding_core
        calls = []

        def spy(E, pots, x, y, substeps):
            calls.append((np.asarray(pots), substeps))
            return core(E, pots, x, y, substeps)

        monkeypatch.setattr(schwartzman, "_winding_core", spy)
        est = rotation_number(cosine(3.0), 30.0, omega_samples=4, steps=300)
        assert sorted(substeps for _, substeps in calls) == [128, 192]
        v = np.concatenate([pots for pots, _ in calls])
        assert len(v) == 4 * 5  # sites 0, 64, .., 256 of each sample
        assert sum(len(pots) * substeps for pots, substeps in calls) == np.sum(
            64 * (1 + np.abs(30.0 - v) // 16))
        for pots, substeps in calls:
            assert (64 * (1 + np.abs(30.0 - pots) // 16) == substeps).all()
        assert est.diagnostics["winding_oracle_dev"] < 1e-9


#: functions with energies outside and inside their spectra, and far outside
RESCALE_CASES = [(FREE, (3.0, -2.5, 0.5, 1e6)), (cosine(0.5), (3.5, -3.0, 0.3, 1e6)),
                 (cosine(3.0), (0.323, 9.0, 1.0, -40.0)), (bernoulli(5.0), (2.5, 7.5, 1.0, 60.0))]
RESCALE_IDS = ["free", "cos-0.5", "cos-3", "bernoulli-5"]


def _core_bits(E, windows):
    vec, log_smax, snaps = _stable_core(E, windows, checkpoints=(15, 100, 200))
    return [a.tobytes() for a in (vec, log_smax)] + [
        (k, a.tobytes(), b.tobytes()) for k, (a, b) in sorted(snaps.items())]


class TestRescaledRecursions:
    # _stable_core and _stable_sweep step their recursions unscaled and
    # rescale them by exact powers of two every _rescale_interval steps, so
    # the interval changes no bit

    @pytest.mark.parametrize("f, energies", RESCALE_CASES, ids=RESCALE_IDS)
    def test_the_rescale_interval_changes_no_bit(self, monkeypatch, f, energies):
        rng = np.random.default_rng(12)
        pots = np.stack([f(random_orbit(rng, 361)) for _ in range(3)])
        batch = np.array(energies)
        assert cocycle._rescale_interval(batch[:, None, None] - pots) > 1

        def run():
            return [_core_bits(E, pots[:, :200])
                    + [a.tobytes() for a in _unit_directions(*_stable_sweep(E, pots), slice(None))]
                    for E in (*energies, batch)]

        default = run()
        monkeypatch.setattr(cocycle, "_rescale_interval", lambda t: 1)
        monkeypatch.setattr(schwartzman, "_rescale_interval", lambda t: 1)
        assert run() == default

    @pytest.mark.parametrize("f, energies", RESCALE_CASES, ids=RESCALE_IDS)
    def test_stable_core_matches_the_svd_of_the_product(self, f, energies):
        # the two energies outside the spectrum, and 1e12, which rescales once within the 20 steps
        rng = np.random.default_rng(13)
        pots = np.stack([f(random_orbit(rng, 20)) for _ in range(4)])
        for E in (*energies[:2], 1e12):
            vec, log_smax, _ = _stable_core(E, pots)
            for row, (x, y), log_s in zip(pots, vec, log_smax):
                product = np.eye(2)
                for v in row:
                    product = cocycle.step_matrix(E, v) @ product
                _, s, vh = np.linalg.svd(product)
                assert log_s == pytest.approx(math.log(s[0]), abs=1e-12)
                # the sine of the angle to the most contracted right singular vector
                assert abs(x * vh[1, 1] - y * vh[1, 0]) < 1e-12

    def test_a_large_energy_raises_no_warning(self):
        rng = np.random.default_rng(14)
        pots = np.stack([FREE(random_orbit(rng, 300)) for _ in range(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for E in (1e6, 1e200):
                x, y = _unit_directions(*_stable_sweep(E, pots), slice(None))
                assert np.allclose(np.hypot(x, y), 1.0, rtol=0, atol=1e-15)
                assert cocycle.dichotomy_test(FREE, E, sample_count=20).is_hyperbolic
            # 1e6 needs more winding oracle substeps than ORACLE_ENTRIES
            with pytest.raises(InvalidParameter, match="winding oracle substeps"):
                rotation_number(FREE, 1e6, omega_samples=2, steps=100, seed=1)

    @given(angle=st.floats(-10.0, 10.0), turn=st.floats(-1.0, 1.0),
           r1=st.floats(-1e3, 1e3).filter(lambda r: abs(r) > 1e-3),
           r2=st.floats(-1e3, 1e3).filter(lambda r: abs(r) > 1e-3))
    # perpendicular lines whose rounded sine is past 1, which arcsin refuses
    @example(angle=4.429766803881634, turn=math.pi / 2, r1=525.3547971214034, r2=310.2425653170801)
    @settings(max_examples=300, deadline=None)
    def test_line_angle_is_the_projective_distance(self, angle, turn, r1, r2):
        # the lines through (x1, y1) and (x2, y2) whatever the lengths and signs
        x1, y1 = r1 * math.cos(angle), r1 * math.sin(angle)
        x2, y2 = r2 * math.cos(angle + turn), r2 * math.sin(angle + turn)
        (line_angle,) = _line_angle(*(np.array([c]) for c in (x1, y1, x2, y2)))
        assert line_angle == pytest.approx(Direction(angle).distance(Direction(angle + turn)), abs=1e-12)

    @given(coords=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
           k=st.integers(-1000, 1000), first=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_line_angle_ignores_power_of_two_scalings(self, coords, k, first):
        args = [np.array([c]) for c in coords]
        scaled = list(args)
        at = slice(0, 2) if first else slice(2, 4)
        scaled[at] = [np.ldexp(a, k) for a in args[at]]
        # where no square under- or overflows, scaling by 2 ** k rounds nothing
        with np.errstate(all="raise"):
            try:
                _line_angle(*args), _line_angle(*scaled)
            except FloatingPointError:
                assume(False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _line_angle(*scaled).tobytes() == _line_angle(*args).tobytes()


class TestBlocks:
    # rotation_number holds its potentials and one sweep buffer at full size;
    # every other temporary is a block of at most BLOCK_ENTRIES entries

    @pytest.mark.parametrize("budget", [1, 2 ** 40], ids=["one-entry", "unbounded"])
    @pytest.mark.parametrize("f, energies", RESCALE_CASES, ids=RESCALE_IDS)
    def test_no_result_depends_on_the_block_budget(self, monkeypatch, f, energies, budget):
        # 10 samples of 2,000 steps read the sweep in two blocks at the default
        def run():
            out = rotation_number(f, energies, omega_samples=10, steps=2000, seed=7)
            return [repr(est) for est in out]

        default = run()
        assert any(est.startswith("RotationEstimate(") for est in default)
        monkeypatch.setattr(schwartzman, "BLOCK_ENTRIES", budget)
        monkeypatch.setattr(sampling, "BLOCK_ENTRIES", budget)
        assert run() == default

    def test_the_traced_peak_is_bounded(self, monkeypatch):
        # 32 samples of 2,061 sites: 0.5 MiB of potentials and 1 MiB of sweep
        # buffer for the two energies; unblocked, the peak is past 5 MiB
        args = cosine(0.5), [-3.0, 3.5], 32, 2000

        def peak():
            rotation_number(*args, seed=3)  # warm, so that first-call allocations do not count
            tracemalloc.start()
            try:
                rotation_number(*args, seed=3)
                return tracemalloc.get_traced_memory()[1] / 2 ** 20
            finally:
                tracemalloc.stop()

        assert peak() <= 3.5
        monkeypatch.setattr(schwartzman, "BLOCK_ENTRIES", 2 ** 40)
        monkeypatch.setattr(sampling, "BLOCK_ENTRIES", 2 ** 40)
        assert peak() > 3.5


def _rotation_or_error(f, E, **kwargs):
    try:
        return rotation_number(f, E, **kwargs)
    except NotHyperbolic as exc:
        return exc


#: configs with energies both hyperbolic and in a band of period <= PROBE_PERIODS
BATCHES = [(FREE, (3.0, 0.0, -3.0)), (cosine(0.5), (3.5, 0.0, -3.0)),
           (bernoulli(5.0), (2.5, 1.0, 7.5)), (cosine(3.0), (0.323, 6.0, 9.0, -3.0))]
BATCH_IDS = ["free", "cos-0.5", "bernoulli-5", "cos-3"]


class TestRotationOverEnergies:
    # a sequence of energies shares one pretest, draw and sweep; an energy
    # that fails the pretest holds the error it raises alone, and repr shows
    # every float's bits

    @pytest.mark.parametrize("f, energies", BATCHES, ids=BATCH_IDS)
    def test_each_estimate_equals_its_own_call(self, f, energies):
        batch = rotation_number(f, energies, omega_samples=4, steps=300, seed=5)
        alone = [_rotation_or_error(f, E, omega_samples=4, steps=300, seed=5) for E in energies]
        assert {type(est) for est in alone} == {RotationEstimate, NotHyperbolic}
        assert [repr(est) for est in batch] == [repr(est) for est in alone]

    @pytest.mark.parametrize("f, energies", BATCHES, ids=BATCH_IDS)
    def test_reversed_energies_give_reversed_estimates(self, f, energies):
        forward = rotation_number(f, energies, omega_samples=3, steps=200, seed=6)
        backward = rotation_number(f, energies[::-1], omega_samples=3, steps=200, seed=6)
        assert [repr(est) for est in backward] == [repr(est) for est in forward][::-1]

    # an energy takes 540 x 60 entries of a pretest pass and 4 x 261 of a sweep:
    # 2 ** 12 sweeps 3 energies at a time, 2 ** 16 pretests 2 at a time
    @pytest.mark.parametrize("pass_entries", [1, 2 ** 12, 2 ** 16, 2 ** 18],
                             ids=["one-energy", "a-few-energies", "two-pretest-energies", "all"])
    def test_passes_of_any_size_give_the_same_estimates(self, monkeypatch, pass_entries):
        # energies split over several pretest passes and sweeps, or all in one
        f, energies = cosine(3.0), (0.323, 6.0, 9.0, -3.0, 1.752)
        alone = [_rotation_or_error(f, E, omega_samples=4, steps=200, seed=9) for E in energies]
        monkeypatch.setattr(schwartzman, "PASS_ENTRIES", pass_entries)
        monkeypatch.setattr(cocycle, "PASS_ENTRIES", pass_entries)
        batch = rotation_number(f, energies, omega_samples=4, steps=200, seed=9)
        assert [repr(est) for est in batch] == [repr(est) for est in alone]

    def test_a_float_gives_an_estimate_and_a_sequence_a_list(self):
        est = rotation_number(FREE, 3.0, omega_samples=2, steps=100, seed=1)
        assert isinstance(est, RotationEstimate)
        for energies in ([3.0], (3.0,), np.array([3.0])):
            [one] = rotation_number(FREE, energies, omega_samples=2, steps=100, seed=1)
            assert repr(one) == repr(est)
        [error] = rotation_number(FREE, [0.0], omega_samples=2, steps=100, seed=1)
        with pytest.raises(NotHyperbolic, match="^E = 0.0 failed the dichotomy pretest") as raised:
            rotation_number(FREE, 0.0, omega_samples=2, steps=100, seed=1)
        assert repr(error) == repr(raised.value)

    def test_an_energy_past_the_oracle_budget_holds_its_error(self):
        # 1e200 would need more than ORACLE_ENTRIES substeps: a float raises,
        # in a sequence it holds the InvalidParameter and 3.0 is unchanged
        with pytest.raises(InvalidParameter, match="winding oracle substeps") as raised:
            rotation_number(FREE, 1e200, omega_samples=2, steps=100, seed=1)
        est, error = rotation_number(FREE, [3.0, 1e200], omega_samples=2, steps=100, seed=1)
        assert repr(est) == repr(rotation_number(FREE, 3.0, omega_samples=2, steps=100, seed=1))
        assert repr(error) == repr(raised.value)


class TestRotationNumber:
    def test_free_above_spectrum(self):
        est = rotation_number(FREE, 3.0, omega_samples=8, steps=400, seed=0)
        assert abs(est.value) < 0.01
        assert est.stderr < 0.01

    def test_free_below_spectrum(self):
        est = rotation_number(FREE, -3.0, omega_samples=8, steps=400, seed=0)
        assert abs(est.value - 1.0) < 0.01

    def test_not_hyperbolic_inside_spectrum(self):
        with pytest.raises(NotHyperbolic):
            rotation_number(FREE, 0.0, omega_samples=4, steps=100, seed=0)

    @pytest.mark.parametrize("E", [math.nan, [3.0, math.inf], [-math.inf]], ids=["nan", "list", "-inf"])
    def test_a_non_finite_energy_is_refused(self, monkeypatch, E):
        # before the pretest, and not as a per-energy NotHyperbolic
        monkeypatch.setattr(schwartzman, "dichotomy_test", None)
        with pytest.raises(InvalidParameter, match="energies must be finite, got (nan|inf|-inf)"):
            rotation_number(FREE, E, omega_samples=4, steps=100, seed=0)

    def test_cosine_gap_values(self):
        est_hi = rotation_number(cosine(0.5), 3.5, omega_samples=8, steps=600, seed=1)
        est_lo = rotation_number(cosine(0.5), -3.0, omega_samples=8, steps=600, seed=1)
        assert abs(est_hi.value) < 0.01
        assert abs(est_lo.value - 1.0) < 0.01

    def test_bernoulli_half_integer(self):
        est = rotation_number(bernoulli(5.0), 2.5, omega_samples=16, steps=1500, seed=2)
        assert est.value == pytest.approx(0.5, abs=0.02)

    def test_reanchor_residual_invariant(self):
        est = rotation_number(cosine(0.5), 3.5, omega_samples=8, steps=500, seed=3)
        assert est.diagnostics["max_reanchor_residual"] < 1e-5

    def test_seed_independence_within_error(self):
        f = cosine(0.5)
        a = rotation_number(f, 3.5, omega_samples=8, steps=500, seed=10)
        b = rotation_number(f, 3.5, omega_samples=8, steps=500, seed=20)
        assert abs(a.value - b.value) <= 3.0 * (a.stderr + b.stderr) + 1e-12

    def test_deterministic(self):
        a = rotation_number(cosine(0.5), 3.5, omega_samples=4, steps=300, seed=5)
        b = rotation_number(cosine(0.5), 3.5, omega_samples=4, steps=300, seed=5)
        assert a.value == b.value and a.stderr == b.stderr

    def test_consistency_with_ids_complement(self):
        from dmspec import ids_estimate

        grid = np.linspace(-3.5, 3.5, 141)
        table = ids_estimate(FREE, grid, truncation_size=256, sample_count=8, seed=7)
        for E, expected_k in ((2.5, 1.0), (-2.5, 0.0)):
            est = rotation_number(FREE, E, omega_samples=4, steps=300, seed=7)
            k = table.value_at(E)
            assert abs(est.value - (1.0 - k)) < 0.03
            assert k == pytest.approx(expected_k, abs=0.01)

    def test_integer_verdicts_for_continuous_f(self):
        # hyperbolic energies of continuous sampling never yield NonInteger
        cases = [(FREE, E) for E in (2.2, 3.0, -3.0, 5.0, -2.3)]
        cases += [(cosine(0.5), E) for E in (3.2, 3.5, 4.5, -2.8, -3.6)]
        for f, E in cases:
            est = rotation_number(f, E, omega_samples=6, steps=500, seed=8)
            verdict = integrality_check(est)
            assert verdict.verdict is Verdict.INTEGER, (E, est.value)
            assert verdict.integer in (0, 1)


class TestGapLabelProperty:
    # in a gap the rotation number is 1 - k (Johnson and Moser, Comm. Math.
    # Phys. 84, 1982): outside the hull for cosine coupling, and inside the
    # gap (2, c - 2) of c * chi_[0, 1/2), label 1/2
    @given(lam=st.floats(0.0, 1.5), side=st.sampled_from([-1.0, 1.0]),
           margin=st.floats(0.3, 2.0), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=15, deadline=None)
    def test_outside_the_hull(self, lam, side, margin, seed):
        E = side * (2.0 + 2.0 * lam + margin)  # cosine(lam) is 2 lam cos 2 pi w
        self._agree(cosine(lam), E, seed)

    @given(c=st.floats(5.0, 8.0), u=st.floats(-0.4, 0.4), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=15, deadline=None)
    def test_inside_the_bernoulli_gap(self, c, u, seed):
        self._agree(bernoulli(c), c / 2 + u * (c / 2 - 2.0), seed)

    @staticmethod
    def _agree(f, E, seed):
        # the rotation number's stderr is about 0.005 here; 0.03 is six of them
        k = ids_estimate(f, [E], truncation_size=512, sample_count=16, seed=seed).k_values[0]
        est = rotation_number(f, E, omega_samples=8, steps=1000, seed=seed)
        assert abs(est.value - (1.0 - k)) < 0.03, (E, est.value, k)


class TestIntegralityCheck:
    def test_integer_zero(self):
        est = RotationEstimate(value=0.004, stderr=0.002, steps_used=100, omega_samples=4)
        res = integrality_check(est, tol=0.01)
        assert res.verdict is Verdict.INTEGER and res.integer == 0

    def test_integer_one(self):
        est = RotationEstimate(value=0.998, stderr=0.003, steps_used=100, omega_samples=4)
        res = integrality_check(est, tol=0.01)
        assert res.verdict is Verdict.INTEGER and res.integer == 1

    def test_non_integer(self):
        est = RotationEstimate(value=0.5, stderr=0.004, steps_used=100, omega_samples=4)
        assert integrality_check(est, tol=0.01).verdict is Verdict.NON_INTEGER

    def test_inconclusive_band(self):
        est = RotationEstimate(value=0.02, stderr=0.02, steps_used=100, omega_samples=4)
        assert integrality_check(est, tol=0.01).verdict is Verdict.INCONCLUSIVE

    def test_large_stderr_blocks_integer(self):
        est = RotationEstimate(value=0.001, stderr=0.05, steps_used=100, omega_samples=4)
        assert integrality_check(est, tol=0.01).verdict is not Verdict.INTEGER


class TestStableSectionTracking:
    def test_directions_follow_section_along_orbit(self):
        # freshly computed directions at consecutive sites map onto each other
        f = cosine(0.5)
        E = 3.5
        from dmspec import forward_orbit, step_matrix

        orbit = forward_orbit(0.3, 80)
        d0, _ = most_contracted_direction(f, E, float(orbit[0]), 60)
        d1, _ = most_contracted_direction(f, E, float(orbit[1]), 60)
        image = step_matrix(E, float(f(orbit[0]))) @ d0.vector()
        assert Direction.from_vector(*image).distance(d1) < 1e-6
