"""The band-edge check of verify: its discriminant oracle and the faults it sees."""

from __future__ import annotations

import numpy as np
import pytest

from dmspec import PeriodicOrbit, RootBracketingFailure, bernoulli, cosine, union_spectrum
from dmspec.spectrum import bands_by_period
from dmspec.verify import (
    Params,
    _bands_from_disc,
    _union,
    check_band_edge_oracle,
    check_gap_shrinkage,
    discriminant_bands,
)


class TestDiscriminantOracle:
    def test_bracketing_failure_reported(self):
        disc = lambda E: np.asarray(E) ** 2 + 3.0  # never within [-2, 2]
        with pytest.raises(RootBracketingFailure, match="no band"):
            _bands_from_disc(disc, 2, -5.0, 5.0, 1e-10)

    def test_constant_potential(self):
        [band] = discriminant_bands([1.5, 1.5, 1.5], bound=1.5)
        assert band.lo == pytest.approx(-0.5, abs=1e-9)
        assert band.hi == pytest.approx(3.5, abs=1e-9)


class TestBandEdgeCheck:
    @pytest.mark.parametrize("f", [cosine(0.5), bernoulli(5.0)], ids=["cos-0.5", "bernoulli-5"])
    def test_passes(self, f):
        res = check_band_edge_oracle(f, max_period=6)
        assert res["passed"], res["detail"]
        assert "||disc| - 2|" in res["detail"] and "closed form" in res["detail"]

    def test_sees_a_dropped_left_limit(self, monkeypatch):
        # bernoulli-five without its left-limit potential f(0-) = 0: the
        # engine and the orbit path agree with each other, and only the
        # closed form f(0-) +- 2 of the period-1 union sees the missing band
        original = PeriodicOrbit.sided_potentials
        monkeypatch.setattr(PeriodicOrbit, "sided_potentials",
                            lambda self, f: original(self, f)[:1])
        res = check_band_edge_oracle(bernoulli(5.0))
        assert not res["passed"]
        assert "closed form" in res["detail"]


class TestBandReuse:
    @pytest.mark.parametrize("f", [cosine(0.5), bernoulli(5.0)], ids=["cos-0.5", "bernoulli-5"])
    def test_prefix_merges_equal_union_spectrum(self, f):
        # run_verification merges prefixes of one bands_by_period call, at
        # the band tolerance and at the coarse one, in place of union_spectrum
        per_period = bands_by_period(f, 9, 1e-10)
        for p in range(1, 10):
            assert _union(per_period, p, 1e-10).bands == union_spectrum(f, p).bands
        assert _union(per_period, 9, 0.02).bands == union_spectrum(f, 9, tol=0.02).bands

    def test_bad_shrink_period_fails_its_check(self):
        per_period = bands_by_period(cosine(0.5), 4, 1e-10)
        res = check_gap_shrinkage(per_period, Params(shrink_periods=(2, 0)))
        assert not res["passed"] and "max_period must be >= 1" in res["detail"]
