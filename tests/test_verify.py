"""The band-edge check of verify: its discriminant oracle and the faults it sees."""

from __future__ import annotations

import numpy as np
import pytest

from dmspec import PeriodicOrbit, RootBracketingFailure, bernoulli, cosine
from dmspec.verify import _bands_from_disc, check_band_edge_oracle, discriminant_bands


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
