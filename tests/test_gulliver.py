import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anosovlab import gulliver
from anosovlab.gulliver import (GulliverParams, solve_r2, feasibility,
                                search_params, synth_profile)
from anosovlab.cocycle import terminator_bisect

_C8 = np.pi / (2.0 * np.sqrt(2.0))


def _shrinks(k_max):
    """The (b, r1) that search_params tries after 0 to k_max shrinks."""
    b, delta, out = 0.1, 0.1, []
    for _ in range(k_max + 1):
        out.append((b, _C8 / b + delta))
        b *= 0.7
        delta *= 0.9
    return out


class TestSolveR2:
    @given(st.floats(0.02, 0.5), st.floats(0.5, 2.5))
    @settings(max_examples=40, deadline=None)
    def test_root_satisfies_relation(self, b, r1):
        if b * r1 >= 0.5 * np.pi:
            return
        r2 = solve_r2(b, r1)
        assert 0.0 < r2 < r1
        assert abs(np.sinh(r1 - r2) - np.sin(b * r1) / b) < 1e-12

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            solve_r2(1.0, 2.0)   # b*r1 > pi/2

    @staticmethod
    def _bisect_r2(b, r1):
        """Root of sinh(r1 - r2) - sin(b r1)/b on [0, r1], bisected until
        the bracket holds two adjacent doubles."""
        target = np.sin(b * r1) / b
        lo, hi = 0.0, r1          # the function is > 0 at lo and < 0 at hi
        with np.errstate(over="ignore"):     # sinh(r1 - lo) may be inf
            while (mid := 0.5 * (lo + hi)) not in (lo, hi):
                if np.sinh(r1 - mid) - target > 0.0:
                    lo = mid
                else:
                    hi = mid
        return lo, hi

    @pytest.mark.parametrize("b, r1", _shrinks(13) + [
        (0.3, 1.1), (0.02, 40.0), (1.4, 1e-3), (0.5, 3.1)])
    def test_closed_form_matches_bisection(self, b, r1):
        lo, hi = self._bisect_r2(b, r1)
        r2 = solve_r2(b, r1)
        ulp = np.spacing(r1)
        assert lo - 4 * ulp <= r2 <= hi + 4 * ulp


class TestSearchParams:
    def test_target_1p75_valid(self):
        params = search_params(1.75)
        params.validate()
        assert feasibility(params, 1.75)["feasible"]
        # cap exceeds the critical half-angle: conjugate points before beta=2
        assert params.b * (params.r1 - params.eps) > _C8

    def test_feasibility_monotone_near_target(self):
        params = search_params(1.8)
        assert feasibility(params, 1.8)["feasible"]
        assert feasibility(params, 0.0)["feasible"]

    @pytest.mark.parametrize("bad", [1.4, 2.0, 2.5, 0.0])
    def test_target_outside_range_raises(self, bad):
        with pytest.raises(ValueError):
            search_params(bad)

    def test_no_overflow_warning_near_two(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            search_params(1.99).validate()

    def test_largest_representable_target(self, monkeypatch):
        top = gulliver.BETA_TARGET_MAX
        search_params(top).validate()
        above = np.nextafter(top, 2.0)
        for bad in (above, 1.995, 1.999):
            with pytest.raises(ValueError, match="double precision"):
                search_params(bad)
        # the bound is tight: the next double fails the r2 relation itself
        monkeypatch.setattr(gulliver, "BETA_TARGET_MAX", 2.0)
        with pytest.raises(ValueError, match="r2 relation violated"):
            search_params(above)

    def test_validate_rejects_bad_params(self):
        p = search_params(1.75)
        broken = GulliverParams(p.b, p.r1, p.r1 * 2, p.r3, p.eps, p.delta,
                                p.R, p.beta_target)
        with pytest.raises(ValueError):
            broken.validate()

    def test_json_round_trip_fields(self):
        doc = search_params(1.75).to_json()
        assert set(doc) == {"b", "r1", "r2", "r3", "eps", "delta", "R",
                            "beta_target", "R_prime"}


class TestSynthProfile:
    def test_profile_alternates_cap_and_collar(self):
        params = search_params(1.75)
        prof = synth_profile(params)
        K = prof.K_samples
        assert np.isclose(np.max(K), params.b ** 2)
        assert np.isclose(np.min(K), -1.0)
        assert abs(prof.T - (2 * params.r3 + params.R_prime)) < 2 * prof.dt

    def test_terminator_window_brackets_target(self):
        params = search_params(1.75)
        prof = synth_profile(params)
        cert = terminator_bisect([prof], tol=1e-3, T_max=3.0 * prof.T)
        assert not cert.exceeds_beta_max
        assert 1.749 <= cert.beta_lo
        assert cert.beta_hi < 2.0
