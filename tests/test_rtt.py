"""Tests for RFC 6298 RTT estimation."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.units import MS, SEC, US
from repro.tcp.rtt import RttEstimator


def make(rto_min=200 * MS, rto_max=60 * SEC, initial=1 * SEC, seed=None):
    return RttEstimator(rto_min, rto_max, initial, seed)


class TestFirstSample:
    def test_initial_rto_before_samples(self):
        est = make(initial=3 * SEC, rto_min=1 * MS)
        assert est.rto_ns == 3 * SEC

    def test_first_sample_sets_srtt_and_var(self):
        est = make(rto_min=1)
        est.add_sample(100 * US)
        assert est.srtt_ns == 100 * US
        assert est.rttvar_ns == 50 * US
        # RTO = srtt + 4*rttvar = 300 us
        assert est.rto_ns == 300 * US

    def test_seed_counts_as_sample(self):
        est = make(seed=100 * US)
        assert est.samples == 1
        assert est.srtt_ns == 100 * US


class TestSmoothing:
    def test_constant_samples_converge(self):
        est = make(rto_min=1)
        for _ in range(100):
            est.add_sample(100 * US)
        assert est.srtt_ns == pytest.approx(100 * US, rel=1e-6)
        assert est.rttvar_ns == pytest.approx(0, abs=100)

    def test_ewma_gains(self):
        est = make(rto_min=1)
        est.add_sample(100 * US)
        est.add_sample(200 * US)
        # srtt = 7/8*100 + 1/8*200 = 112.5 us
        assert est.srtt_ns == pytest.approx(112_500)
        # rttvar = 3/4*50 + 1/4*|100-200| = 62.5 us
        assert est.rttvar_ns == pytest.approx(62_500)

    def test_rejects_negative_sample(self):
        with pytest.raises(ValueError):
            make().add_sample(-1)


class TestClamping:
    def test_rto_min_clamp(self):
        est = make(rto_min=200 * MS)
        est.add_sample(100 * US)
        assert est.rto_ns == 200 * MS

    def test_rto_max_clamp(self):
        est = make(rto_min=1, rto_max=1 * SEC)
        est.add_sample(10 * SEC)
        assert est.rto_ns == 1 * SEC

    @given(st.lists(st.integers(min_value=0, max_value=10 * SEC), min_size=1, max_size=50))
    def test_rto_always_within_bounds(self, samples):
        est = make(rto_min=10 * MS, rto_max=5 * SEC)
        for s in samples:
            est.add_sample(s)
        assert 10 * MS <= est.rto_ns <= 5 * SEC


class TestBackoff:
    def test_exponential_doubling(self):
        est = make(rto_min=200 * MS, seed=100 * US)
        assert est.backed_off_rto_ns(0) == 200 * MS
        assert est.backed_off_rto_ns(1) == 400 * MS
        assert est.backed_off_rto_ns(2) == 800 * MS

    def test_backoff_capped_at_max(self):
        est = make(rto_min=200 * MS, rto_max=1 * SEC, seed=100 * US)
        assert est.backed_off_rto_ns(10) == 1 * SEC

    def test_negative_exponent_treated_as_zero(self):
        est = make(seed=100 * US)
        assert est.backed_off_rto_ns(-3) == est.rto_ns


def test_rejects_max_below_min():
    with pytest.raises(ValueError):
        make(rto_min=2 * SEC, rto_max=1 * SEC)


class TestStoredRto:
    """The RTO is stored, not recomputed per read; it must always equal the
    RFC 6298 formula over the current estimator state."""

    @given(
        st.lists(st.integers(min_value=0, max_value=20 * SEC), max_size=40),
        st.integers(min_value=0, max_value=50 * MS),
        st.integers(min_value=0, max_value=30 * SEC),
        st.integers(min_value=1, max_value=10 * SEC),
        st.integers(min_value=-2, max_value=40),
    )
    def test_stored_rto_matches_formula(self, samples, rto_min, span, initial, backoff):
        rto_max = rto_min + span
        est = make(rto_min=rto_min, rto_max=rto_max, initial=initial)

        def expected_rto():
            if est.srtt_ns is None:
                base = initial
            else:
                base = int(est.srtt_ns + RttEstimator.K * est.rttvar_ns)
            return max(rto_min, min(rto_max, base))

        assert est.rto_ns == expected_rto()
        for sample in samples:
            est.add_sample(sample)
            rto = expected_rto()
            assert est.rto_ns == rto
            assert est.backed_off_rto_ns(0) == rto
            assert est.backed_off_rto_ns(backoff) == min(rto_max, rto << max(0, backoff))
