"""Rate-based congestion control: source adjustment and EFCI observation."""

import random

import pytest

from atmsim.abr import AbrSourceState, EfciObserver, source_adjust


class TestDefaultSource:
    """AbrSourceState fills in the stock air and initial rate left None."""

    def test_stock_parameters(self):
        state = AbrSourceState(pcr=6400.0)
        assert state.air == 100.0  # pcr / 64
        assert state.acr == 400.0  # pcr / 16
        assert state.rdf == 0.875
        assert state.mcr == 0.0

    def test_initial_rate_floored_at_mcr(self):
        state = AbrSourceState(pcr=6400.0, mcr=1000.0)
        assert state.acr == 1000.0

    def test_overrides(self):
        state = AbrSourceState(pcr=100.0, air=5.0, rdf=0.5, acr=50.0)
        assert (state.air, state.rdf, state.acr) == (5.0, 0.5, 50.0)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            AbrSourceState(pcr=100.0, mcr=200.0, acr=100.0, air=1.0, rdf=0.9)
        with pytest.raises(ValueError):
            AbrSourceState(pcr=100.0, mcr=0.0, acr=150.0, air=1.0, rdf=0.9)
        with pytest.raises(ValueError):
            AbrSourceState(pcr=100.0, mcr=0.0, acr=50.0, air=1.0, rdf=0.0)
        with pytest.raises(ValueError):
            AbrSourceState(pcr=100.0, mcr=0.0, acr=0.0, air=1.0, rdf=0.9)


class TestSourceAdjust:
    def test_additive_increase(self):
        state = AbrSourceState(pcr=6400.0)
        acr = source_adjust(state, False)
        assert acr == 500.0  # 400 + 100

    def test_multiplicative_decrease(self):
        state = AbrSourceState(pcr=6400.0, acr=800.0)
        acr = source_adjust(state, True)
        assert acr == 700.0  # 800 * 0.875

    def test_capped_at_pcr(self):
        state = AbrSourceState(pcr=100.0, acr=99.0, air=50.0)
        assert source_adjust(state, False) == 100.0

    def test_floored_at_mcr(self):
        state = AbrSourceState(pcr=100.0, mcr=60.0, acr=61.0)
        assert source_adjust(state, True) == 60.0

    def test_trajectory_closed_form(self):
        # k congested windows then m clear ones: acr follows
        # acr0 * rdf^k + m * air while away from the bounds
        state = AbrSourceState(pcr=10_000.0, acr=4096.0)
        for _ in range(3):
            source_adjust(state, True)
        assert state.acr == 4096.0 * 0.875**3
        for m in range(1, 5):
            source_adjust(state, False)
            assert state.acr == 4096.0 * 0.875**3 + m * state.air

    def test_bounds_invariant_random(self):
        rng = random.Random(40)
        state = AbrSourceState(pcr=1000.0, mcr=50.0)
        for _ in range(5000):
            source_adjust(state, rng.random() < 0.5)
            assert 50.0 <= state.acr <= 1000.0


class TestEfciObserver:
    def test_window_completes_every_nrm_cells(self):
        observer = EfciObserver(nrm=4)
        results = [observer.observe(False) for _ in range(12)]
        assert results == [None, None, None, False] * 3

    def test_single_mark_taints_whole_window(self):
        observer = EfciObserver(nrm=4)
        observer.observe(False)
        observer.observe(True)
        observer.observe(False)
        assert observer.observe(False) is True

    def test_mark_does_not_leak_into_next_window(self):
        observer = EfciObserver(nrm=2)
        observer.observe(True)
        assert observer.observe(False) is True
        observer.observe(False)
        assert observer.observe(False) is False

    def test_partial_window_returns_none(self):
        observer = EfciObserver(nrm=32)
        assert all(observer.observe(True) is None for _ in range(31))

    def test_nrm_validation(self):
        with pytest.raises(ValueError):
            EfciObserver(nrm=0)

    def test_paired_with_source(self):
        # observer bits drive the source: marked window shrinks the
        # rate, clean window grows it
        observer = EfciObserver(nrm=2)
        state = AbrSourceState(pcr=1000.0, acr=800.0)
        for efci in (True, True, False, False):
            congested = observer.observe(efci)
            if congested is not None:
                source_adjust(state, congested)
        assert state.acr == 800.0 * 0.875 + state.air
