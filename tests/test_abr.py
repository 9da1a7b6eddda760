"""Rate-based congestion control: source adjustment and EFCI observation."""

import random

import pytest

from atmsim.abr import (
    AbrSourceState,
    EfciObserver,
    FeedbackIndication,
    default_source,
    source_adjust,
)
from atmsim.errors import OrderingError


class TestDefaultSource:
    def test_stock_parameters(self):
        state = default_source(pcr=6400.0)
        assert state.air == 100.0  # pcr / 64
        assert state.acr == 400.0  # pcr / 16
        assert state.rdf == 0.875
        assert state.mcr == 0.0

    def test_initial_rate_floored_at_mcr(self):
        state = default_source(pcr=6400.0, mcr=1000.0)
        assert state.acr == 1000.0

    def test_overrides(self):
        state = default_source(pcr=100.0, air=5.0, rdf=0.5, initial_acr=50.0)
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
        state = default_source(pcr=6400.0)
        acr = source_adjust(state, FeedbackIndication(congested=False, epoch=0))
        assert acr == 500.0  # 400 + 100

    def test_multiplicative_decrease(self):
        state = default_source(pcr=6400.0, initial_acr=800.0)
        acr = source_adjust(state, FeedbackIndication(congested=True, epoch=0))
        assert acr == 700.0  # 800 * 0.875

    def test_capped_at_pcr(self):
        state = default_source(pcr=100.0, initial_acr=99.0, air=50.0)
        assert source_adjust(state, FeedbackIndication(False, 0)) == 100.0

    def test_floored_at_mcr(self):
        state = default_source(pcr=100.0, mcr=60.0, initial_acr=61.0)
        assert source_adjust(state, FeedbackIndication(True, 0)) == 60.0

    def test_epoch_must_increase(self):
        state = default_source(pcr=100.0)
        source_adjust(state, FeedbackIndication(False, 3))
        with pytest.raises(OrderingError):
            source_adjust(state, FeedbackIndication(False, 3))
        with pytest.raises(OrderingError):
            source_adjust(state, FeedbackIndication(False, 1))
        source_adjust(state, FeedbackIndication(False, 7))  # gaps are fine

    def test_trajectory_closed_form(self):
        # k congested epochs then m clear ones: acr follows
        # acr0 * rdf^k + m * air while away from the bounds
        state = default_source(pcr=10_000.0, initial_acr=4096.0)
        epoch = 0
        for _ in range(3):
            source_adjust(state, FeedbackIndication(True, epoch))
            epoch += 1
        assert state.acr == 4096.0 * 0.875**3
        for m in range(1, 5):
            source_adjust(state, FeedbackIndication(False, epoch))
            epoch += 1
            assert state.acr == 4096.0 * 0.875**3 + m * state.air

    def test_bounds_invariant_random(self):
        rng = random.Random(40)
        state = default_source(pcr=1000.0, mcr=50.0)
        for epoch in range(5000):
            source_adjust(state, FeedbackIndication(rng.random() < 0.5, epoch))
            assert 50.0 <= state.acr <= 1000.0


class TestEfciObserver:
    def test_window_completes_every_nrm_cells(self):
        observer = EfciObserver(nrm=4)
        results = [observer.observe(False) for _ in range(12)]
        indications = [r for r in results if r is not None]
        assert len(indications) == 3
        assert [i.epoch for i in indications] == [0, 1, 2]
        assert all(not i.congested for i in indications)

    def test_single_mark_taints_whole_window(self):
        observer = EfciObserver(nrm=4)
        observer.observe(False)
        observer.observe(True)
        observer.observe(False)
        indication = observer.observe(False)
        assert indication is not None and indication.congested

    def test_mark_does_not_leak_into_next_window(self):
        observer = EfciObserver(nrm=2)
        observer.observe(True)
        first = observer.observe(False)
        assert first is not None and first.congested
        observer.observe(False)
        second = observer.observe(False)
        assert second is not None and not second.congested

    def test_partial_window_returns_none(self):
        observer = EfciObserver(nrm=32)
        assert all(observer.observe(True) is None for _ in range(31))

    def test_nrm_validation(self):
        with pytest.raises(ValueError):
            EfciObserver(nrm=0)

    def test_paired_with_source(self):
        # observer indications drive the source: marked window shrinks the
        # rate, clean window grows it
        observer = EfciObserver(nrm=2)
        state = default_source(pcr=1000.0, initial_acr=800.0)
        for efci in (True, True, False, False):
            indication = observer.observe(efci)
            if indication is not None:
                source_adjust(state, indication)
        assert state.acr == 800.0 * 0.875 + state.air
