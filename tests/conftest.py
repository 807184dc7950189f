import dataclasses

import pytest

import nlsmarket.market as market


@pytest.fixture
def stiff_third_segment(monkeypatch):
    """Make the test's third integrate_adaptive call through nlsmarket.market
    (a run's third segment) fail with a StiffnessError: it runs at
    tolerances no step meets, with h_min = h_init, so the segment's first
    attempt is rejected at h_min. Later calls run unchanged."""
    real = market.integrate_adaptive
    calls = []

    def driver(rhs, t0, t1, y0, ctl):
        calls.append(t0)
        if len(calls) == 3:
            ctl = dataclasses.replace(ctl, abs_tol=1e-300, rel_tol=1e-300, h_min=ctl.h_init)
        return real(rhs, t0, t1, y0, ctl)

    monkeypatch.setattr(market, "integrate_adaptive", driver)
