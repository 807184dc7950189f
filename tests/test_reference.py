import math

import numpy as np
import pytest

from nlsmarket.errors import ConfigError
from nlsmarket.reference import VanillaCall, call_price, std_normal_cdf

from oracles import erf_series


def test_cdf_symmetry_and_limits():
    assert std_normal_cdf(0.0) == 0.5
    assert abs(std_normal_cdf(40.0) - 1.0) < 1e-15
    assert std_normal_cdf(-40.0) < 1e-15


def test_cdf_against_series_oracle():
    for d in (-2.0, -0.5, 0.3, 1.0, 2.5):
        expected = 0.5 * (1.0 + erf_series(d / math.sqrt(2.0)))
        assert std_normal_cdf(d) == pytest.approx(expected, abs=1e-14)
    assert std_normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)


def test_contract_validation():
    with pytest.raises(ConfigError):
        VanillaCall(spot=-1.0, strike=100.0, rate=0.05, sigma=0.2)
    with pytest.raises(ConfigError):
        VanillaCall(spot=100.0, strike=0.0, rate=0.05, sigma=0.2)
    with pytest.raises(ConfigError):
        VanillaCall(spot=100.0, strike=100.0, rate=0.05, sigma=-0.2)
    with pytest.raises(ConfigError):
        VanillaCall(spot=100.0, strike=100.0, rate=0.05, sigma=0.2, valuation_time=2.0,
                    maturity=1.0)


def test_vanishing_strike_limit():
    opt = VanillaCall(spot=87.0, strike=1e-12, rate=0.05, sigma=0.2)
    assert abs(call_price(opt) - 87.0) < 1e-9 * 87.0


def test_deep_in_the_money_asymptote():
    opt = VanillaCall(spot=1000.0, strike=100.0, rate=0.05, sigma=0.2)
    bound = 1000.0 - 100.0 * math.exp(-0.05)
    assert 0.0 <= call_price(opt) - bound < 1e-6


def test_monotone_in_spot_and_strike():
    rng = np.random.default_rng(5)
    for _ in range(200):
        strike = rng.uniform(50.0, 150.0)
        rate = rng.uniform(0.0, 0.1)
        sigma = rng.uniform(0.1, 0.6)
        tau = rng.uniform(0.1, 2.0)
        spots = np.sort(rng.uniform(40.0, 200.0, size=3))
        prices = [
            call_price(VanillaCall(spot=s, strike=strike, rate=rate, sigma=sigma, maturity=tau))
            for s in spots
        ]
        assert prices[0] <= prices[1] + 1e-12 <= prices[2] + 2e-12

        strikes = np.sort(rng.uniform(40.0, 200.0, size=3))
        prices = [
            call_price(VanillaCall(spot=100.0, strike=x, rate=rate, sigma=sigma, maturity=tau))
            for x in strikes
        ]
        assert prices[0] >= prices[1] - 1e-12 >= prices[2] - 2e-12
