"""Closed-form European vanilla call pricer, the classical baseline.

Times here are in years (the usual quant convention), independent of the
day units used by the market simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, reject_non_finite


@dataclass(frozen=True)
class VanillaCall:
    """European call contract terms and market inputs.

    spot and strike are prices, rate is continuously compounded per year,
    sigma is the yearly volatility, and the option matures at ``maturity``
    with valuation at time ``valuation_time`` (both in years).
    """

    spot: float
    strike: float
    rate: float
    sigma: float
    valuation_time: float = 0.0
    maturity: float = 1.0

    def __post_init__(self):
        reject_non_finite(self)
        if self.spot <= 0:
            raise ConfigError(f"spot must be positive, got {self.spot}")
        if self.strike <= 0:
            raise ConfigError(f"strike must be positive, got {self.strike}")
        if self.sigma <= 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if not self.maturity > self.valuation_time:
            raise ConfigError(f"maturity {self.maturity} must exceed valuation time "
                              f"{self.valuation_time}")


def std_normal_cdf(d: float) -> float:
    """N(d) = (1 + erf(d / sqrt 2)) / 2.

    math.erf is the platform libm rational approximation, accurate to well
    below 1e-12 absolute over the whole real line, so ports only need an
    erf of that quality to reproduce prices to 1e-10.
    """
    return 0.5 * (1.0 + math.erf(d / math.sqrt(2.0)))


def call_price(opt: VanillaCall) -> float:
    """Closed-form call price spot*N(d1) - strike*exp(-r tau)*N(d2).

    Raises ConfigError where finite inputs leave the float range on the way
    (an overflow, the log of an underflowed spot/strike, an infinite tau).
    """
    tau = opt.maturity - opt.valuation_time
    try:
        sig_sqrt = opt.sigma * math.sqrt(tau)
        log_m = math.log(opt.spot / opt.strike)
        d1 = (log_m + (opt.rate + 0.5 * opt.sigma**2) * tau) / sig_sqrt
        d2 = (log_m + (opt.rate - 0.5 * opt.sigma**2) * tau) / sig_sqrt
        price = opt.spot * std_normal_cdf(d1) - opt.strike * math.exp(
            -opt.rate * tau
        ) * std_normal_cdf(d2)
    except (ArithmeticError, ValueError):
        price = math.nan
    if not math.isfinite(price):
        raise ConfigError("the call price leaves the float range for these inputs")
    return price
