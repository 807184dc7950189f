"""Exception types shared across the library, and the config value check
that raises one."""

import dataclasses
import math


class ConfigError(ValueError):
    """Invalid grid, solver, or model configuration."""


def reject_non_finite(config) -> None:
    """Raise ConfigError naming the first float field of a dataclass that is
    NaN or infinite. Range checks alone let NaN through, since every
    comparison with NaN is False."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")


class IntegrationError(RuntimeError):
    """Base class for time-integration failures.

    Attributes:
        t: time at which the integration gave up.
        stats: StepStats accumulated up to the failure, when available.
        record: partial simulation record attached by higher-level drivers.
    """

    def __init__(self, message, t=None, stats=None):
        super().__init__(message)
        self.t = t
        self.stats = stats
        self.record = None


class StepBudgetError(IntegrationError):
    """The step budget was exhausted at time t, before reaching the end time."""

    def __init__(self, budget, t, stats=None):
        super().__init__(f"step budget of {budget} exhausted at t={t}", t, stats)


class StiffnessError(IntegrationError):
    """The error norm cannot be satisfied even at the minimum step size."""

