"""Exception taxonomy shared by every fraudkit module."""

from __future__ import annotations


class FraudkitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(FraudkitError):
    """Invalid configuration: bad parameter names/values, inconsistent sections."""


class DataError(FraudkitError):
    """Unusable data: schema mismatch, unknown category, empty result, bad labels."""


class ModelError(FraudkitError):
    """Modeling failure: divergence, degenerate inputs, unfit model misuse."""
