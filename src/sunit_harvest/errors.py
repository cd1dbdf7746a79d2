"""Exception types shared across the package."""


class SunitHarvestError(Exception):
    """Base class for all package errors."""


class DomainError(SunitHarvestError):
    """An argument lies outside the operation's mathematical domain."""


class FactorizationLimit(SunitHarvestError):
    """Integer did not factor by trial division up to arith.TRIAL_EFFORT."""


class EnumerationCap(SunitHarvestError):
    """Projected enumeration output exceeds the configured cap."""


class InsufficientPrimes(SunitHarvestError):
    """Interval does not contain enough primes for the requested split."""


class ResourceLimit(SunitHarvestError):
    """Iteration budget or table-size cap exceeded."""


class ConstraintViolation(SunitHarvestError):
    """A regime feasibility inequality failed.

    Carries the name of the first failed inequality and its margin.
    """

    def __init__(self, name: str, value: float):
        self.name = name
        self.value = value
        super().__init__(f"constraint {name} violated (margin {value:g})")


class EmptyHarvest(SunitHarvestError):
    """A pipeline produced no hits at all."""


class ConfigError(SunitHarvestError):
    """Malformed run configuration; carries the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key {key!r}: {message}")
