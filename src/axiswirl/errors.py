"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid grid/solver/scenario configuration."""


class ContractViolation(ValueError):
    """Caller broke a documented precondition."""


class InadmissibleExponents(ValueError):
    """Exponent triple fails the admissibility conditions."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class CflViolation(RuntimeError):
    """Time step exceeds the stability limit."""

    def __init__(self, message, suggested_dt):
        super().__init__(message)
        self.suggested_dt = suggested_dt
