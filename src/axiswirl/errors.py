"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid grid/solver/scenario configuration.  field names the
    argument at fault, or is None when the rule is on several at once."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class ContractViolation(AssertionError):
    """Caller broke a documented precondition: an internal fault, which
    the command line reports as a failed assertion (exit 4)."""


class InadmissibleExponents(ConfigurationError):
    """Exponent triple fails the admissibility conditions."""

    def __init__(self, violations, field=None):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations), field)

