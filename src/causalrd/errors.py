"""Exception hierarchy shared across the package."""


class CausalRdError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(CausalRdError, ValueError):
    """An argument is out of range or shape-inconsistent."""


class ResourceBudgetError(CausalRdError):
    """A dense table or enumeration would exceed its entry budget."""


class DegenerateMarginalError(CausalRdError):
    """A tilted-kernel normalizer vanished because the output marginal puts
    no mass on any admissible symbol; carries the offending stage/history."""

    def __init__(self, stage, y_history, detail=""):
        self.stage = stage
        self.y_history = y_history
        msg = f"degenerate output marginal at stage {stage}, y-history code {y_history}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class InternalConsistencyError(CausalRdError):
    """The closed-form rate and the directed information disagree beyond
    tolerance, signalling a broken fixed point."""


class ConfigError(CausalRdError):
    """A run configuration failed schema validation; message names the field."""
