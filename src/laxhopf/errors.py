"""Exception hierarchy shared by all solver modules."""


class LaxHopfError(Exception):
    """Base class for every error raised by this package."""


class EvaluationFault(LaxHopfError):
    """A cost/rate evaluator produced NaN at a named point."""


class DegenerateWindowError(LaxHopfError, ValueError):
    """A zero-aperture window was used where positive duration is required."""


class MisuseError(LaxHopfError, ValueError):
    """A precondition on the caller's side was violated."""


class ParameterError(MisuseError):
    """A catalog entry's parameter ``param`` is malformed or unknown."""

    def __init__(self, param: str, msg: str):
        super().__init__(f"parameter {param!r}: {msg}")
        self.param = param


class EmptyDomainError(LaxHopfError):
    """Every velocity-grid point mapped to infinite cost (empty effective domain)."""


class RateOverflowError(LaxHopfError, OverflowError):
    """Exponentiating an accumulated interest rate overflowed at a named node."""


class ConfigError(LaxHopfError, ValueError):
    """A scenario configuration failed validation; message carries the field path."""


class CommensurabilityError(ConfigError):
    """Velocity lattice times the time step does not map state nodes to state nodes."""
