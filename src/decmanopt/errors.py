"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition (shape, finiteness, symmetry, ...)."""


class NonFiniteError(InvalidInputError):
    """An array that must be finite holds NaN or Inf."""


class SingularityError(ArithmeticError):
    """A factorization target is (numerically) rank deficient or not positive definite."""


class ConfigError(ValueError):
    """An experiment configuration is missing or inconsistent; names the offending key."""


class TubeViolationError(RuntimeError):
    """A run left the regime where its iteration is defined.

    Raised when a projection target or the stacked mean turned rank
    deficient (the iterates left the neighborhood where the nearest-point
    projection is single valued) or a state, gradient or projection target
    turned non-finite (overflow).  Typical causes are initial agents spread
    too far apart or too large a step size.  Carries the iteration, the
    offending agent (None when unknown) and the records taken so far.
    """

    def __init__(self, iteration, agent, message=""):
        self.iteration = iteration
        self.agent = agent
        detail = message or "projection target is rank deficient"
        super().__init__(
            f"projection tube violated at iteration {iteration}"
            + (f", agent {agent}" if agent is not None else "")
            + f": {detail}"
        )
        # Partial results attached by the run loop so callers can persist them.
        self.records = []
