"""Exception types shared across the library."""


class LegdualError(Exception):
    """Base class for all library errors."""


class PoleError(LegdualError):
    """A gamma function or Pochhammer denominator hit a pole."""


class DivergenceError(LegdualError):
    """A nonterminating series was requested outside its convergence disk, or
    a series' terms, gamma or 1/gamma overflow, or an identity's side is not finite."""


class MaxTermsError(LegdualError):
    """The term budget was exhausted before the stopping rule fired."""


class NotTerminatingError(LegdualError):
    """No numerator parameter terminates the sum at the requested index."""


class DomainError(LegdualError):
    """Argument outside the supported evaluation window."""


class DuplicateNodeError(LegdualError):
    """Factor nodes must be pairwise distinct."""


class DegenerateError(LegdualError):
    """A dominant exponent is a nonpositive integer; the leading term vanishes."""


class BoundUnavailableError(LegdualError):
    """The stated remainder bound is not finite for these parameters."""


class UnknownIdentityError(LegdualError):
    """Identity id is not registered."""


class ConvergenceError(LegdualError):
    """A series' terms still grow at the term cap, or it has no finite
    Wynn estimate."""
