"""Exception classes shared by the whole package.

Grouped by how the CLI maps them to exit statuses: refusals are situations
where a computation declines to answer (retry with different parameters or
inputs), input errors are malformed or unresolvable user data, and the rest
are ordinary preconditions violated at the library level.
"""


class HopfvaError(Exception):
    """Base class for all package-specific errors."""


class Refusal(HopfvaError):
    """A computation declined to run; not a wrong answer, not bad input."""


class SplitFailure(Refusal):
    """Idempotent splitting hit a nonlinear irreducible factor or a nilpotent.

    `reason` is "extend-conductor" or "not-semisimple".
    """

    def __init__(self, reason, detail=""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


class DualNotCommutative(Refusal):
    """Group-like enumeration via the dual algebra needs a commutative dual."""


class HypothesesNotMet(Refusal):
    """A theorem checker refused because stated hypotheses fail.

    Carries the list of failed precondition names.
    """

    def __init__(self, failed):
        self.failed = list(failed)
        super().__init__("hypotheses not met: " + ", ".join(self.failed))


class BudgetExceeded(Refusal):
    """A configured size budget (tensor power, mode count) was exceeded."""


class TruncationOverflow(HopfvaError):
    """A result degree exceeded the carrier's degree cap."""

    def __init__(self, degree, cap, detail=""):
        self.degree = degree
        self.cap = cap
        msg = f"degree {degree} exceeds cap {cap}"
        super().__init__(f"{msg} ({detail})" if detail else msg)


class NotGroupAlgebra(HopfvaError):
    """recognize_group_algebra failed; `reason` says why."""

    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason)


class NotHopfIdeal(HopfvaError):
    """Quotient construction requires a verified Hopf ideal."""


class NotAnIdeal(HopfvaError):
    """The given subspace is not a two-sided ideal."""


class InvalidGroupTable(HopfvaError):
    """A multiplication table fails the group axioms."""


class FiltrationFlagRequired(HopfvaError):
    """Annihilator computations need a filtration-compatible action."""


class MalformedPairs(HopfvaError):
    """Exponent-pair input violates the required shape."""


class MatricesRequired(HopfvaError):
    """Multiplicity-space extraction needs explicit irrep matrices."""


class ShapeMismatch(HopfvaError):
    """Structure data whose sizes do not match the declared dimension."""


class InvariantViolation(HopfvaError):
    """An internal invariant failed: a defect in hopfva, not in the input."""


class ParseError(HopfvaError):
    """Workspace input failed to parse; message carries the position."""


class UnresolvedReference(HopfvaError):
    """A workspace object refers to a name that was never defined."""


class DuplicateName(HopfvaError):
    """Two workspace objects share a name."""
