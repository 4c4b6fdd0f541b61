"""Exception classes and the check report shared by the whole package.

Exceptions are grouped by how the CLI maps them to exit statuses: refusals
are situations where a computation declines to answer (retry with different
parameters or inputs), input errors are malformed or unresolvable user data,
and the rest are ordinary preconditions violated at the library level.

`CheckReport` is the one verdict type of every exact check (Hopf axioms,
module and module-vertex-algebra identities, fixed-point closure, character
tables, commutants, vertex-algebra axioms): check name -> (passed, witness),
where the witness names the first failing input.
"""


class CheckReport(dict):
    """Check name -> (passed, witness); the witness is None when it passed."""

    @property
    def passed(self):
        return all(ok for ok, _ in self.values())

    def record(self, name, failures):
        """Store the first witness the lazy iterable `failures` yields.

        The search stops there, so witnesses are built only for failures;
        when it yields none the check passed.
        """
        for witness in failures:
            self[name] = (False, witness)
            return
        self[name] = (True, None)


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


class NotHopfAlgebra(HopfvaError):
    """Structure constants entered as input fail a Hopf axiom; the message
    names the object, the first failing axiom and its witness."""


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


def require(cond, message):
    """Raise InvariantViolation(message) unless `cond` holds.

    Unlike `assert`, the check stays in force under `python -O`, so a
    verdict it guards cannot turn into a silent pass.
    """
    if not cond:
        raise InvariantViolation(message)


class ParseError(HopfvaError):
    """Workspace input failed to parse; message carries the position."""


class UnresolvedReference(HopfvaError):
    """A workspace object refers to a name that was never defined."""


class DuplicateName(HopfvaError):
    """Two workspace objects share a name."""
