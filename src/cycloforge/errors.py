"""Exception hierarchy shared by every cycloforge module.

All domain errors derive from CycloforgeError so CLI dispatch can map
them to exit code 1 uniformly.
"""


class CycloforgeError(Exception):
    """Base class for all domain errors raised by this package."""


class DivisionByZero(CycloforgeError):
    """Polynomial division by the zero polynomial."""


class RemainderNonzero(CycloforgeError):
    """Exact division requested but the divisor does not divide evenly."""


class IndexOutOfRange(CycloforgeError):
    """Residue-class index outside [0, m)."""


class NotCoprime(CycloforgeError):
    """Arguments required to be pairwise coprime are not."""


class LOutOfRange(CycloforgeError):
    """Staircase length l outside [1, p+q-1]."""


class NotCoprimeIndex(CycloforgeError):
    """The prime p divides n, so the (n, p) decomposition is undefined."""


class IntegralityFailure(CycloforgeError):
    """Rational arithmetic did not clear to integers; implementation bug."""


class RequiresLargeP(CycloforgeError):
    """Operation is only defined for p > n."""


class HypothesisViolated(CycloforgeError):
    """Inputs do not satisfy the hypotheses of the requested comparison."""


class NotSortedDistinctOddPrimes(CycloforgeError):
    """Classifier input must be strictly increasing distinct odd primes."""


class UnknownConjecture(CycloforgeError):
    """Scan requested for a conjecture tag this package does not know."""


class UnknownSuite(CycloforgeError):
    """Verification suite name not recognized."""
