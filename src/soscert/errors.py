"""Exception taxonomy shared across the toolkit.

Mathematical impossibility (ConditionFailed), numerical exhaustion
(PrecisionExceeded, Infeasible, MaxIterations, and ClusterAmbiguity or
SingularVandermonde when float64 cannot separate the roots) and structural
misuse are kept distinct so that callers, the CLI's exit codes among
them, can branch on them.
"""


class SosCertError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(SosCertError):
    pass


class NotZeroDimensional(SosCertError):
    """The ideal has infinitely many complex solutions."""


class ConditionFailed(SosCertError):
    """The coprimality hypothesis (I : f) + (f) = (1) does not hold; a
    nonnegativity certificate may not exist."""


class NotInvertible(SosCertError):
    """The polynomial vanishes at some root, so it has no inverse modulo
    the ideal."""


class NotPD(SosCertError):
    """First non-positive leading minor met during LDL^t; carries the
    1-based pivot index."""

    def __init__(self, index):
        super().__init__(f"matrix is not positive definite (pivot {index})")
        self.index = index


class PrecisionExceeded(SosCertError):
    """The precision-escalation loop hit its ceiling; the input is likely
    not strictly positive numerically."""


class ClusterAmbiguity(SosCertError):
    """Two computed roots are closer than the separation tolerance allows."""


class SingularVandermonde(SosCertError):
    """Vandermonde of the basis at the computed points is singular: the
    ring is not radical, or two roots nearly coincide."""


class BoundaryAmbiguity(UserWarning):
    """Some constraint value sits inside the tolerance band at a root; the
    point was provisionally included in S."""


class NotStrictlyPositiveOnS(SosCertError):
    pass


class NonPositiveAtRealRoot(SosCertError):
    pass


class IdentityBroken(SosCertError):
    """An exact identity that the construction guarantees does not hold:
    an internal error, not a property of the input."""


class Infeasible(SosCertError):
    """A feasible point y of the SDP dual bounds the smallest eigenvalue of
    the free Gram block by lambda* <= b^t y, and that bound is <= 0 to the
    float resolution of b: there is no positive definite block to round."""

    def __init__(self, bound):
        super().__init__(f"SDP dual bound: the smallest eigenvalue of the free Gram block "
                         f"is at most {bound:.3e}")
        self.bound = bound


class MaxIterations(SosCertError):
    """The SDP solver stopped without an answer: its iteration limit, or a
    float breakdown of its Newton system; the message names the iteration
    and the residuals."""


class ParseError(SosCertError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
