"""Exception types raised across the package."""


class PstseqError(Exception):
    """Base class for all library errors."""


class InputError(PstseqError):
    """Invalid input data (files, raw block lists, sequences)."""


class RepeatedPointInBlock(InputError):
    """A block triple names the same point twice."""


class PairInTwoBlocks(InputError):
    """Two blocks share a pair of points; message names both triples."""


class PointOutOfRange(InputError):
    """A block references a point outside the declared order."""


class SequenceNotPermutation(InputError):
    """A sequence is not a permutation of all points of the system."""


class DevelopmentCollision(PstseqError):
    """Developing cyclic base blocks produced two blocks sharing a pair."""


class SizeTooSmall(PstseqError):
    """A friendship-chain component has too few triangles."""


class OrderTooSmall(PstseqError):
    """The system order is below what the operation requires."""


class WrongCardinality(PstseqError):
    """A point set has the wrong size for the requested operation."""


class NotSequenceableSystem(PstseqError):
    """Exhaustive search certified that no admissible sequence exists."""


class BudgetExhausted(PstseqError):
    """The search budget ran out before reaching a verdict."""


class NoAdmissibleLabeling(PstseqError):
    """No labeling of the fixed positional pattern is admissible.

    On an order-12 input with exactly three pairwise disjoint blocks this
    must never happen; seeing it there is a reportable defect, not a
    condition to swallow.
    """


class RepairFailed(PstseqError):
    """Interleaving repairs did not converge within the retry budget."""


class CertificateFailure(PstseqError):
    """A certificate self-check failed; this demands loud failure."""
