"""Exception types shared across the package."""


class WmdlabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(WmdlabError):
    """An input array contains NaN, infinite, or negative entries."""


class UnbalancedProblem(WmdlabError):
    """Supply and demand totals differ beyond the repairable tolerance."""


class NotNormalized(WmdlabError):
    """A vector expected to sum to one does not."""


class EmptyCorpus(WmdlabError):
    """No documents were supplied."""


class InconsistentStats(WmdlabError):
    """Document frequencies do not cover the words they are used on."""


class ZeroVector(WmdlabError):
    """A zero (or empty) vector cannot be normalized."""


class DimMismatch(WmdlabError):
    """Two objects that must share a dimension do not."""


class ParseError(WmdlabError):
    """A file does not conform to its declared format.

    Carries ``line`` (1-based) for text formats and ``offset`` (bytes)
    for binary formats when known.
    """

    def __init__(self, message, line=None, offset=None):
        super().__init__(message)
        self.line = line
        self.offset = offset


class MissingWord(WmdlabError):
    """A token is absent from the embedding store."""


class RankDeficient(WmdlabError):
    """Fewer nonzero principal directions than the requested dimension."""


class EmptySupport(WmdlabError):
    """A document has no usable words under the chosen weighting."""


class NotEnoughNeighbors(WmdlabError):
    """No finite-distance training sample is available."""


class EmptyValidation(WmdlabError):
    """The validation subset is empty."""


class DivisionByZero(WmdlabError):
    """A relative score would divide by a zero base error."""


class DegenerateInput(WmdlabError):
    """A statistic is undefined on this input (e.g. zero variance)."""


class NoFiniteNeighbor(WmdlabError):
    """A query row has no finite candidate distance."""


class TooSmall(WmdlabError):
    """A split would leave an empty train or test side."""


class SolverStalled(WmdlabError):
    """The simplex iteration cap was hit; indicates a solver bug."""
