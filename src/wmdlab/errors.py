"""Exception types shared across the package, and the check that raises
one for a line of text that is not UTF-8."""


class WmdlabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(WmdlabError):
    """An input array contains NaN, infinite, or negative entries."""


class UnbalancedProblem(WmdlabError):
    """Supply and demand totals differ beyond the repairable tolerance."""


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


def check_utf8(line: str, where: str, lineno: int) -> None:
    """Raise ``ParseError`` naming ``where`` and ``lineno`` when ``line``,
    decoded with ``errors="surrogateescape"``, holds bytes that are not
    UTF-8."""
    if not line.isascii():
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{where}line {lineno}: {exc}",
                             line=lineno) from None


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
