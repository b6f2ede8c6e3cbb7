"""Exception types shared across the package, and the one reader of the
lines of a text input, which raises ``ParseError`` for bytes that are not
UTF-8."""

from typing import Iterator


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

    ``path`` names the file, ``line`` (1-based) the line of a text format
    and ``offset`` the byte of a binary one, each None when not known; the
    known ones lead ``str``: ``path: line N: message``, ``path: byte N:
    message``. No other code writes where a fault is into a message."""

    def __init__(self, message, path=None, line=None, offset=None):
        super().__init__(message)
        self.path, self.line, self.offset = path, line, offset

    def __str__(self) -> str:
        where = (self.path, self.line and f"line {self.line}",
                 self.offset is not None and f"byte {self.offset}")
        return ": ".join([*(str(w) for w in where if w), super().__str__()])


def check_utf8(line: str, lineno: int, path=None) -> None:
    """Raise ``ParseError`` at line ``lineno`` of ``path`` when ``line``,
    decoded with ``errors="surrogateescape"``, holds bytes that are not
    UTF-8."""
    if not line.isascii():
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(str(exc), path, lineno) from None


def text_lines(path) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each line of the text file ``path``,
    split at universal newlines (not at the form feeds and other breaks
    of ``str.splitlines``), each checked by ``check_utf8``."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            check_utf8(line, lineno, path)
            yield lineno, line


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
