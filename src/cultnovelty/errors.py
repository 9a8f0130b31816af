"""Exception types shared across the toolkit."""


class CultNoveltyError(Exception):
    """Base class for all toolkit errors."""


# corpus / annotation

class EmptyAfterFilter(CultNoveltyError):
    """No token survived the part-of-speech filter."""


class EmptyDocument(CultNoveltyError):
    """A document with no body tokens was passed where content is required."""


class EmptyCorpus(CultNoveltyError):
    """An operation over a document set received no non-empty documents."""


class ParseError(CultNoveltyError):
    """An input file, distance CSVs included, is malformed; message carries path and line context."""


# novelty metrics

class InsufficientKB(CultNoveltyError):
    """Knowledge space has fewer than two documents; thresholds undefined."""


# cultural distances

class MissingCoordinates(CultNoveltyError):
    """A country record lacks the coordinates the distance needs."""


class UnknownCountry(CultNoveltyError):
    """An ISO code does not exist in the loaded country registry."""


# dataset builder

class IneligibleDish(CultNoveltyError):
    """A (dish, origin) split violates the knowledge/variation floors.

    kb_size and variation_count are the sizes the split came out with.
    """

    def __init__(self, message: str, kb_size: int, variation_count: int):
        super().__init__(message)
        self.kb_size = kb_size
        self.variation_count = variation_count


# statistics

class LengthMismatch(CultNoveltyError):
    """Paired series have different lengths."""


class ConstantSeries(CultNoveltyError):
    """A correlation input or a regression response has zero variance."""


class AllTied(CultNoveltyError):
    """Every value in a ranking series is tied; tau-b is undefined."""


class DuplicateIds(CultNoveltyError):
    """A ranked list contains the same id twice."""


class RankDeficient(CultNoveltyError):
    """The regression design matrix is not full column rank."""


class InsufficientObservations(CultNoveltyError):
    """Too few rows for the requested number of regression parameters."""


class NumericOverflow(CultNoveltyError):
    """A series is too large, or its spread too small, in magnitude for float64 arithmetic."""
