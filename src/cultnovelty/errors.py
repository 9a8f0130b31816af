"""Exception types shared across the toolkit.

The errors a stage handles: ingest drops an ``EmptyAfterFilter`` record,
``compute_matrix`` leaves a ``MissingCoordinates`` pair out, score reports
``InsufficientKB`` as a ``ParseError``, and analyze leaves an
``UndefinedStatistic`` cell empty or skips its row. Any other
``CultNoveltyError`` that reaches the CLI is a fault.
"""


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


# statistics

class LengthMismatch(CultNoveltyError):
    """Paired series have different lengths, or two rankings different ids."""


class DuplicateIds(CultNoveltyError):
    """A ranked list contains the same id twice."""


class UndefinedStatistic(CultNoveltyError):
    """The statistic has no value on these rows; ``stats`` alone decides when."""


class ConstantSeries(UndefinedStatistic):
    """A correlation input or a regression response has zero variance."""


class AllTied(UndefinedStatistic):
    """Every value in a ranking series is tied; tau-b is undefined."""


class RankDeficient(UndefinedStatistic):
    """The regression design matrix is not full column rank."""


class InsufficientObservations(UndefinedStatistic):
    """Too few rows for the statistic: its floor, or the regression's parameter count."""


class NumericOverflow(UndefinedStatistic):
    """A series is too large, or its spread too small, in magnitude for float64 arithmetic."""
