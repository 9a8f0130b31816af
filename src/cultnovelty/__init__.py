"""Information-theoretic cultural novelty metrics over recipe corpora."""

__version__ = "0.1.0"
