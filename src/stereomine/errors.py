"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: configuration and input-format
problems exit 1, degenerate-data conditions exit 2.
"""

from contextlib import contextmanager


class StereomineError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(StereomineError):
    """Invalid configuration, missing file, or unusable lexicon input."""


class CorpusFormatError(StereomineError):
    """Malformed corpus, lexicon, or table file."""

    def __init__(self, message, line_no=None, path=None):
        self.line_no = line_no
        self.path = path
        where = ""
        if path is not None:
            where += f"{path}:"
        if line_no is not None:
            where += f"{line_no}:"
        super().__init__(f"{where} {message}" if where else message)


@contextmanager
def open_text(path):
    """Open a UTF-8 file for reading; undecodable bytes raise CorpusFormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"not valid UTF-8 ({exc.reason})", path=path) from None


class DegenerateDataError(StereomineError):
    """Data too degenerate for the requested computation.

    Examples: a single-gender corpus (p in {0, 1}), zero-variance score
    distributions, an empty evaluable set, or a probe sample with no
    users of one gender.
    """
