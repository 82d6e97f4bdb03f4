"""Exception types shared across the toolkit, and the table dialect.

The CLI maps these onto exit codes: configuration and input-format
problems exit 1, degenerate-data conditions exit 2.

Every TSV table the toolkit reads or writes (except the corpora and the
name lists) follows one dialect: lines starting with ``#`` and blank or
whitespace-only lines are skipped, every other line has exactly one
field per column, and a bad line is reported as ``path:line:``.
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


def read_rows(lines, path, columns):
    """Yield ``(line_no, fields)`` for each data line of a table whose
    rows have exactly ``len(columns)`` tab-separated fields."""
    width = len(columns)
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != width:
            raise CorpusFormatError(
                f"expected {'<TAB>'.join(columns)}, got {len(fields)} fields", line_no, path
            )
        yield line_no, fields


def format_rows(columns, rows) -> str:
    """A ``# column...`` header line, then one tab-joined line per row."""
    header = "# " + "\t".join(columns) + "\n"
    return header + "".join("\t".join(map(str, row)) + "\n" for row in rows)


class DegenerateDataError(StereomineError):
    """Data too degenerate for the requested computation.

    Examples: a single-gender corpus (p in {0, 1}), zero-variance score
    distributions, an empty evaluable set, or a probe sample with no
    users of one gender.
    """
