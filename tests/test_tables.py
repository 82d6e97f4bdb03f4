"""The table dialect shared by every TSV reader: ``#`` lines and blank
lines are skipped, the field count is exact, errors read ``path:line:``."""

import re

import pytest

from stereomine.corpus_io import parse_tag_map
from stereomine.errors import ConfigError, CorpusFormatError, open_text
from stereomine.evaluation import parse_gold, parse_ratings
from stereomine.lexicons import load_concepts, load_tag_counts
from stereomine.scoring import parse_counts_table, parse_score_table


def _from_lines(parse):
    def read(path):
        with open_text(path) as fh:
            return parse(fh, path=path)

    return read


# (reader of a path, one valid row, result of a comment-only file or the
# error it raises)
READERS = {
    "tag map": (_from_lines(parse_tag_map), "VBD\tVERB", ConfigError),
    "tag counts": (load_tag_counts, "walk\tVB\t3", {}),
    "concepts": (lambda path: list(load_concepts(path)), "c1\twalk the dog", []),
    "ratings": (_from_lines(parse_ratings), "p1\tr1\t-2", []),
    "gold": (_from_lines(parse_gold), "p1\twalk dog\t1.5\t5", []),
    "counts table": (_from_lines(parse_counts_table), "p1\twalk dog\t1\t2", ({}, {})),
    "score table": (
        _from_lines(parse_score_table),
        "p1\twalk dog\t1\t2\t0.3333333333333333\t-0.5\t",
        ([], {}),
    ),
}


def _write(tmp_path, text):
    path = tmp_path / "table.tsv"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", READERS)
def test_reader_follows_the_table_dialect(tmp_path, name):
    read, row, empty = READERS[name]
    columns = r"\w+" + r"<TAB>\w+" * row.count("\t")

    for bad in (row + "\textra", row.rsplit("\t", 1)[0]):
        path = _write(tmp_path, f"# header\n{row}\n{bad}\n")
        with pytest.raises(CorpusFormatError) as exc:
            read(path)
        fields = bad.count("\t") + 1
        want = rf"{re.escape(path)}:3: expected {columns}, got {fields} fields"
        assert re.fullmatch(want, str(exc.value))

    one_row = read(_write(tmp_path, f"{row}\n"))
    assert one_row != empty
    assert read(_write(tmp_path, f"# a comment\n \t \n\n{row}\n   \n#\tx\n")) == one_row

    path = _write(tmp_path, "# only\n# comments\n")
    if isinstance(empty, type):
        with pytest.raises(empty):
            read(path)
    else:
        assert read(path) == empty

