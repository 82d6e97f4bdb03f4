"""Corpus parsing and record-level filtering.

Two input formats are supported:

* vertical documents: one ``surface<TAB>pos<TAB>lemma`` token per line,
  a blank line ends a sentence, a ``#doc <id>`` line opens a document
  (``#doc``, then whitespace or the end of the line: ``#doctorwho`` is a
  token, not a header);
* tweet records: one record per line,
  ``record_id<TAB>author_name<TAB>token1|pos1|lemma1 token2|pos2|lemma2 ...``
  with sentence breaks encoded as the pseudo-token ``</s>``.

Fine-grained POS tags are mapped onto four coarse tags at parse time
(``VERB``, ``PRONOUN``, ``PROPER_NOUN``, ``OTHER``); unknown tags fall
back to ``OTHER``.  All matching downstream runs on the lemma column,
which is lowercased here.

Each format has exactly two readers that accept the same lines and
raise the same errors: one reference reader that builds whole records,
and one reader that the commands use, which keeps only what they read.

* Tweets: the reference reader ``parse_tweet_stream`` yields
  ``TweetRecord`` objects (checked with ``passes_english_filter``).
  ``score --kind tweet`` and ``sanity`` both read through
  ``_scan_tweets``, which yields per record the verbatim author field
  and the lemmas of each sentence, or ``None`` when the English filter
  drops the record; ``sanity`` reads with no filter.
* Documents: the reference reader ``parse_document_records`` yields
  ``DocumentRecord`` objects.  The ``score --kind document`` reader,
  ``_scan_vertical``, yields per record its id and, per sentence, the
  lemmas and the positions of the pronouns and proper nouns, and parses
  each distinct token line once per shard through a memo of bounded
  size.  The two share no grouping code, so each checks the other.
"""

from __future__ import annotations

import importlib.resources
import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ConfigError, CorpusFormatError, open_text, read_rows

VERB = "VERB"
PRONOUN = "PRONOUN"
PROPER_NOUN = "PROPER_NOUN"
OTHER = "OTHER"

COARSE_TAGS = frozenset({VERB, PRONOUN, PROPER_NOUN, OTHER})

SENTENCE_BREAK = "</s>"

_DOC_HEADER = r"#doc(?:\s|$)"
DOC_HEADER = re.compile(_DOC_HEADER)
# The same rule over the raw bytes of a file, matched from the newline
# before the header, for cutting a file between documents.  In a bytes
# pattern ``\s`` is ASCII whitespace only, so a header followed by other
# whitespace is no cut, but a token line never is one.
DOC_HEADER_CUT = re.compile(b"\n" + _DOC_HEADER.encode(), re.MULTILINE)

# Bounds of the per-shard memo of ``_scan_vertical``: the lines of a
# vertical corpus repeat heavily, but its memory must not grow with it.
MEMO_ENTRIES = 8192
MEMO_KEY_CHARS = 64


@dataclass(frozen=True, slots=True)
class AnnotatedToken:
    surface: str
    lemma: str
    pos: str

    def __post_init__(self):
        if self.lemma.split() != [self.lemma]:
            raise ValueError(f"bad lemma {self.lemma!r}: must be non-empty, no whitespace")
        if self.pos not in COARSE_TAGS:
            raise ValueError(f"bad coarse POS {self.pos!r}")


@dataclass(frozen=True, slots=True)
class Sentence:
    """Parallel columns of surfaces, coarse POS tags and lowercased
    lemmas; the parsers validate the lemmas, the constructor does not."""

    surfaces: tuple[str, ...]
    tags: tuple[str, ...]
    lemmata: tuple[str, ...]

    def lemmas(self) -> tuple[str, ...]:
        return self.lemmata

    @property
    def tokens(self) -> tuple[AnnotatedToken, ...]:
        """Row view of the columns, built on every call."""
        return tuple(map(AnnotatedToken, self.surfaces, self.lemmata, self.tags))


@dataclass(frozen=True)
class TweetRecord:
    """One tweet plus its author name field.

    ``author_name`` is the verbatim field (the per-user identity key);
    ``author_first_name`` is its first word, lowercased, for gender
    lookup.
    """

    record_id: str
    author_name: str
    author_first_name: str
    sentences: tuple[Sentence, ...]


@dataclass(frozen=True)
class DocumentRecord:
    """One ``#doc`` block of a vertical file, used as the attribution and
    deduplication unit on the document path."""

    record_id: str
    sentences: tuple[Sentence, ...]


@dataclass(frozen=True)
class EnglishFilterConfig:
    wordlist: frozenset[str]
    max_nonenglish_ratio: float

    def __post_init__(self):
        if not self.wordlist:
            raise ConfigError("English word list is empty")
        if not 0.0 <= self.max_nonenglish_ratio <= 1.0:
            raise ConfigError(
                f"max_nonenglish_ratio must be in [0, 1], got {self.max_nonenglish_ratio}"
            )


def default_tag_map() -> dict[str, str]:
    """The tag map shipped with the package (Penn Treebank and TreeTagger
    style tags, plus identity entries for the coarse tags themselves)."""
    text = (
        importlib.resources.files("stereomine.data")
        .joinpath("default_tag_map.tsv")
        .read_text(encoding="utf-8")
    )
    return parse_tag_map(text.splitlines())


def parse_tag_map(lines: Iterable[str], path=None) -> dict[str, str]:
    """Parse ``fine_tag<TAB>coarse_tag`` lines into a mapping."""
    mapping: dict[str, str] = {}
    for line_no, (fine, coarse) in read_rows(lines, path, ("fine_tag", "coarse_tag")):
        fine, coarse = fine.strip(), coarse.strip()
        if coarse not in COARSE_TAGS:
            raise CorpusFormatError(
                f"unknown coarse tag {coarse!r} (expected one of {sorted(COARSE_TAGS)})",
                line_no=line_no,
                path=path,
            )
        mapping[fine] = coarse
    if not mapping:
        raise ConfigError("tag map is empty")
    return mapping


def load_tag_map(path) -> dict[str, str]:
    with open_text(path) as fh:
        return parse_tag_map(fh, path=path)


def load_wordlist(path) -> frozenset[str]:
    """Read a one-word-per-line list, lowercased."""
    words = set()
    with open_text(path) as fh:
        for line in fh:
            word = line.strip().lower()
            if word:
                words.add(word)
    if not words:
        raise ConfigError(f"word list {path} is empty")
    return frozenset(words)


def default_wordlist() -> frozenset[str]:
    """The small English word list shipped with the package."""
    text = (
        importlib.resources.files("stereomine.data")
        .joinpath("default_wordlist.txt")
        .read_text(encoding="utf-8")
    )
    return frozenset(w.strip().lower() for w in text.splitlines() if w.strip())


def parse_document_records(
    lines: Iterable[str], tag_map: dict[str, str], path=None
) -> Iterator[DocumentRecord]:
    """Stream a vertical file's sentences grouped into per-``#doc`` records.

    ``#doc`` lines and blank lines are structural; any other line must
    carry exactly three tab-separated fields.  Each sentence appearing
    before the first ``#doc`` line becomes a record of its own, with ids
    ``autodoc1``, ``autodoc2``, ... in file order.
    """
    tag_of = tag_map.get
    doc_id = record_id = None
    sentences: list[Sentence] = []
    surfaces, tags, lemmas = [], [], []
    auto = 0
    # the blank line after the last one closes the last sentence
    for line_no, raw in enumerate(itertools.chain(lines, ("",)), start=1):
        line = raw.rstrip("\n")
        # the prefix test keeps the regex off nearly every line
        is_doc = line.startswith("#doc") and DOC_HEADER.match(line) is not None
        if is_doc or not line.strip():
            if surfaces:
                if doc_id is None:
                    auto += 1
                    sentence_doc = f"autodoc{auto}"
                else:
                    sentence_doc = doc_id
                if sentence_doc != record_id:
                    if sentences:
                        yield DocumentRecord(record_id=record_id, sentences=tuple(sentences))
                    record_id, sentences = sentence_doc, []
                sentences.append(Sentence(tuple(surfaces), tuple(tags), tuple(lemmas)))
                surfaces, tags, lemmas = [], [], []
            if is_doc:
                doc_id = _doc_id(line, line_no, path)
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise _fields_error(parts, line_no, path)
        surface, fine, lemma = parts
        lemma = lemma.strip().lower()
        if len(lemma.split()) != 1:  # empty, or whitespace inside
            raise _fields_error(parts, line_no, path)
        surfaces.append(surface)
        tags.append(tag_of(fine, OTHER))
        lemmas.append(lemma)
    if sentences:
        yield DocumentRecord(record_id=record_id, sentences=tuple(sentences))


def _doc_id(header: str, line_no: int, path) -> str:
    """The id of a ``#doc`` header line, which must have one."""
    doc_id = header[len("#doc") :].strip()
    if not doc_id:
        raise CorpusFormatError("#doc line without an id", line_no=line_no, path=path)
    return doc_id


def _fields_error(parts: list[str], line_no: int, path) -> CorpusFormatError:
    """The error for a vertical token line, split into ``parts`` at tabs,
    that has not three fields or whose lemma is not one word."""
    if len(parts) != 3:
        return CorpusFormatError(
            f"expected 3 tab-separated fields, got {len(parts)}",
            line_no=line_no,
            path=path,
        )
    surface, _, lemma = parts
    return CorpusFormatError(
        f"bad lemma {lemma.strip().lower()!r} for surface {surface!r}", line_no=line_no, path=path
    )


def _scan_vertical(
    lines: Iterable[str], tag_map: dict[str, str], path=None
) -> Iterator[tuple[str, list[tuple[list[str], list[tuple[int, str, str]]]]]]:
    """The document route of ``score`` in one pass over the lines.

    Per record, yields ``(record_id, sentences)``, each sentence as
    ``(lemmas, candidates)``: its lowercased lemmas, and per pronoun or
    proper-noun token ``(position, coarse tag, lowercased surface)``.
    It groups, accepts and rejects exactly what ``parse_document_records``
    does, with the same errors, but builds no ``Sentence`` or
    ``DocumentRecord``.  A token line that passed every check is memoized
    by its raw text, so a repeat costs one lookup; only lines of at most
    ``MEMO_KEY_CHARS`` characters are kept, and at most ``MEMO_ENTRIES``
    of them, so the memo's size does not grow with the corpus.
    """
    tag_of = tag_map.get
    memo: dict[str, str | tuple[str, str, str]] = {}
    recall = memo.get
    doc_id = record_id = None
    sentences: list[tuple[list[str], list[tuple[int, str, str]]]] = []
    lemmas: list[str] = []
    candidates: list[tuple[int, str, str]] = []
    auto = 0
    # the blank line after the last one closes the last sentence
    for line_no, raw in enumerate(itertools.chain(lines, ("",)), start=1):
        token = recall(raw)
        if token is not None:
            if token.__class__ is str:
                lemmas.append(token)
            else:
                candidates.append((len(lemmas), token[1], token[2]))
                lemmas.append(token[0])
            continue
        line = raw.rstrip("\n")
        is_doc = line.startswith("#doc") and DOC_HEADER.match(line) is not None
        if is_doc or not line.strip():
            if lemmas:
                if doc_id is None:
                    auto += 1
                    sentence_doc = f"autodoc{auto}"
                else:
                    sentence_doc = doc_id
                if sentence_doc != record_id:
                    if sentences:
                        yield record_id, sentences
                    record_id, sentences = sentence_doc, []
                sentences.append((lemmas, candidates))
                lemmas, candidates = [], []
            if is_doc:
                doc_id = _doc_id(line, line_no, path)
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise _fields_error(parts, line_no, path)
        surface, fine, lemma = parts
        lemma = lemma.strip().lower()
        if len(lemma.split()) != 1:  # empty, or whitespace inside
            raise _fields_error(parts, line_no, path)
        tag = tag_of(fine, OTHER)
        if tag == PRONOUN or tag == PROPER_NOUN:
            token = (lemma, tag, surface.lower())
            candidates.append((len(lemmas), tag, token[2]))
        else:
            token = lemma
        lemmas.append(lemma)
        if len(memo) < MEMO_ENTRIES and len(raw) <= MEMO_KEY_CHARS:
            memo[raw] = token
    if sentences:
        yield record_id, sentences


def _tweet_lines(
    lines: Iterable[str], ids: set[str], path=None
) -> Iterator[tuple[int, str, str, str]]:
    """Yield (line_no, record_id, author_name, text) per non-blank line,
    adding each record id to ``ids`` and raising on one already there."""
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise CorpusFormatError(
                f"expected 3 tab-separated fields (record_id, author_name, text), got {len(parts)}",
                line_no=line_no,
                path=path,
            )
        record_id, author_name, text = parts
        if record_id in ids:
            raise CorpusFormatError(
                f"duplicate record_id {record_id!r}", line_no=line_no, path=path
            )
        ids.add(record_id)
        yield line_no, record_id, author_name, text


def _token_error(chunk: str, line_no: int, path) -> CorpusFormatError:
    """The error for a tweet token that is not ``surface|pos|lemma`` with a
    non-empty lemma (``text.split()`` left no whitespace in the chunk)."""
    fields = chunk.rsplit("|", 2)
    if len(fields) != 3:
        return CorpusFormatError(
            f"token {chunk!r} is not surface|pos|lemma", line_no=line_no, path=path
        )
    return CorpusFormatError(
        f"bad lemma {fields[2]!r} for surface {fields[0]!r}", line_no=line_no, path=path
    )


def _first_name(author_name: str) -> str:
    """The first word of a name field, lowercased ("" for a blank field)."""
    words = author_name.split()
    return words[0].lower() if words else ""


def _mostly_english(total: int, unknown: int, max_nonenglish_ratio: float) -> bool:
    """The English-filter verdict on a record's alphabetic surface count
    and the number of those missing from the word list."""
    return total == 0 or unknown / total <= max_nonenglish_ratio


def parse_tweet_stream(
    lines: Iterable[str], tag_map: dict[str, str], path=None
) -> Iterator[TweetRecord]:
    """Stream tweet records, one per input line.

    The author's first name is the first whitespace-delimited word of
    the name field, lowercased.  Record ids must be unique within the
    file.
    """
    tag_of = tag_map.get
    for line_no, record_id, author_name, text in _tweet_lines(lines, set(), path):
        sentences: list[Sentence] = []
        surfaces, tags, lemmas = [], [], []
        for chunk in text.split():
            if chunk == SENTENCE_BREAK:
                if surfaces:
                    sentences.append(Sentence(tuple(surfaces), tuple(tags), tuple(lemmas)))
                    surfaces, tags, lemmas = [], [], []
                continue
            try:
                surface, fine, lemma = chunk.rsplit("|", 2)
            except ValueError:  # fewer than two "|"
                raise _token_error(chunk, line_no, path) from None
            if not lemma:
                raise _token_error(chunk, line_no, path)
            surfaces.append(surface)
            tags.append(tag_of(fine, OTHER))
            lemmas.append(lemma.lower())
        if surfaces:
            sentences.append(Sentence(tuple(surfaces), tuple(tags), tuple(lemmas)))
        yield TweetRecord(
            record_id=record_id,
            author_name=author_name,
            author_first_name=_first_name(author_name),
            sentences=tuple(sentences),
        )


def _scan_tweets(
    lines: Iterable[str], english: EnglishFilterConfig | None, ids: set[str], path=None
) -> Iterator[tuple[str, list[list[str]]] | None]:
    """The tweet corpus in one pass over each record's tokens.

    Per record, yields ``(author_name, [lowercased lemmas per
    sentence])`` with the verbatim author field, or ``None`` if the
    record fails the English filter; with ``english=None`` every record
    is kept.  It accepts and rejects exactly what ``parse_tweet_stream``
    does, with the same errors, and adds every record id to ``ids``.  No
    tags, ``Sentence`` or ``TweetRecord`` are built, and the token loop
    stays inline: a call or an object per token costs more than the work.
    """
    if english is None:
        # no word is English, but no share of unknown words exceeds 1
        wordlist, max_ratio = frozenset(), 1.0
    else:
        wordlist, max_ratio = english.wordlist, english.max_nonenglish_ratio
    for line_no, _, author_name, text in _tweet_lines(lines, ids, path):
        sentences: list[list[str]] = []
        lemmas: list[str] = []
        total = unknown = 0
        for chunk in text.split():
            if chunk == SENTENCE_BREAK:
                if lemmas:
                    sentences.append(lemmas)
                    lemmas = []
                continue
            try:
                surface, _, lemma = chunk.rsplit("|", 2)
            except ValueError:  # fewer than two "|"
                raise _token_error(chunk, line_no, path) from None
            if not lemma:
                raise _token_error(chunk, line_no, path)
            if surface.isalpha():
                total += 1
                if surface.lower() not in wordlist:
                    unknown += 1
            lemmas.append(lemma.lower())
        if not _mostly_english(total, unknown, max_ratio):
            yield None
            continue
        if lemmas:
            sentences.append(lemmas)
        yield author_name, sentences


def passes_english_filter(record: TweetRecord, config: EnglishFilterConfig) -> bool:
    """True iff the share of alphabetic surface tokens missing from the
    word list is at most ``max_nonenglish_ratio`` (boundary inclusive).

    Hashtags, mentions, emoticons and punctuation are not alphabetic and
    never enter the ratio; a record with no alphabetic tokens passes.
    """
    total = 0
    unknown = 0
    for sentence in record.sentences:
        for surface in sentence.surfaces:
            if not surface.isalpha():
                continue
            total += 1
            if surface.lower() not in config.wordlist:
                unknown += 1
    return _mostly_english(total, unknown, config.max_nonenglish_ratio)
