"""Corpus parsing and record-level filtering.

Two input formats are supported:

* vertical documents: one ``surface<TAB>pos<TAB>lemma`` token per line,
  a blank line ends a sentence, a ``#doc <id>`` line opens a document;
* tweet records: one record per line,
  ``record_id<TAB>author_name<TAB>token1|pos1|lemma1 token2|pos2|lemma2 ...``
  with sentence breaks encoded as the pseudo-token ``</s>``.

Fine-grained POS tags are mapped onto four coarse tags at parse time
(``VERB``, ``PRONOUN``, ``PROPER_NOUN``, ``OTHER``); unknown tags fall
back to ``OTHER``.  All matching downstream runs on the lemma column,
which is lowercased here.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ConfigError, CorpusFormatError, open_text

VERB = "VERB"
PRONOUN = "PRONOUN"
PROPER_NOUN = "PROPER_NOUN"
OTHER = "OTHER"

COARSE_TAGS = frozenset({VERB, PRONOUN, PROPER_NOUN, OTHER})

SENTENCE_BREAK = "</s>"


@dataclass(frozen=True, slots=True)
class AnnotatedToken:
    surface: str
    lemma: str
    pos: str

    def __post_init__(self):
        if not self.lemma or any(c.isspace() for c in self.lemma):
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
    max_nonenglish_ratio: float = 0.20

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
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise CorpusFormatError(
                f"tag map line needs 2 tab-separated fields, got {len(parts)}",
                line_no=line_no,
                path=path,
            )
        fine, coarse = parts[0].strip(), parts[1].strip()
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


def parse_document_stream(
    lines: Iterable[str], tag_map: dict[str, str] | None = None, path=None
) -> Iterator[Sentence]:
    """Stream sentences out of a vertical-format document file.

    Yields sentences in file order.  ``#doc`` lines and blank lines are
    structural; any other line must carry exactly three tab-separated
    fields.
    """
    for _, sentence in _parse_vertical(lines, tag_map, path):
        yield sentence


def parse_document_records(
    lines: Iterable[str], tag_map: dict[str, str] | None = None, path=None
) -> Iterator[DocumentRecord]:
    """Group a vertical file's sentences into per-``#doc`` records.

    Sentences appearing before any ``#doc`` line are collected into an
    implicit record with id ``autodoc1``.
    """
    current_id: str | None = None
    current: list[Sentence] = []
    auto = 0
    for doc_id, sentence in _parse_vertical(lines, tag_map, path):
        if doc_id is None:
            auto += 1
            doc_id = f"autodoc{auto}"
        if doc_id != current_id:
            if current:
                yield DocumentRecord(record_id=current_id, sentences=tuple(current))
            current_id = doc_id
            current = []
        current.append(sentence)
    if current:
        yield DocumentRecord(record_id=current_id, sentences=tuple(current))


def _parse_vertical(lines, tag_map, path):
    """Yield (doc_id, Sentence) pairs; doc_id is None before any #doc line."""
    tag_of = (default_tag_map() if tag_map is None else tag_map).get
    doc_id = pending_doc = None
    surfaces, tags, lemmas = [], [], []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        is_doc = line.startswith("#doc")
        if is_doc or not line.strip():
            if surfaces:
                yield pending_doc, Sentence(tuple(surfaces), tuple(tags), tuple(lemmas))
                surfaces, tags, lemmas = [], [], []
            if is_doc:
                doc_id = line[len("#doc") :].strip()
                if not doc_id:
                    raise CorpusFormatError("#doc line without an id", line_no=line_no, path=path)
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise CorpusFormatError(
                f"expected 3 tab-separated fields, got {len(parts)}",
                line_no=line_no,
                path=path,
            )
        surface, fine, lemma = parts
        lemma = lemma.strip().lower()
        if len(lemma.split()) != 1:  # empty, or whitespace inside
            raise CorpusFormatError(
                f"bad lemma {lemma!r} for surface {surface!r}", line_no=line_no, path=path
            )
        if not surfaces:
            pending_doc = doc_id
        surfaces.append(surface)
        tags.append(tag_of(fine, OTHER))
        lemmas.append(lemma)
    if surfaces:
        yield pending_doc, Sentence(tuple(surfaces), tuple(tags), tuple(lemmas))


def parse_plain_stream(lines: Iterable[str], path=None) -> Iterator[Sentence]:
    """Identity-lemma fallback for unannotated text.

    One sentence per line, whitespace-tokenized; the lemma is the
    lowercased surface and every POS is OTHER.  Callers are expected to
    flag this mode in their run metadata, since context attribution is
    blind without real POS tags.
    """
    for line in lines:
        line = line.rstrip("\n")
        if line.startswith("#doc") or not line.strip():
            continue
        words = tuple(line.split())
        yield Sentence(words, (OTHER,) * len(words), tuple(w.lower() for w in words))


def format_sentence(sentence: Sentence) -> str:
    """Serialize a sentence back to vertical format (coarse tags in the
    POS column; re-parsing with a map that carries the identity entries
    reproduces the sentence exactly)."""
    columns = zip(sentence.surfaces, sentence.tags, sentence.lemmata)
    return "\n".join(f"{s}\t{p}\t{l}" for s, p, l in columns) + "\n"


def parse_tweet_stream(
    lines: Iterable[str], tag_map: dict[str, str] | None = None, path=None
) -> Iterator[TweetRecord]:
    """Stream tweet records, one per input line.

    The author's first name is the first whitespace-delimited word of
    the name field, lowercased.  Record ids must be unique within the
    file.
    """
    tag_of = (default_tag_map() if tag_map is None else tag_map).get
    seen_ids: set[str] = set()
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
        if record_id in seen_ids:
            raise CorpusFormatError(
                f"duplicate record_id {record_id!r}", line_no=line_no, path=path
            )
        seen_ids.add(record_id)
        name_words = author_name.split()
        first_name = name_words[0].lower() if name_words else ""
        sentences: list[Sentence] = []
        surfaces, tags, lemmas = [], [], []
        for chunk in text.split():
            if chunk == SENTENCE_BREAK:
                if surfaces:
                    sentences.append(Sentence(tuple(surfaces), tuple(tags), tuple(lemmas)))
                    surfaces, tags, lemmas = [], [], []
                continue
            fields = chunk.rsplit("|", 2)
            if len(fields) != 3:
                raise CorpusFormatError(
                    f"token {chunk!r} is not surface|pos|lemma", line_no=line_no, path=path
                )
            surface, fine, lemma = fields
            lemma = lemma.lower()
            if not lemma:  # text.split() left no whitespace in the chunk
                raise CorpusFormatError(
                    f"bad lemma {lemma!r} for surface {surface!r}", line_no=line_no, path=path
                )
            surfaces.append(surface)
            tags.append(tag_of(fine, OTHER))
            lemmas.append(lemma)
        if surfaces:
            sentences.append(Sentence(tuple(surfaces), tuple(tags), tuple(lemmas)))
        yield TweetRecord(
            record_id=record_id,
            author_name=author_name,
            author_first_name=first_name,
            sentences=tuple(sentences),
        )


def format_tweet_record(record: TweetRecord) -> str:
    """Serialize a record back to the one-line tweet format."""
    chunks: list[str] = []
    for i, sentence in enumerate(record.sentences):
        if i:
            chunks.append(SENTENCE_BREAK)
        columns = zip(sentence.surfaces, sentence.tags, sentence.lemmata)
        chunks.extend(f"{s}|{p}|{l}" for s, p, l in columns)
    return f"{record.record_id}\t{record.author_name}\t{' '.join(chunks)}\n"


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
    if total == 0:
        return True
    return unknown / total <= config.max_nonenglish_ratio
