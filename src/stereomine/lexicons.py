"""Name-gender and verb lexicons, and action-phrase extraction.

The name lexicon drives author and context attribution; the verb
lexicon decides which multi-word concepts count as actions.  All
lexicon types are immutable after construction and safe to share
across workers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .corpus_io import VERB
from .errors import ConfigError, CorpusFormatError, open_text


class Gender(enum.Enum):
    MALE = "male"
    FEMALE = "female"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class NameGenderLexicon:
    male_names: frozenset[str]
    female_names: frozenset[str]


@dataclass(frozen=True)
class VerbLexicon:
    verbs: frozenset[str]
    dominance_ratio: float

    def __contains__(self, lemma: str) -> bool:
        return lemma in self.verbs


@dataclass(frozen=True, slots=True)
class ActionPhrase:
    """A multi-word concept whose first lemma is a verb."""

    lemmas: tuple[str, ...]
    source_id: str

    def __post_init__(self):
        if len(self.lemmas) < 2:
            raise ValueError(f"action phrase needs >= 2 lemmas, got {self.lemmas!r}")
        for lemma in self.lemmas:
            if not lemma or any(c.isspace() for c in lemma):
                raise ValueError(f"bad lemma {lemma!r} in action phrase")

    @property
    def text(self) -> str:
        return " ".join(self.lemmas)


def read_name_list(path) -> dict[str, int | None]:
    """Names (optionally ``name<TAB>count``) in file order, lowercased."""
    names: dict[str, int | None] = {}
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            name = parts[0].strip().lower()
            if not name or any(c.isspace() for c in name):
                raise CorpusFormatError(
                    f"name must be a single token, got {parts[0]!r}", line_no=line_no, path=path
                )
            count: int | None = None
            if len(parts) > 1 and parts[1].strip():
                try:
                    count = int(parts[1])
                except ValueError:
                    raise CorpusFormatError(
                        f"bad count {parts[1]!r}", line_no=line_no, path=path
                    ) from None
            names[name] = count
    if not names:
        raise ConfigError(f"name list {path} is empty")
    return names


def load_name_lexicon(male_list, female_list, use_counts: bool = False) -> NameGenderLexicon:
    """Build the lexicon from two one-name-per-line files.

    Names appearing on both lists are dropped from both, so lookups for
    them return UNKNOWN.  With ``use_counts=True`` (and count columns in
    the files) a conflicted name is instead kept on the side with the
    strictly larger count; ties and missing counts still drop it.
    """
    male = read_name_list(male_list)
    female = read_name_list(female_list)
    shared = set(male) & set(female)
    male_keep = set(male) - shared
    female_keep = set(female) - shared
    if use_counts:
        for name in shared:
            mc, fc = male[name], female[name]
            if mc is None or fc is None:
                continue
            if mc > fc:
                male_keep.add(name)
            elif fc > mc:
                female_keep.add(name)
    return NameGenderLexicon(
        male_names=frozenset(male_keep), female_names=frozenset(female_keep)
    )


def guess_gender(first_name: str, lexicon: NameGenderLexicon) -> Gender:
    """Lowercased list lookup; anything off both lists is UNKNOWN."""
    name = first_name.lower()
    if name in lexicon.male_names:
        return Gender.MALE
    if name in lexicon.female_names:
        return Gender.FEMALE
    return Gender.UNKNOWN


def load_tag_counts(path, tag_map: Mapping[str, str] | None = None) -> dict[str, dict[str, int]]:
    """Read ``lemma<TAB>pos<TAB>count`` lines into per-lemma tag counts.

    Tags are kept at the granularity found in the file; the tag map is
    applied later, only to decide which tags are verb tags.
    """
    counts: dict[str, dict[str, int]] = {}
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise CorpusFormatError(
                    f"expected lemma<TAB>pos<TAB>count, got {len(parts)} fields",
                    line_no=line_no,
                    path=path,
                )
            lemma, pos, count_s = parts
            try:
                count = int(count_s)
            except ValueError:
                raise CorpusFormatError(
                    f"bad count {count_s!r}", line_no=line_no, path=path
                ) from None
            if count < 0:
                raise CorpusFormatError(f"negative count {count}", line_no=line_no, path=path)
            lemma = lemma.strip().lower()
            per_lemma = counts.setdefault(lemma, {})
            per_lemma[pos] = per_lemma.get(pos, 0) + count
    return counts


def build_verb_lexicon(
    tag_counts: Mapping[str, Mapping[str, int]],
    dominance_ratio: float = 2.0,
    tag_map: Mapping[str, str] | None = None,
) -> VerbLexicon:
    """Keep the lemmas whose verb-tag count strictly dominates.

    A lemma enters the lexicon iff the sum of its verb-tag counts
    exceeds ``dominance_ratio`` times its largest single non-verb tag
    count.  A lemma never tagged as a verb is never included.
    """
    if dominance_ratio < 1.0:
        raise ConfigError(f"dominance_ratio must be >= 1, got {dominance_ratio}")

    def is_verb_tag(tag: str) -> bool:
        if tag_map is not None:
            return tag_map.get(tag, "") == VERB
        return tag == VERB

    verbs = set()
    for lemma, per_tag in tag_counts.items():
        verb_total = 0
        nonverb_max = 0
        for tag, count in per_tag.items():
            if count < 0:
                raise ConfigError(f"negative count for {lemma!r}/{tag!r}")
            if is_verb_tag(tag):
                verb_total += count
            elif count > nonverb_max:
                nonverb_max = count
        if verb_total > 0 and verb_total > dominance_ratio * nonverb_max:
            verbs.add(lemma)
    return VerbLexicon(verbs=frozenset(verbs), dominance_ratio=dominance_ratio)


def load_concepts(path) -> Iterator[tuple[str, str]]:
    """Yield (concept_id, concept_text) pairs from a TSV file."""
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise CorpusFormatError(
                    f"expected concept_id<TAB>concept_text, got {len(parts)} fields",
                    line_no=line_no,
                    path=path,
                )
            yield parts[0], parts[1]


def extract_actions(
    concepts: Iterable[tuple[str, str]], verbs: VerbLexicon
) -> list[ActionPhrase]:
    """Select the verb-initial multi-word concepts, in input order.

    Concept texts are assumed to already be lowercased lemma sequences.
    Identical lemma sequences under distinct ids are all kept; nothing
    else is filtered, spurious-looking concepts included.
    """
    actions = []
    for concept_id, text in concepts:
        lemmas = tuple(text.lower().split())
        if len(lemmas) < 2:
            continue
        if lemmas[0] not in verbs:
            continue
        actions.append(ActionPhrase(lemmas=lemmas, source_id=concept_id))
    return actions
