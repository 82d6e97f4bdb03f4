"""Assign a gender to each phrase occurrence.

Two routes: tweet records use the author's guessed gender (all matches
in a record inherit it, or the whole record is discarded); documents
use the nearest pronoun or proper name to the left of the match within
the sentence.  ``score`` tallies counts itself; on documents it finds
the nearest candidate in ``corpus_io._scan_vertical``'s candidate list
and lets ``_candidate_gender`` decide, as ``attribute_by_context``
does.  ``attribute_by_context``, ``GenderedOccurrence``, ``Source`` and
``attribute_by_author`` are library API, which with
``scoring.aggregate`` gives the same counts one object at a time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

from .corpus_io import PRONOUN, PROPER_NOUN, Sentence, TweetRecord
from .lexicons import Gender, NameGenderLexicon, guess_gender
from .matcher import Match


class Source(enum.Enum):
    AUTHOR_METADATA = "author_metadata"
    CONTEXT_HEURISTIC = "context_heuristic"


# Only the nominative pronouns carry a gender by default.  The extended
# map is an opt-in widening, not the default behavior.
DEFAULT_PRONOUNS: Mapping[str, Gender] = {
    "he": Gender.MALE,
    "she": Gender.FEMALE,
}

EXTENDED_PRONOUNS: Mapping[str, Gender] = {
    **DEFAULT_PRONOUNS,
    "him": Gender.MALE,
    "his": Gender.MALE,
    "himself": Gender.MALE,
    "her": Gender.FEMALE,
    "hers": Gender.FEMALE,
    "herself": Gender.FEMALE,
}


@dataclass(frozen=True, slots=True)
class GenderedOccurrence:
    phrase_id: str
    gender: Gender
    source: Source
    record_id: str

    def __post_init__(self):
        if self.gender not in (Gender.MALE, Gender.FEMALE):
            raise ValueError("gendered occurrences must be MALE or FEMALE")


def attribute_by_author(
    record: TweetRecord, matches: list[Match], lexicon: NameGenderLexicon
) -> list[GenderedOccurrence]:
    """Tweet route: every match takes the author's guessed gender.

    Records whose author is off both name lists contribute nothing.
    """
    gender = guess_gender(record.author_first_name, lexicon)
    if gender is Gender.UNKNOWN:
        return []
    return [
        GenderedOccurrence(
            phrase_id=m.phrase_id,
            gender=gender,
            source=Source.AUTHOR_METADATA,
            record_id=record.record_id,
        )
        for m in matches
    ]


def attribute_by_context(
    sentence: Sentence,
    match: Match,
    lexicon: NameGenderLexicon,
    pronouns: Mapping[str, Gender] = DEFAULT_PRONOUNS,
) -> Gender:
    """Document route: scan left from the match for the nearest pronoun
    or proper name and let that single token decide.

    The scan stops at the first candidate whatever the outcome: a
    non-gendered pronoun or an unlisted name leaves the occurrence
    unattributed rather than continuing leftward.
    """
    tags, surfaces = sentence.tags, sentence.surfaces
    for i in range(match.start - 1, -1, -1):
        pos = tags[i]
        if pos == PRONOUN or pos == PROPER_NOUN:
            return _candidate_gender(pos, surfaces[i].lower(), lexicon, pronouns)
    return Gender.UNKNOWN


def _candidate_gender(
    tag: str, surface: str, lexicon: NameGenderLexicon, pronouns: Mapping[str, Gender]
) -> Gender:
    """The gender that the nearest pronoun or proper name left of a match
    gives it, from its coarse tag and lowercased surface."""
    if tag == PRONOUN:
        return pronouns.get(surface, Gender.UNKNOWN)
    return guess_gender(surface, lexicon)
