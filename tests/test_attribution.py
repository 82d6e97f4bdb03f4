import pytest

from stereomine.attribution import (
    DEFAULT_PRONOUNS,
    EXTENDED_PRONOUNS,
    GenderedOccurrence,
    Source,
    attribute_by_author,
    attribute_by_context,
)
from stereomine.corpus_io import (
    EnglishFilterConfig,
    PRONOUN,
    PROPER_NOUN,
    load_wordlist,
    passes_english_filter,
)
from stereomine.lexicons import Gender
from stereomine.matcher import Match, compile_phrases, find_matches

from util import phrase, sent, sent_of, tok


def named_sent(*pairs):
    """pairs of (surface, pos); lemma is the lowercased surface."""
    return sent_of(tok(s, pos=p) for s, p in pairs)


def first_match(sentence, text):
    (m,) = find_matches(sentence, compile_phrases([phrase(text)]))
    return m


# --- author route ------------------------------------------------------------


def test_author_gender_applies_to_every_match(tweet_records, automaton, name_lexicon):
    mary = tweet_records[0]
    matches = [m for s in mary.sentences for m in find_matches(s, automaton)]
    assert sorted(m.phrase_id for m in matches) == ["c01", "c03"]
    occurrences = attribute_by_author(mary, matches, name_lexicon)
    assert len(occurrences) == 2
    for occ in occurrences:
        assert occ.gender is Gender.FEMALE
        assert occ.source is Source.AUTHOR_METADATA
        assert occ.record_id == "t01"


def test_unknown_author_contributes_nothing(tweet_records, automaton, name_lexicon):
    t10 = tweet_records[9]
    matches = [m for s in t10.sentences for m in find_matches(s, automaton)]
    assert matches  # it does mention "make money"
    assert attribute_by_author(t10, matches, name_lexicon) == []


def test_tweet_fixture_totals(tweet_records, automaton, name_lexicon, fixtures):
    english = EnglishFilterConfig(
        wordlist=load_wordlist(fixtures / "wordlist.txt"), max_nonenglish_ratio=0.20
    )
    occurrences = []
    filtered = 0
    for record in tweet_records:
        if not passes_english_filter(record, english):
            filtered += 1
            continue
        matches = [m for s in record.sentences for m in find_matches(s, automaton)]
        occurrences.extend(attribute_by_author(record, matches, name_lexicon))
    assert filtered == 1
    assert len(occurrences) == 25
    assert sum(1 for o in occurrences if o.gender is Gender.MALE) == 14
    assert sum(1 for o in occurrences if o.gender is Gender.FEMALE) == 11


# --- context route -------------------------------------------------------------


def test_nearest_pronoun_decides(name_lexicon):
    s = named_sent(("She", PRONOUN), ("become", "OTHER"), ("a", "OTHER"), ("nurse", "OTHER"))
    m = first_match(s, "become nurse")
    assert (m.start, m.end) == (1, 4)
    assert attribute_by_context(s, m, name_lexicon) is Gender.FEMALE


def test_nearest_proper_name_decides(doc_records, name_lexicon, automaton):
    jack = doc_records[0].sentences[1]
    matches = find_matches(jack, automaton)
    assert sorted(m.phrase_id for m in matches) == ["c02", "c12"]
    for m in matches:
        assert attribute_by_context(jack, m, name_lexicon) is Gender.MALE


def test_scan_stops_at_first_candidate(name_lexicon):
    # "him" is nearest; default pronouns leave it unknown and the scan
    # must NOT keep walking left to find "She"
    s = named_sent(
        ("She", PRONOUN), ("saw", "OTHER"), ("him", PRONOUN),
        ("solve", "OTHER"), ("the", "OTHER"), ("problem", "OTHER"),
    )
    m = first_match(s, "solve problem")
    assert attribute_by_context(s, m, name_lexicon) is Gender.UNKNOWN
    assert attribute_by_context(s, m, name_lexicon, EXTENDED_PRONOUNS) is Gender.MALE


def test_unlisted_proper_name_is_unknown(name_lexicon):
    s = named_sent(("Zorro", PROPER_NOUN), ("solve", "OTHER"), ("problem", "OTHER"))
    m = first_match(s, "solve problem")
    assert attribute_by_context(s, m, name_lexicon) is Gender.UNKNOWN


def test_match_at_sentence_start_is_unknown(name_lexicon):
    s = sent("solve", "the", "problem", "now")
    m = first_match(s, "solve problem")
    assert m.start == 0
    assert attribute_by_context(s, m, name_lexicon) is Gender.UNKNOWN


def test_nongendered_pronoun_is_unknown(name_lexicon):
    s = named_sent(("It", PRONOUN), ("seems", "OTHER"), ("good", "OTHER"),
                   ("to", "OTHER"), ("catch", "OTHER"), ("a", "OTHER"),
                   ("football", "OTHER"))
    m = first_match(s, "catch football")
    assert attribute_by_context(s, m, name_lexicon) is Gender.UNKNOWN


def test_pronoun_surface_is_case_insensitive(name_lexicon):
    s = named_sent(("SHE", PRONOUN), ("go", "OTHER"), ("to", "OTHER"), ("bed", "OTHER"))
    m = first_match(s, "go bed")
    assert attribute_by_context(s, m, name_lexicon) is Gender.FEMALE


def test_context_ignores_tokens_right_of_match(name_lexicon):
    base = named_sent(
        ("Mary", PROPER_NOUN), ("make", "OTHER"), ("a", "OTHER"), ("doll", "OTHER")
    )
    m = first_match(base, "make doll")
    poisoned = sent_of(
        base.tokens[: m.start] + tuple(
            tok(s, pos=PROPER_NOUN) for s in ("John",) * (len(base.tokens) - m.start)
        )
    )
    assert attribute_by_context(base, m, name_lexicon) is Gender.FEMALE
    assert attribute_by_context(poisoned, m, name_lexicon) is Gender.FEMALE


def test_document_fixture_totals(doc_records, name_lexicon, automaton):
    genders = []
    unattributed = 0
    for record in doc_records:
        for sentence in record.sentences:
            for m in find_matches(sentence, automaton):
                g = attribute_by_context(sentence, m, name_lexicon)
                if g is Gender.UNKNOWN:
                    unattributed += 1
                else:
                    genders.append(g)
    assert len(genders) + unattributed == 11
    assert unattributed == 2
    assert genders.count(Gender.MALE) == 4
    assert genders.count(Gender.FEMALE) == 5


def test_default_pronoun_map_is_nominative_only():
    assert set(DEFAULT_PRONOUNS) == {"he", "she"}
    assert {"him", "his", "her", "herself", "himself", "hers"} <= set(EXTENDED_PRONOUNS)


def test_gendered_occurrence_rejects_unknown():
    with pytest.raises(ValueError):
        GenderedOccurrence(
            phrase_id="p", gender=Gender.UNKNOWN, source=Source.AUTHOR_METADATA, record_id="r"
        )


def test_occurrences_from_author_route_carry_match_ids(name_lexicon, tweet_records, automaton):
    david = tweet_records[7]
    matches = [m for s in david.sentences for m in find_matches(s, automaton)]
    occurrences = attribute_by_author(david, matches, name_lexicon)
    assert [o.phrase_id for o in occurrences] == [m.phrase_id for m in matches]
    assert {o.gender for o in occurrences} == {Gender.MALE}
