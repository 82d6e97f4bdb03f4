import random

import pytest
from hypothesis import given, settings, strategies as st

from stereomine import matcher
from stereomine.corpus_io import PRONOUN
from stereomine.errors import ConfigError
from stereomine.lexicons import ActionPhrase
from stereomine.matcher import (
    Match,
    brute_force_matches,
    compile_phrases,
    find_matches,
)
from stereomine.matcher import _pymatch

import derive_expected as oracle
from util import brute_all, phrase, sent, sent_of, tok


def matches_of(sentence, *phrases):
    return find_matches(sentence, compile_phrases(list(phrases)))


def spans(matches):
    return [(m.phrase_id, m.start, m.end) for m in matches]


# --- gap tolerance on the canonical examples --------------------------------


def test_adjacent_match():
    got = matches_of(sent("long", "holiday"), phrase("long holiday"))
    assert spans(got) == [("long holiday", 0, 2)]


def test_single_gap_match():
    got = matches_of(sent("long", "for", "holiday"), phrase("long holiday"))
    assert spans(got) == [("long holiday", 0, 3)]


def test_two_gaps_rejected():
    got = matches_of(sent("long", "of", "the", "holiday"), phrase("long holiday"))
    assert got == []


def test_match_inside_context():
    got = matches_of(sent("i", "long", "for", "holiday", "now"), phrase("long holiday"))
    assert spans(got) == [("long holiday", 1, 4)]


def test_gap_per_adjacency_not_per_phrase():
    # one intermittent token is allowed between every consecutive pair
    got = matches_of(
        sent("try", "to", "solve", "the", "problem"), phrase("try solve problem")
    )
    assert spans(got) == [("try solve problem", 0, 5)]


# --- greediness: one result per (phrase, start) ------------------------------


def test_adjacent_preferred_over_gap():
    # a b b: the start-0 alignment could end at 2 or 3; adjacent wins
    got = matches_of(sent("a", "b", "b"), phrase("a b"))
    assert spans(got) == [("a b", 0, 2)]


def test_every_start_reported():
    got = matches_of(sent("a", "a", "b"), phrase("a b"))
    assert spans(got) == [("a b", 0, 3), ("a b", 1, 3)]


def test_overlapping_starts():
    got = matches_of(sent("a", "a", "a"), phrase("a a"))
    assert spans(got) == [("a a", 0, 2), ("a a", 1, 3)]


def test_greedy_backtracks_to_complete():
    # adjacent b at 1 still leads to a completion via the gap to c
    got = matches_of(sent("a", "b", "b", "c"), phrase("a b c"))
    assert spans(got) == [("a b c", 0, 4)]
    assert got == brute_all(sent("a", "b", "b", "c"), [phrase("a b c")])


def test_prefix_phrases_both_reported():
    got = matches_of(sent("a", "b", "c"), phrase("a b"), phrase("a b c"))
    assert spans(got) == [("a b", 0, 2), ("a b c", 0, 3)]


def test_duplicate_sequences_all_reported():
    got = matches_of(sent("a", "b"), phrase("a b", "p1"), phrase("a b", "p2"))
    assert spans(got) == [("p1", 0, 2), ("p2", 0, 2)]


# --- scope and invariances ---------------------------------------------------


def test_empty_sentence():
    assert matches_of(sent(), phrase("a b")) == []


def test_out_of_vocabulary_sentence():
    assert matches_of(sent("x", "y", "z"), phrase("a b")) == []


def test_pos_is_ignored():
    plain = sent("he", "goes", "home")
    tagged = sent_of((tok("he", pos=PRONOUN), tok("goes", lemma="goes"), tok("home")))
    automaton = compile_phrases([phrase("he goes")])
    assert spans(find_matches(plain, automaton)) == spans(find_matches(tagged, automaton))


def test_matching_stays_inside_one_sentence():
    # "feel" and "good" in different sentences of one record never join up
    automaton = compile_phrases([phrase("feel good")])
    assert find_matches(sent("i", "feel"), automaton) == []
    assert find_matches(sent("good", "now"), automaton) == []


def test_sentence_ref_propagates():
    (m,) = find_matches(sent("a", "b"), compile_phrases([phrase("a b")]), sentence_ref=7)
    assert m == Match(phrase_id="a b", start=0, end=2, sentence_ref=7)


def test_output_is_sorted():
    got = matches_of(
        sent("a", "b", "a", "b"), phrase("a b", "p2"), phrase("a b", "p1")
    )
    keys = [(m.start, m.phrase_id, m.end) for m in got]
    assert keys == sorted(keys)


def test_fixture_automaton_round_trip(actions, automaton):
    assert automaton.enumerate_phrases() == [(a.source_id, a.lemmas) for a in actions]
    assert automaton.n_phrases == 12
    assert automaton.max_len == 3


def test_compile_empty_is_an_error():
    with pytest.raises(ConfigError):
        compile_phrases([])


def test_encode_marks_oov_as_negative(automaton):
    ids = automaton.encode(("become", "zzkx", "nurse"))
    assert ids[0] >= 0 and ids[2] >= 0 and ids[1] == -1


# --- oracle agreement ---------------------------------------------------------

ALPHABET = ("a", "b", "c", "d")


def random_case(rng):
    words = [rng.choice(ALPHABET) for _ in range(rng.randint(0, 14))]
    phrases = []
    for i in range(rng.randint(1, 5)):
        length = rng.randint(2, 4)
        phrases.append(
            ActionPhrase(
                lemmas=tuple(rng.choice(ALPHABET) for _ in range(length)),
                source_id=f"p{i}",
            )
        )
    return sent(*words), phrases


def test_random_agreement_with_brute_force():
    rng = random.Random(20260815)
    for _ in range(2000):
        sentence, phrases = random_case(rng)
        got = find_matches(sentence, compile_phrases(phrases))
        assert got == brute_all(sentence, phrases)


def test_random_agreement_with_external_enumeration():
    # second, package-independent reference: the gap-vector enumerator
    # in tests/derive_expected.py
    rng = random.Random(99)
    for _ in range(500):
        sentence, phrases = random_case(rng)
        got = find_matches(sentence, compile_phrases(phrases))
        expected = []
        for p in phrases:
            for start, end in oracle.exhaustive_matches(list(sentence.lemmas()), p.lemmas):
                expected.append((p.source_id, start, end))
        assert sorted(spans(got)) == sorted(expected)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_agreement_property(data):
    words = data.draw(
        st.lists(st.sampled_from(ALPHABET), min_size=0, max_size=12), label="sentence"
    )
    raw_phrases = data.draw(
        st.lists(
            st.lists(st.sampled_from(ALPHABET), min_size=2, max_size=4),
            min_size=1,
            max_size=4,
        ),
        label="phrases",
    )
    phrases = [
        ActionPhrase(lemmas=tuple(p), source_id=f"p{i}") for i, p in enumerate(raw_phrases)
    ]
    sentence = sent(*words)
    got = find_matches(sentence, compile_phrases(phrases))
    assert got == brute_all(sentence, phrases)
    by_len = {p.source_id: len(p.lemmas) for p in phrases}
    for m in got:
        k = by_len[m.phrase_id]
        assert k <= m.end - m.start <= 2 * k - 1
        assert 0 <= m.start and m.end <= len(words)


# --- kernel parity ------------------------------------------------------------


def kernel_case(rng):
    sentence, phrases = random_case(rng)
    automaton = compile_phrases(phrases)
    ids = automaton.encode(sentence.lemmas())
    return automaton, ids


def test_pure_kernel_matches_selected_backend():
    rng = random.Random(4242)
    for _ in range(1000):
        automaton, ids = kernel_case(rng)
        pure = sorted(_pymatch.match_token_ids(automaton, ids))
        selected = sorted(matcher._kernel(automaton, ids))
        assert pure == selected


@pytest.mark.skipif(matcher._speedups is None, reason="compiled kernel not built")
def test_compiled_kernel_matches_pure():
    rng = random.Random(31337)
    for _ in range(2000):
        automaton, ids = kernel_case(rng)
        pure = sorted(_pymatch.match_token_ids(automaton, ids))
        compiled = sorted(matcher._speedups.match_token_ids(automaton, ids))
        assert pure == compiled


def test_backend_is_declared():
    assert matcher.BACKEND in ("compiled", "pure")
