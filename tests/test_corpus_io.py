import io

import pytest
from hypothesis import given, strategies as st

from stereomine import corpus_io
from stereomine.corpus_io import (
    OTHER,
    PRONOUN,
    PROPER_NOUN,
    VERB,
    AnnotatedToken,
    EnglishFilterConfig,
    _scan_tweets,
    _scan_vertical,
    default_tag_map,
    default_wordlist,
    load_wordlist,
    parse_document_records,
    parse_tag_map,
    parse_tweet_stream,
    passes_english_filter,
)
from stereomine.errors import ConfigError, CorpusFormatError

from util import format_sentence, format_tweet_record, sent

TAG_MAP = default_tag_map()


def vertical_sentences(lines, tag_map):
    """Every sentence of a vertical file, in file order."""
    return [s for record in parse_document_records(lines, tag_map) for s in record.sentences]


# --- tokens and tags -------------------------------------------------------


def test_token_rejects_bad_lemma():
    with pytest.raises(ValueError):
        AnnotatedToken(surface="x", lemma="", pos=OTHER)
    with pytest.raises(ValueError):
        AnnotatedToken(surface="x", lemma="two words", pos=OTHER)


def test_token_rejects_fine_pos():
    # only the four coarse tags are legal on a constructed token
    with pytest.raises(ValueError):
        AnnotatedToken(surface="runs", lemma="run", pos="VVZ")


def test_default_tag_map_covers_the_usual_suspects(tag_map):
    fine = ["VV", "VBD", "PP", "PRP$", "NP", "NNPS", "MD", "XYZZY"]
    (sentence,) = vertical_sentences([f"w\t{t}\tw" for t in fine], tag_map)
    # modals deliberately stay OTHER; unknown tags fall back to OTHER
    assert sentence.tags == (VERB, VERB, PRONOUN, PRONOUN, PROPER_NOUN, PROPER_NOUN, OTHER, OTHER)


def test_tag_map_identity_entries(tag_map):
    for coarse in (VERB, PRONOUN, PROPER_NOUN, OTHER):
        assert tag_map[coarse] == coarse


def test_parse_tag_map_rejects_unknown_coarse():
    with pytest.raises(CorpusFormatError) as exc:
        parse_tag_map(["VV\tVERBISH"], path="m.tsv")
    assert "m.tsv:1:" in str(exc.value)


def test_parse_tag_map_rejects_wrong_arity():
    with pytest.raises(CorpusFormatError):
        parse_tag_map(["VV\tVERB\textra"])


def test_parse_tag_map_rejects_empty():
    with pytest.raises(ConfigError):
        parse_tag_map(["# only a comment"])


# --- vertical documents ----------------------------------------------------


def test_small_vertical_sentences(fixtures, tag_map):
    with open(fixtures / "small.vert", encoding="utf-8") as fh:
        sentences = vertical_sentences(fh, tag_map)
    assert [len(s.lemmas()) for s in sentences] == [4, 5, 3]
    first = sentences[0]
    assert (first.surfaces[1], first.lemmata[1], first.tags[1]) == ("schools", "school", OTHER)
    assert first.tokens[1] == AnnotatedToken(surface="schools", lemma="school", pos=OTHER)
    assert sentences[1].tags[0] == PROPER_NOUN
    assert sentences[2].lemmas() == ("he", "sleep", "now")


def test_lemmas_are_lowercased(tag_map):
    lines = ["Mary\tNP\tMary", "RUNS\tVVZ\tRUN"]
    (sentence,) = vertical_sentences(lines, tag_map)
    assert sentence.lemmas() == ("mary", "run")


def test_document_records_group_by_doc(doc_records):
    assert [r.record_id for r in doc_records] == ["d1", "d2"]
    assert [len(r.sentences) for r in doc_records] == [5, 5]


def test_document_records_implicit_id(tag_map):
    lines = ["He\tPP\the", "", "runs\tVVZ\trun"]
    records = list(parse_document_records(lines, tag_map))
    assert [r.record_id for r in records] == ["autodoc1", "autodoc2"]


def test_doc_line_without_id_fails(tag_map):
    with pytest.raises(CorpusFormatError):
        list(parse_document_records(["#doc   ", "a\tNN\ta"], tag_map))


def test_doc_header_is_doc_then_whitespace_or_end_of_line(tag_map):
    lines = ["#doc\ta", "#doctorwho\tNN\t#doctorwho", "", "#doc", "#doc b"]
    with pytest.raises(CorpusFormatError) as exc:
        list(parse_document_records(lines, tag_map, path="d.vert"))
    assert str(exc.value) == "d.vert:4: #doc line without an id"
    del lines[3]
    (doc_a, doc_b) = parse_document_records(lines + ["x\tNN\tx"], tag_map)
    assert doc_a.record_id == "a" and doc_a.sentences[0].lemmata == ("#doctorwho",)
    assert doc_b.record_id == "b"


def test_vertical_bad_arity_reports_location(tag_map):
    with pytest.raises(CorpusFormatError) as exc:
        list(parse_document_records(["ok\tNN\tok", "broken line"], tag_map, path="d.vert"))
    assert "d.vert:2:" in str(exc.value)


@pytest.mark.parametrize(
    "parse, lines, lemma",
    [
        (parse_tweet_stream, ["t0\tA\tok|NN|ok", "t1\tA\tx|NN|"], ""),
        (parse_document_records, ["ok\tNN\tok", "x\tNN\t  "], ""),
        (parse_document_records, ["ok\tNN\tok", "x\tNN\ta\u2003b"], "a\u2003b"),
    ],
    ids=["tweet-empty", "vertical-blank", "vertical-unicode-space"],
)
def test_parsers_reject_bad_lemma(tag_map, parse, lines, lemma):
    with pytest.raises(CorpusFormatError) as exc:
        list(parse(lines, tag_map, path="c.txt"))
    assert str(exc.value) == f"c.txt:2: bad lemma {lemma!r} for surface 'x'"


def test_vertical_round_trip(doc_records, tag_map):
    for record in doc_records:
        for sentence in record.sentences:
            (again,) = vertical_sentences(io.StringIO(format_sentence(sentence)), tag_map)
            assert again == sentence


# --- tweet records ---------------------------------------------------------


def test_tweet_fixture_parses(tweet_records):
    assert len(tweet_records) == 10
    ids = [r.record_id for r in tweet_records]
    assert ids == sorted(ids) and len(set(ids)) == 10
    t03 = tweet_records[2]
    assert len(t03.sentences) == 2
    assert t03.sentences[0].lemmas() == ("go", "to", "bed", "now")


def test_tweet_first_name_extraction(tweet_records):
    assert tweet_records[0].author_name == "Mary Jones"
    assert tweet_records[0].author_first_name == "mary"
    assert tweet_records[9].author_first_name == "xq17"


def test_tweet_first_name_multiword():
    (record,) = parse_tweet_stream(["t1\tMary Jane Smith\thi|NN|hi"], TAG_MAP)
    assert record.author_first_name == "mary"


def test_tweet_empty_fields():
    (record,) = parse_tweet_stream(["t1\t\t"], TAG_MAP)
    assert record.author_first_name == ""
    assert record.sentences == ()


def test_tweet_surface_may_contain_pipes():
    # the token chunk splits on the last two pipes only, so emoticon
    # surfaces like :-| survive
    (record,) = parse_tweet_stream(["t1\tX\t:-||NN|pipeface"], TAG_MAP)
    (sentence,) = record.sentences
    assert (sentence.surfaces, sentence.tags, sentence.lemmata) == ((":-|",), (OTHER,), ("pipeface",))


def test_tweet_duplicate_record_id():
    lines = ["t1\tA\thi|NN|hi", "t1\tB\thi|NN|hi"]
    with pytest.raises(CorpusFormatError) as exc:
        list(parse_tweet_stream(lines, TAG_MAP, path="tw.tsv"))
    assert "duplicate record_id" in str(exc.value)
    assert "tw.tsv:2:" in str(exc.value)


def test_tweet_bad_field_count():
    with pytest.raises(CorpusFormatError):
        list(parse_tweet_stream(["t1\tonly two fields"], TAG_MAP))


def test_tweet_bad_token_chunk():
    with pytest.raises(CorpusFormatError) as exc:
        list(parse_tweet_stream(["t1\tA\tnopipes"], TAG_MAP))
    assert "surface|pos|lemma" in str(exc.value)


def test_tweet_round_trip(tweet_records, tag_map):
    for record in tweet_records:
        (again,) = parse_tweet_stream(io.StringIO(format_tweet_record(record)), tag_map)
        assert again == record


@given(
    st.lists(
        st.lists(st.sampled_from(["go", "bed", "now", "she", "x1"]), min_size=1, max_size=5),
        min_size=1,
        max_size=4,
    )
)
def test_tweet_round_trip_property(sentence_lemmas):
    record_line = "r1\tMary J\t" + " </s> ".join(
        " ".join(f"{w}|NN|{w}" for w in ws) for ws in sentence_lemmas
    )
    (record,) = parse_tweet_stream([record_line], TAG_MAP)
    assert [list(s.lemmas()) for s in record.sentences] == sentence_lemmas
    (again,) = parse_tweet_stream([format_tweet_record(record)], TAG_MAP)
    assert again == record


# --- English filter --------------------------------------------------------

WORDS = frozenset({"i", "feel", "good", "and", "the"})


def _record(*surfaces):
    line = "t1\tA\t" + " ".join(f"{s}|NN|{s.lower()}" for s in surfaces)
    return parse_tweet_stream([line], TAG_MAP).__next__()


def test_filter_boundary_is_inclusive():
    config = EnglishFilterConfig(wordlist=WORDS, max_nonenglish_ratio=0.20)
    # 1 unknown out of 5 alphabetic == 0.20 exactly: kept
    assert passes_english_filter(_record("i", "feel", "good", "and", "zzkx"), config)
    # 1 out of 4 == 0.25: dropped
    assert not passes_english_filter(_record("i", "feel", "good", "zzkx"), config)


def test_filter_ignores_nonalphabetic():
    config = EnglishFilterConfig(wordlist=WORDS, max_nonenglish_ratio=0.0)
    # @mentions, digits and punctuation never count against the record
    assert passes_english_filter(_record("@zzkx", "#tag", "123", "!!", "good"), config)


def test_filter_passes_without_alphabetic_tokens():
    config = EnglishFilterConfig(wordlist=WORDS, max_nonenglish_ratio=0.0)
    assert passes_english_filter(_record("@a", "42"), config)


def test_filter_checks_surface_not_lemma():
    config = EnglishFilterConfig(wordlist=WORDS, max_nonenglish_ratio=0.0)
    (record,) = parse_tweet_stream(["t1\tA\tzzkx|NN|good"], TAG_MAP)
    assert not passes_english_filter(record, config)


def test_filter_config_validation():
    with pytest.raises(ConfigError):
        EnglishFilterConfig(wordlist=frozenset(), max_nonenglish_ratio=0.20)
    with pytest.raises(ConfigError):
        EnglishFilterConfig(wordlist=WORDS, max_nonenglish_ratio=1.5)


# --- the one-pass reader of score --------------------------------------------

# valid tokens in mixed case, non-alphabetic ones, a surface that lowercases
# to a non-letter (U+0130), and malformed tokens and records
SCAN_TOKENS = ["i|PP|i", "Feel|VVP|FEEL", "good|JJ|good", "zzkx|NN|zzkx", "\u0130|NP|\u0130",
               "#tag|NN|#tag", "42|CD|42", ":-||NN|pipe", "</s>", "broken|NN", "x|NN|"]
SCAN_NAMES = ["Mary Jane", " mary", "", "\u0130lke B"]


@given(
    records=st.lists(
        st.tuples(
            st.sampled_from(["t1", "t2", "t3", "t4"]),
            st.sampled_from(SCAN_NAMES),
            st.lists(st.sampled_from(SCAN_TOKENS), max_size=8),
            st.sampled_from(["", "", "\textra"]),
        ),
        max_size=6,
    ),
    blank=st.sampled_from(["", " ", "\t"]),
    ratio=st.sampled_from([None, 0.0, 0.2, 0.5, 1.0]),
)
def test_scan_tweets_agrees_with_parse_and_filter(records, blank, ratio):
    """``_scan_tweets`` yields what ``parse_tweet_stream`` and
    ``passes_english_filter`` make of the same lines (every record when
    it is given no filter), stops at the same error, and collects the
    ids of the records it read."""
    lines = []
    for record_id, name, tokens, extra in records:
        lines += [f"{record_id}\t{name}\t{' '.join(tokens)}{extra}\n", blank + "\n"]
    config = None if ratio is None else EnglishFilterConfig(WORDS, ratio)

    def read(stream):
        out = []
        try:
            out.extend(stream)
        except CorpusFormatError as exc:
            return out, str(exc)
        return out, None

    parsed, parse_error = read(parse_tweet_stream(lines, TAG_MAP, path="tw.tsv"))
    ids = set()
    scanned, scan_error = read(_scan_tweets(lines, config, ids, path="tw.tsv"))
    assert scan_error == parse_error
    assert scanned == [
        (r.author_name, [list(s.lemmata) for s in r.sentences])
        if config is None or passes_english_filter(r, config)
        else None
        for r in parsed
    ]
    if parse_error is None:
        assert ids == {r.record_id for r in parsed}


# token lines in mixed case (pronouns and proper nouns among them), one too
# long to be memoized, headers and look-alikes, blank and whitespace-only
# lines; and one line per fault
VERTICAL_LINES = [
    "He\tPP\the", "Him\tPP\the", "Mary\tNP\tMary", "she\tPRP\tShe", "RUNS\tVVZ\tRUN", "x\tXYZZY\tx ",
    "\u0130\tNP\t\u0130", "#doctorwho\tNN\t#doctorwho", "a" * 70 + "\tNP\tlong",
    "", "", " ", "\t", "#doc a", "#doc a", "#doc\tb", "#doc autodoc1", "#doc x y",
]
VERTICAL_FAULTS = ["#doc", "w\tNN", "w\tNN\tw\tx", "w\tNN\t", "w\tNN\ta b"]


def _candidates(sentence):
    return [
        (i, tag, surface.lower())
        for i, (tag, surface) in enumerate(zip(sentence.tags, sentence.surfaces))
        if tag in (PRONOUN, PROPER_NOUN)
    ]


@pytest.mark.parametrize("memo_entries", [0, 1, corpus_io.MEMO_ENTRIES])
@given(
    lines=st.lists(st.sampled_from(VERTICAL_LINES), max_size=30),
    fault=st.sampled_from([None, *VERTICAL_FAULTS]),
    at=st.integers(0, 30),
    newline=st.sampled_from(["\n", "\r\n"]),
    final_newline=st.booleans(),
)
def test_scan_vertical_agrees_with_parse_document_records(
    memo_entries, lines, fault, at, newline, final_newline
):
    """``_scan_vertical`` yields the records, lemmas and pronoun and
    proper-noun positions of ``parse_document_records`` on the same lines,
    and stops at the same error, whether a line comes from its memo or not."""
    if fault is not None:
        lines.insert(at, fault)
    lines = [line + newline for line in lines]
    if lines and not final_newline:
        lines[-1] = lines[-1].removesuffix(newline)

    def read(stream):
        out = []
        try:
            out.extend(stream)
        except CorpusFormatError as exc:
            return out, str(exc)
        return out, None

    parsed, parse_error = read(parse_document_records(lines, TAG_MAP, path="d.vert"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus_io, "MEMO_ENTRIES", memo_entries)
        scanned, scan_error = read(_scan_vertical(lines, TAG_MAP, path="d.vert"))
    assert scan_error == parse_error
    assert scanned == [
        (r.record_id, [(list(s.lemmata), _candidates(s)) for s in r.sentences]) for r in parsed
    ]


# --- word lists ------------------------------------------------------------


def test_load_wordlist(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("Good\nfeel\n\nGOOD\n", encoding="utf-8")
    assert load_wordlist(path) == frozenset({"good", "feel"})


def test_load_wordlist_empty(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_wordlist(path)


def test_default_wordlist_is_lowercase():
    words = default_wordlist()
    assert words
    assert all(w == w.lower() for w in words)
    assert "the" in words


def test_sentence_lemmas():
    assert sent("a", "b").lemmas() == ("a", "b")
    assert sent().lemmas() == ()
