import io
import math
import random

import pytest
from hypothesis import given, strategies as st

from stereomine.attribution import GenderedOccurrence, Source
from stereomine.corpus_io import EnglishFilterConfig, load_wordlist, passes_english_filter
from stereomine.errors import CorpusFormatError, DegenerateDataError
from stereomine.lexicons import Gender
from stereomine.matcher import find_matches
from stereomine.scoring import (
    SCORE_COLUMNS,
    BiasScore,
    GenderedCount,
    ScoringContext,
    aggregate,
    combine_average,
    format_counts_table,
    format_score_table,
    matching_signs_filter,
    merge_counts,
    normalized_bias,
    parse_counts_table,
    parse_score_table,
    score_counts,
    zscore_population,
)
from stereomine.attribution import attribute_by_author

import derive_expected as oracle

# Frozen by tests/derive_expected.py (textbook-form formula, independent
# parsers and matcher).  The implementation may differ in the last ulp
# or two because it uses the integer-numerator form.
TWEET_TOTALS = (14, 11)
TWEET_EXPECTED = {
    "c01": (0, 1, -1.1281521496355327, -1.1352456861945113),
    "c02": (2, 1, 0.3721936841593882, 0.5243374774406101),
    "c03": (3, 1, 0.7655318158241111, 0.9594220600900364),
    "c04": (2, 1, 0.3721936841593882, 0.5243374774406101),
    "c05": (1, 2, -0.7909115788387004, -0.7622125089213159),
    "c06": (1, 2, -0.7909115788387004, -0.7622125089213159),
    "c07": (0, 1, -1.1281521496355327, -1.1352456861945113),
    "c08": (2, 0, 1.2535663410560174, 1.4992535196801988),
    "c09": (1, 1, -0.17094086468945707, -0.07644197790548865),
    "c11": (2, 0, 1.2535663410560174, 1.4992535196801988),
    "c12": (0, 1, -1.1281521496355327, -1.1352456861945113),
}


def occ(pid, gender, rid="r1"):
    return GenderedOccurrence(
        phrase_id=pid, gender=gender, source=Source.AUTHOR_METADATA, record_id=rid
    )


M, F = Gender.MALE, Gender.FEMALE


# --- counts ---------------------------------------------------------------


def test_aggregate_counts_by_gender():
    counts, ctx = aggregate([occ("a", M), occ("a", M), occ("a", F), occ("b", F)])
    assert (counts["a"].m, counts["a"].f, counts["a"].n) == (2, 1, 3)
    assert (counts["b"].m, counts["b"].f) == (0, 1)
    assert (ctx.M, ctx.F, ctx.N) == (2, 2, 4)
    assert ctx.p == 0.5


def test_aggregate_empty_stream():
    counts, ctx = aggregate([])
    assert counts == {}
    assert ctx.degenerate
    with pytest.raises(DegenerateDataError):
        ctx.p


def test_dedup_keeps_one_per_record():
    stream = [occ("a", M, "r1"), occ("a", M, "r1"), occ("a", M, "r1"), occ("a", F, "r2")]
    counts, ctx = aggregate(stream, dedup_per_record=True)
    assert (counts["a"].m, counts["a"].f) == (1, 1)
    # the context shrinks with the dropped occurrences
    assert (ctx.M, ctx.F) == (1, 1)


def test_dedup_is_per_phrase_and_record():
    stream = [occ("a", M, "r1"), occ("b", M, "r1"), occ("a", M, "r2")]
    counts, _ = aggregate(stream, dedup_per_record=True)
    assert counts["a"].m == 2
    assert counts["b"].m == 1


def test_merge_counts_equals_whole():
    stream = [occ("a", M), occ("a", F), occ("b", M), occ("c", F), occ("b", M)]
    whole, whole_ctx = aggregate(stream)
    part1, _ = aggregate(stream[:2])
    part2, _ = aggregate(stream[2:])
    merged, merged_ctx = merge_counts([part1, part2])
    assert merged == whole
    assert merged_ctx == whole_ctx


def test_merge_is_order_insensitive():
    parts = [aggregate([occ("a", M)])[0], aggregate([occ("a", F), occ("b", M)])[0]]
    assert merge_counts(parts) == merge_counts(list(reversed(parts)))


def test_merge_rejects_mismatched_ids():
    with pytest.raises(ValueError):
        GenderedCount("a", 1, 0).merge(GenderedCount("b", 0, 1))


@given(
    st.lists(
        st.tuples(st.sampled_from("abcd"), st.booleans(), st.integers(0, 3)),
        max_size=40,
    ),
    st.integers(1, 4),
)
def test_partition_invariance_property(raw, k):
    stream = [occ(pid, M if male else F, f"r{rid}") for pid, male, rid in raw]
    whole = aggregate(stream)
    chunks = [stream[i::k] for i in range(k)]
    merged = merge_counts([aggregate(chunk)[0] for chunk in chunks])
    assert merged == whole


# --- the bias score ----------------------------------------------------------


def test_bias_root_two():
    s = normalized_bias(GenderedCount("p", m=6, f=2), ScoringContext(M=50, F=50))
    assert s == pytest.approx(math.sqrt(2), abs=1e-12)


def test_bias_balanced_phrase_is_zero():
    assert normalized_bias(GenderedCount("p", 3, 3), ScoringContext(10, 10)) == 0.0
    # exact zero also away from p=0.5 when m/f mirrors M/F
    assert normalized_bias(GenderedCount("p", 3, 1), ScoringContext(300, 100)) == 0.0


def test_bias_sign_convention():
    ctx = ScoringContext(M=100, F=100)
    assert normalized_bias(GenderedCount("p", 5, 1), ctx) > 0  # masculine lean
    assert normalized_bias(GenderedCount("p", 1, 5), ctx) < 0  # feminine lean


def test_bias_needs_occurrences():
    with pytest.raises(DegenerateDataError):
        normalized_bias(GenderedCount("p", 0, 0), ScoringContext(5, 5))


def test_bias_degenerate_context():
    with pytest.raises(DegenerateDataError) as exc:
        normalized_bias(GenderedCount("p", 1, 0), ScoringContext(M=9, F=0))
    assert "binomial baseline" in str(exc.value)
    assert "male" in str(exc.value)


def test_antisymmetry_is_exact():
    rng = random.Random(7)
    for _ in range(1000):
        m, f = rng.randint(0, 50), rng.randint(0, 50)
        if m + f == 0:
            continue
        MM = m + rng.randint(1, 100)
        FF = f + rng.randint(1, 100)
        a = normalized_bias(GenderedCount("p", m, f), ScoringContext(MM, FF))
        b = normalized_bias(GenderedCount("p", f, m), ScoringContext(FF, MM))
        assert a == -b  # bitwise, not approximately


def test_balanced_corpus_special_case():
    rng = random.Random(11)
    for _ in range(300):
        m, f = rng.randint(0, 30), rng.randint(0, 30)
        if m + f == 0:
            continue
        n = m + f
        half = rng.randint(max(m, f, 1), 200)
        s = normalized_bias(GenderedCount("p", m, f), ScoringContext(half, half))
        assert s == pytest.approx((m - f) / math.sqrt(n), abs=1e-12)


def test_matches_textbook_form():
    rng = random.Random(13)
    for _ in range(500):
        m, f = rng.randint(0, 40), rng.randint(0, 40)
        if m + f == 0:
            continue
        MM = m + rng.randint(1, 80)
        FF = f + rng.randint(1, 80)
        n, p = m + f, MM / (MM + FF)
        direct = (m - n * p) / math.sqrt(n * p * (1 - p))
        got = normalized_bias(GenderedCount("p", m, f), ScoringContext(MM, FF))
        assert got == pytest.approx(direct, abs=1e-12)


# --- z-scores and combination ---------------------------------------------


def test_zscore_two_points():
    assert zscore_population([("a", 1.0), ("b", 3.0)]) == [("a", -1.0), ("b", 1.0)]


def test_zscore_moments():
    rng = random.Random(3)
    values = [("p%d" % i, rng.uniform(-5, 5)) for i in range(100)]
    z = [v for _, v in zscore_population(values)]
    assert sum(z) / len(z) == pytest.approx(0.0, abs=1e-9)
    assert sum(v * v for v in z) / len(z) == pytest.approx(1.0, abs=1e-9)


def test_zscore_idempotent():
    values = [("a", 2.0), ("b", 5.0), ("c", -1.0)]
    once = zscore_population(values)
    twice = zscore_population(once)
    for (_, v1), (_, v2) in zip(once, twice):
        assert v1 == pytest.approx(v2, abs=1e-12)


def test_zscore_degenerate_inputs():
    with pytest.raises(DegenerateDataError):
        zscore_population([("a", 1.0)])
    with pytest.raises(DegenerateDataError):
        zscore_population([("a", 2.0), ("b", 2.0), ("c", 2.0)])


def test_combine_average_intersection_only():
    combined = combine_average({"a": 1.0, "b": 0.0}, {"a": 0.0, "c": 2.0})
    assert combined == {"a": 0.5}


def test_matching_signs_rules():
    a = {"p1": 0.5, "p2": 0.5, "p3": 0.0, "p4": -1.0, "p5": 2.0}
    b = {"p1": 1.5, "p2": -1.5, "p3": 1.0, "p4": -3.0}
    out = matching_signs_filter(a, b)
    assert out == {"p1": 1.0, "p4": -2.0}


# --- score_counts ------------------------------------------------------------


def tweet_occurrences(tweet_records, automaton, name_lexicon, fixtures):
    english = EnglishFilterConfig(
        wordlist=load_wordlist(fixtures / "wordlist.txt"), max_nonenglish_ratio=0.20
    )
    out = []
    for record in tweet_records:
        if not passes_english_filter(record, english):
            continue
        matches = [m for s in record.sentences for m in find_matches(s, automaton)]
        out.extend(attribute_by_author(record, matches, name_lexicon))
    return out


def test_fixture_scores_match_independent_oracle(
    tweet_records, automaton, name_lexicon, fixtures
):
    counts, ctx = aggregate(tweet_occurrences(tweet_records, automaton, name_lexicon, fixtures))
    assert (ctx.M, ctx.F) == TWEET_TOTALS
    scores = score_counts(counts, ctx)
    assert [s.phrase_id for s in scores] == sorted(TWEET_EXPECTED)
    for score in scores:
        m, f, s_exp, z_exp = TWEET_EXPECTED[score.phrase_id]
        assert (score.m, score.f) == (m, f)
        assert score.raw == m / (m + f)
        assert score.s == pytest.approx(s_exp, abs=1e-12)
        assert score.z == pytest.approx(z_exp, abs=1e-12)


def test_min_occurrences_filter():
    counts, ctx = aggregate(
        [occ("a", M), occ("a", F), occ("b", M), occ("b", F), occ("c", F)]
    )
    assert [s.phrase_id for s in score_counts(counts, ctx, min_occurrences=2)] == ["a", "b"]
    assert len(score_counts(counts, ctx, min_occurrences=3)) == 0


def test_single_scored_phrase_has_no_z():
    counts, ctx = aggregate([occ("a", M), occ("a", F)])
    (score,) = score_counts(counts, ctx)
    assert score.s == 0.0
    assert score.z is None


def test_zero_variance_leaves_z_empty():
    counts, ctx = aggregate([occ("a", M), occ("a", F), occ("b", M), occ("b", F)])
    scores = score_counts(counts, ctx)
    assert [s.s for s in scores] == [0.0, 0.0]
    assert [s.z for s in scores] == [None, None]


def test_score_counts_propagates_degenerate_context():
    counts, ctx = aggregate([occ("a", F), occ("b", F)])
    with pytest.raises(DegenerateDataError):
        score_counts(counts, ctx)


# --- tables -------------------------------------------------------------------


def test_counts_table_round_trip():
    counts, _ = aggregate([occ("a", M), occ("b", F), occ("b", F)])
    text = format_counts_table(counts, {"a": "go bed", "b": "feel good"})
    lines = text.splitlines()
    assert lines[0].startswith("# phrase_id")
    parsed, texts = parse_counts_table(io.StringIO(text))
    assert parsed == counts
    assert texts == {"a": "go bed", "b": "feel good"}
    header_only = format_counts_table({}, {})
    assert header_only == "# phrase_id\tphrase_text\tm\tf\n"
    assert parse_counts_table(io.StringIO(header_only)) == ({}, {})


def test_counts_table_rejects_duplicates():
    body = "# h\na\tx\t1\t0\na\tx\t2\t0\n"
    with pytest.raises(CorpusFormatError) as exc:
        parse_counts_table(io.StringIO(body), path="c.tsv")
    assert "duplicate" in str(exc.value)


def test_score_table_rejects_duplicates():
    row = "a\tx\t1\t0\t1.0\t0.5\t\n"
    with pytest.raises(CorpusFormatError, match=r"^s\.tsv:3: duplicate phrase_id 'a'$"):
        parse_score_table(io.StringIO("# h\n" + row + row), path="s.tsv")


def test_counts_table_rejects_negative_and_garbage():
    with pytest.raises(CorpusFormatError, match=r"^c\.tsv:1: negative count -1$"):
        parse_counts_table(io.StringIO("a\tx\t-1\t0\n"), path="c.tsv")
    with pytest.raises(CorpusFormatError):
        parse_counts_table(io.StringIO("a\tx\tone\t0\n"))
    with pytest.raises(CorpusFormatError):
        parse_counts_table(io.StringIO("a\tx\t1\n"))


def test_score_table_round_trip_is_value_exact():
    scores = [
        BiasScore("a", 3, 1, 0.75, 0.7655318158241112, 0.9594220600900363),
        BiasScore("b", 0, 1, 0.0, -1.1281521496355325, None),
    ]
    text = format_score_table(scores, {"a": "make money", "b": "become nurse"})
    parsed, texts = parse_score_table(io.StringIO(text))
    assert parsed == scores
    assert texts["a"] == "make money"
    # the z column is empty, not "None"
    assert "\tNone" not in text
    header_only = format_score_table([], {})
    assert header_only == "# phrase_id\tphrase_text\tm\tf\traw\ts\tz\n"
    assert parse_score_table(io.StringIO(header_only)) == ([], {})


def test_score_table_sorted_by_phrase_id():
    scores = [
        BiasScore("b", 1, 0, 1.0, 0.5, None),
        BiasScore("a", 0, 1, 0.0, -0.5, None),
    ]
    text = format_score_table(scores, {"a": "x", "b": "y"})
    ids = [line.split("\t")[0] for line in text.splitlines()[1:]]
    assert ids == ["a", "b"]


def test_score_table_rejects_bad_rows():
    with pytest.raises(CorpusFormatError):
        parse_score_table(io.StringIO("a\tx\t1\t2\t0.5\n"))
    with pytest.raises(CorpusFormatError):
        parse_score_table(io.StringIO("a\tx\t1\t2\t0.5\tNaNish\t\n"))
    # counts follow the counts table's rule, and every float must be finite
    good = ["a", "x", "1", "2", "0.5", "0.1", "0.2"]
    for column, value, message in [
        ("m", "-1", "negative count -1"),
        ("f", "-1", "negative count -1"),
        ("raw", "nan", "non-finite raw 'nan'"),
        ("s", "inf", "non-finite s 'inf'"),
        ("z", "-inf", "non-finite z '-inf'"),
        ("z", "1e999", "non-finite z '1e999'"),
    ]:
        row = list(good)
        row[SCORE_COLUMNS.index(column)] = value
        with pytest.raises(CorpusFormatError) as exc:
            parse_score_table(io.StringIO("# h\n" + "\t".join(row) + "\n"), path="s.tsv")
        assert str(exc.value) == f"s.tsv:2: {message}"


# --- random cross-check against the oracle's z pipeline ----------------------


def test_zscores_match_oracle_pipeline():
    rng = random.Random(20260815)
    for _ in range(100):
        n_phrases = rng.randint(2, 12)
        per_phrase = {}
        MM = FF = 0
        for i in range(n_phrases):
            m, f = rng.randint(0, 9), rng.randint(0, 9)
            if m + f == 0:
                m = 1
            per_phrase[f"p{i:02d}"] = (m, f)
            MM += m
            FF += f
        if MM == 0 or FF == 0:
            continue
        s_vals = {pid: (mf[0], mf[1]) for pid, mf in per_phrase.items()}
        s_oracle, z_oracle = oracle.bias_scores(
            {pid: list(mf) for pid, mf in per_phrase.items()}, MM, FF
        )
        counts = {
            pid: GenderedCount(pid, m, f) for pid, (m, f) in s_vals.items()
        }
        try:
            scores = score_counts(counts, ScoringContext(MM, FF))
        except DegenerateDataError:
            continue
        for score in scores:
            assert score.s == pytest.approx(s_oracle[score.phrase_id], abs=1e-12)
            if score.z is not None:
                assert score.z == pytest.approx(z_oracle[score.phrase_id], abs=1e-12)
