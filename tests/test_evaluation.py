import io
import math
import random

import pytest

from stereomine.errors import CorpusFormatError, DegenerateDataError
from stereomine.evaluation import (
    GoldRating,
    RawRating,
    SanityRow,
    aggregate_gold,
    coverage,
    evaluate_method,
    format_gold,
    format_sanity_table,
    format_scatter,
    load_ratings,
    majority_agreement,
    parse_gold,
    parse_ratings,
    roc_auc,
    sanity_proportions,
    sign_accuracy,
    spearman,
)
from stereomine.lexicons import NameGenderLexicon
from stereomine.scoring import combine_average, matching_signs_filter, parse_score_table

import derive_expected as oracle

# Aggregation of tests/fixtures/ratings.tsv, derived by hand and by
# tests/derive_expected.py: mean over numeric answers, n over all.
GOLD_EXPECTED = {
    "c01": (-2.0, 5),
    "c02": (0.8, 5),
    "c03": (7 / 6, 6),
    "c04": (-0.4, 5),
    "c05": (0.0, 5),
    "c06": (-0.6, 6),
    "c07": (-1.6, 5),
    "c08": (1.6, 5),
    "c09": (-0.6, 5),
    "c10": (0.0, 5),
    "c11": (1.8, 5),
    "c12": (0.6, 5),
    "r92": (4 / 3, 5),
}

# method -> (spearman, auc, accuracy, coverage_pct, coverage_n)
EVAL_EXPECTED = {
    "tweet_scores": (0.8033182250163023, 0.82, 0.8, 1100 / 13, 11),
    "document_scores": (0.6522424151090045, 0.9, 0.875, 900 / 13, 9),
    "combined": (0.8312310281002673, 0.9333333333333333, 0.75, 900 / 13, 9),
    "matching_signs": (0.9710083124552245, 1.0, 1.0, 600 / 13, 6),
}


def ratings(*triples):
    return [RawRating(phrase_id=p, rater_id=r, value=v) for p, r, v in triples]


# --- raw ratings ------------------------------------------------------------


def test_parse_ratings_values():
    got = parse_ratings(["p1\tr1\t-2", "p1\tr2\tX", "p1\tr3\t0"])
    assert [r.value for r in got] == [-2, None, 0]


def test_parse_ratings_rejects_out_of_range():
    with pytest.raises(CorpusFormatError):
        parse_ratings(["p1\tr1\t3"])
    with pytest.raises(ValueError):
        RawRating("p1", "r1", -3)


def test_parse_ratings_rejects_garbage():
    with pytest.raises(CorpusFormatError):
        parse_ratings(["p1\tr1\tmeh"])
    with pytest.raises(CorpusFormatError):
        parse_ratings(["p1\tr1"])


# --- gold aggregation ---------------------------------------------------------


def test_fixture_gold(fixtures):
    gold = aggregate_gold(load_ratings(fixtures / "ratings.tsv"))
    assert [g.phrase_id for g in gold] == sorted(GOLD_EXPECTED)
    for g in gold:
        mean, n = GOLD_EXPECTED[g.phrase_id]
        assert g.mean_score == mean
        assert g.n_raters == n


def test_fixture_gold_drops(fixtures):
    gold = {g.phrase_id for g in aggregate_gold(load_ratings(fixtures / "ratings.tsv"))}
    # r90 has four raters; r91's modal answer is the meaningless mark
    assert "r90" not in gold
    assert "r91" not in gold


def test_gold_agrees_with_independent_aggregator(fixtures):
    gold = aggregate_gold(load_ratings(fixtures / "ratings.tsv"))
    reference = oracle.gold_from_ratings()
    assert {g.phrase_id for g in gold} == set(reference)
    for g in gold:
        mean, n = reference[g.phrase_id]
        assert g.mean_score == pytest.approx(mean, abs=1e-12)
        assert g.n_raters == n


def test_meaningless_tie_keeps_phrase():
    # two X vs two 1: tie, kept; mean over numeric answers only
    got = aggregate_gold(
        ratings(("p", "a", None), ("p", "b", None), ("p", "c", 1), ("p", "d", 1), ("p", "e", 2))
    )
    assert len(got) == 1
    assert got[0].mean_score == pytest.approx(4 / 3)
    assert got[0].n_raters == 5


def test_meaningless_majority_drops_phrase():
    got = aggregate_gold(
        ratings(("p", "a", None), ("p", "b", None), ("p", "c", None), ("p", "d", 1), ("p", "e", 1))
    )
    assert got == []


def test_gold_texts_attach():
    got = aggregate_gold(
        ratings(*[("p", f"r{i}", 1) for i in range(5)]), phrase_texts={"p": "go bed"}
    )
    assert got[0].text == "go bed"


def test_gold_rating_validation():
    with pytest.raises(ValueError):
        GoldRating("p", mean_score=2.5, n_raters=5)
    with pytest.raises(ValueError):
        GoldRating("p", mean_score=0.0, n_raters=4)


def test_gold_round_trip(fixtures):
    gold = aggregate_gold(load_ratings(fixtures / "ratings.tsv"))
    again = parse_gold(io.StringIO(format_gold(gold)))
    assert again == gold


def test_parse_gold_wraps_validation():
    with pytest.raises(CorpusFormatError):
        parse_gold(io.StringIO("p\tx\t0.5\t4\n"))


# --- rater agreement -----------------------------------------------------------


def test_fixture_agreement(fixtures):
    got = majority_agreement(load_ratings(fixtures / "ratings.tsv"))
    assert got == pytest.approx(44 / 77, abs=1e-15)
    agree, total, frac = oracle.agreement_oracle()
    assert (agree, total) == (44, 77)
    assert got == pytest.approx(frac, abs=1e-12)


def test_agreement_unanimous():
    assert majority_agreement(ratings(("p", "a", 1), ("p", "b", 1), ("p", "c", 1))) == 1.0


def test_agreement_total_disagreement():
    assert majority_agreement(ratings(("p", "a", 1), ("p", "b", 2))) == 0.0


def test_agreement_comodal_counts():
    # [1, 1, 2]: each 1 agrees with the leave-one-out tie; the 2 does not
    got = majority_agreement(ratings(("p", "a", 1), ("p", "b", 1), ("p", "c", 2)))
    assert got == pytest.approx(2 / 3)


def test_agreement_needs_two_ratings():
    with pytest.raises(DegenerateDataError):
        majority_agreement(ratings(("p", "a", 1)))
    with pytest.raises(DegenerateDataError):
        majority_agreement([])


# --- spearman -------------------------------------------------------------------


def test_spearman_hand_example():
    assert spearman([1, 2, 2, 4], [1, 3, 2, 4]) == pytest.approx(
        0.9486832980505138, abs=1e-12
    )


def test_spearman_monotone_transform_invariance():
    x = [3.0, -1.0, 2.0, 0.5, 9.0]
    assert spearman(x, [math.exp(v) for v in x]) == pytest.approx(1.0, abs=1e-12)
    assert spearman(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)


def test_spearman_needs_three_noneq_pairs():
    with pytest.raises(DegenerateDataError):
        spearman([1, 2], [1, 2])
    with pytest.raises(DegenerateDataError):
        spearman([1, 1, 1], [1, 2, 3])


def test_spearman_matches_oracle_on_random_ties():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(3, 40)
        x = [float(rng.randint(-4, 4)) for _ in range(n)]
        y = [float(rng.randint(-4, 4)) for _ in range(n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        assert spearman(x, y) == pytest.approx(oracle.spearman_oracle(x, y), abs=1e-12)


# --- ROC AUC ---------------------------------------------------------------------


def test_auc_trivials():
    assert roc_auc([1.0, 2.0, 3.0, 4.0], [False, False, True, True]) == 1.0
    assert roc_auc([4.0, 3.0, 2.0, 1.0], [False, False, True, True]) == 0.0
    assert roc_auc([1.0, 1.0, 1.0, 1.0], [False, True, False, True]) == 0.5


def test_auc_needs_both_classes():
    with pytest.raises(DegenerateDataError):
        roc_auc([1.0, 2.0], [True, True])
    with pytest.raises(DegenerateDataError):
        roc_auc([], [])


def test_auc_matches_pairwise_oracle():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(3, 50)
        scores = [float(rng.randint(-5, 5)) for _ in range(n)]
        labels = [rng.random() < 0.5 for _ in range(n)]
        if len(set(labels)) < 2:
            continue
        assert roc_auc(scores, labels) == pytest.approx(
            oracle.auc_pairwise(scores, labels), abs=1e-12
        )


def test_auc_complement_sums_to_one():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(4, 30)
        scores = [float(rng.randint(-3, 3)) for _ in range(n)]
        labels = [rng.random() < 0.5 for _ in range(n)]
        if len(set(labels)) < 2:
            continue
        a = roc_auc(scores, labels)
        b = roc_auc(scores, [not l for l in labels])
        assert a + b == pytest.approx(1.0, abs=1e-12)


def test_auc_monotone_transform_invariance():
    scores = [0.5, -2.0, 0.0, 3.0, 1.0, -1.0]
    labels = [True, False, False, True, True, False]
    transformed = [math.atan(s) for s in scores]
    assert roc_auc(scores, labels) == roc_auc(transformed, labels)


# --- sign accuracy and coverage -----------------------------------------------


def gold_of(**means):
    return [GoldRating(pid, mean, 5) for pid, mean in means.items()]


def test_sign_accuracy_basics():
    gold = gold_of(a=1.0, b=-1.0, c=0.0)
    assert sign_accuracy({"a": 2.0, "b": -0.5}, gold) == 1.0
    assert sign_accuracy({"a": -2.0, "b": 0.5}, gold) == 0.0
    assert sign_accuracy({"a": 2.0, "b": 0.5}, gold) == 0.5


def test_sign_accuracy_zero_mean_gold_excluded():
    gold = gold_of(a=1.0, c=0.0)
    # c would be wrong, but it carries no sign label
    assert sign_accuracy({"a": 1.0, "c": -5.0}, gold) == 1.0


def test_sign_accuracy_threshold_ties():
    gold = gold_of(a=1.0, b=-1.0)
    preds = {"a": 0.0, "b": -1.0}
    assert sign_accuracy(preds, gold) == 0.5


def test_sign_accuracy_empty_evaluable():
    with pytest.raises(DegenerateDataError):
        sign_accuracy({"z": 1.0}, gold_of(a=1.0))
    with pytest.raises(DegenerateDataError):
        sign_accuracy({"a": 1.0}, gold_of(a=0.0))


def test_coverage():
    gold = gold_of(a=1.0, b=-1.0, c=0.5, d=0.0)
    assert coverage({"a": 1.0, "c": 2.0, "zz": 9.0}, gold) == (0.5, 2)
    assert coverage({}, gold) == (0.0, 0)
    assert coverage({"a": 1.0}, []) == (0.0, 0)


# --- whole-method evaluation -----------------------------------------------------


def predictions_from(path):
    with open(path, encoding="utf-8") as fh:
        scores, _ = parse_score_table(fh)
    return {s.phrase_id: s.z for s in scores if s.z is not None}


def test_fixture_eval_reports(fixtures, expected):
    gold = parse_gold(io.StringIO((fixtures / "gold.tsv").read_text(encoding="utf-8")))
    preds_a = predictions_from(expected / "tweet_scores.tsv")
    preds_b = predictions_from(expected / "document_scores.tsv")
    methods = {
        "tweet_scores": preds_a,
        "document_scores": preds_b,
        "combined": combine_average(preds_a, preds_b),
        "matching_signs": matching_signs_filter(preds_a, preds_b),
    }
    for name, preds in methods.items():
        report = evaluate_method(name, preds, gold)
        rho, auc, acc, cov_pct, cov_n = EVAL_EXPECTED[name]
        assert report.spearman == pytest.approx(rho, abs=1e-12), name
        assert report.auc == pytest.approx(auc, abs=1e-12), name
        assert report.accuracy == pytest.approx(acc, abs=1e-12), name
        assert report.coverage_pct == pytest.approx(cov_pct, abs=1e-12), name
        assert report.coverage_n == cov_n, name


def test_evaluate_method_without_coverage():
    with pytest.raises(DegenerateDataError):
        evaluate_method("m", {"nope": 1.0}, gold_of(a=1.0, b=-1.0, c=0.5))


# --- scatter --------------------------------------------------------------------


def test_scatter_rows_and_quadrants():
    gold = gold_of(p1=1.0, p2=-1.0, p6=0.5)
    z_a = {"p1": 1.0, "p2": -1.0, "p3": 2.0, "p6": 0.0}
    z_b = {"p1": 2.0, "p2": 3.0, "p4": 1.0, "p6": 1.0}
    text = format_scatter(z_a, z_b, gold, {"p1": "make money", "p2": "go bed", "p6": "x y"})
    rows = [line.split("\t") for line in text.splitlines()[1:]]
    assert [r[0] for r in rows] == ["make money", "go bed", "x y"]
    assert [int(r[4]) for r in rows] == [1, 2, 0]


def test_scatter_matches_frozen_fixture(fixtures, expected):
    gold = parse_gold(io.StringIO((fixtures / "gold.tsv").read_text(encoding="utf-8")))
    with open(expected / "tweet_scores.tsv", encoding="utf-8") as fh:
        _, texts = parse_score_table(fh)
    z_a = predictions_from(expected / "tweet_scores.tsv")
    z_b = predictions_from(expected / "document_scores.tsv")
    got = format_scatter(z_a, z_b, gold, texts)
    assert got == (expected / "scatter.tsv").read_text(encoding="utf-8")


# --- balanced-sample sanity table -------------------------------------------------

PROBES = [("make", "money"), ("go", "bed"), ("feel", "good"), ("buy", "cheese")]


@pytest.fixture(scope="module")
def tweet_users(tweet_records):
    """The fixture tweets as ``(author_name, [lemmas per sentence])``
    records, the shape ``sanity_proportions`` reads."""
    return [(r.author_name, [list(s.lemmata) for s in r.sentences]) for r in tweet_records]


def test_sanity_fixture_rows(tweet_users, name_lexicon):
    rows = sanity_proportions(tweet_users, PROBES, name_lexicon, seed=0)
    flat = [(r.phrase_text, r.male_users, r.female_users) for r in rows]
    assert flat == [
        ("make money", 2, 1),
        ("go bed", 2, 1),
        ("feel good", 1, 1),
        ("buy cheese", 1, 1),
    ]
    for row in rows:
        assert row.male_pct == 100.0 * row.male_users / (row.male_users + row.female_users)
        # exact complementarity, not a rounding artifact
        assert row.male_pct + row.female_pct == 100.0


def test_sanity_matches_independent_oracle(tweet_users, name_lexicon):
    rows = sanity_proportions(tweet_users, PROBES, name_lexicon, seed=0)
    reference = oracle.sanity_oracle(0)
    assert [(r.phrase_text, r.male_users, r.female_users) for r in rows] == [
        (text, mn, fn) for text, mn, fn, _, _ in reference
    ]


def test_sanity_table_bytes(tweet_users, name_lexicon, expected):
    rows = sanity_proportions(tweet_users, PROBES, name_lexicon, seed=0)
    assert format_sanity_table(rows, seed=0) == (expected / "sanity.tsv").read_text(
        encoding="utf-8"
    )


def test_sanity_is_deterministic(tweet_users, name_lexicon):
    a = sanity_proportions(tweet_users, PROBES, name_lexicon, seed=3)
    b = sanity_proportions(tweet_users, PROBES, name_lexicon, seed=3)
    assert a == b


def test_sanity_single_lemma_probe(tweet_users, name_lexicon):
    # lemma presence, no bigram needed: David and Jack both say "problem"
    # and Sarah, the one sampled-out female who does, is not drawn at seed 0
    (row,) = sanity_proportions(tweet_users, [("problem",)], name_lexicon, seed=0)
    assert (row.male_users, row.female_users) == (2, 0)
    assert (row.male_pct, row.female_pct) == (100.0, 0.0)


def test_sanity_unmentioned_probe_warns(tweet_users, name_lexicon):
    with pytest.warns(RuntimeWarning, match="take note"):
        rows = sanity_proportions(
            tweet_users, PROBES + [("take", "note")], name_lexicon, seed=0
        )
    assert [r.phrase_text for r in rows] == [" ".join(p) for p in PROBES]


def test_sanity_duplicate_probes_collapse(tweet_users, name_lexicon):
    rows = sanity_proportions(
        tweet_users, [("go", "bed"), ("go", "bed")], name_lexicon, seed=0
    )
    assert len(rows) == 1


def test_sanity_needs_both_genders(tweet_users):
    lexicon = NameGenderLexicon(male_names=frozenset(), female_names=frozenset({"mary"}))
    with pytest.raises(DegenerateDataError):
        sanity_proportions(tweet_users, PROBES, lexicon, seed=0)


def test_sanity_rejects_empty_probe(tweet_users, name_lexicon):
    with pytest.raises(ValueError):
        sanity_proportions(tweet_users, [()], name_lexicon, seed=0)


def test_sanity_row_is_plain_data():
    row = SanityRow("x", 60.0, 40.0, 3, 2)
    assert row.phrase_text == "x"
