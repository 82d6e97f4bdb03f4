"""Acceptance checks for the shipped behavior, one test per requirement.

Each test prints a single `[acceptance] <slug>: PASS/FAIL` line (run with
`pytest -s tests/test_acceptance.py` to see them all) and then asserts,
so a red line always comes with a failing test.
"""

import math
import os
import random
import statistics
import time
from itertools import product
from pathlib import Path

import pytest

import stereomine.matcher as matcher
from stereomine.attribution import attribute_by_author
from stereomine.cli import main
from stereomine.corpus_io import TweetRecord
from stereomine.evaluation import (
    aggregate_gold,
    load_ratings,
    majority_agreement,
    roc_auc,
    sanity_proportions,
    spearman,
)
from stereomine.matcher import brute_force_matches, compile_phrases, find_matches
from stereomine.matcher.types import Match
from stereomine.scoring import (
    GenderedCount,
    ScoringContext,
    aggregate,
    matching_signs_filter,
    normalized_bias,
    parse_score_table,
    score_counts,
)

import derive_expected
from util import phrase, read_manifest, sent, sent_of, tok

FIXTURES = Path(__file__).parent / "fixtures"
EXPECTED = FIXTURES / "expected"
CFG = str(FIXTURES / "run.cfg")


def check(slug: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {slug}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# --- matcher ------------------------------------------------------------------


def test_matcher_oracle_equivalence():
    """Greedy matcher agrees with the brute-force oracle on every sentence
    of length <= 12 over a 3-symbol alphabet, for every phrase of length
    <= 4 over that alphabet."""
    t0 = time.perf_counter()
    syms = ("a", "b", "c")
    phrases = []
    for k in (2, 3, 4):
        for combo in product(syms, repeat=k):
            phrases.append(phrase(" ".join(combo), f"p{len(phrases):03d}"))
    assert len(phrases) == 117
    automaton = compile_phrases(phrases)
    assert automaton.vocab == {"a": 0, "b": 1, "c": 2}

    # A match starting at position i can span at most 2*4 - 1 tokens, so it is
    # fully determined by the 7-token window at i.  Build an anchored oracle
    # table over every window once, then sweep all sentences in id space.
    table: dict[tuple[int, ...], tuple[tuple[int, int], ...]] = {}
    for wlen in range(8):
        for win in product(range(3), repeat=wlen):
            sentence = sent(*(syms[i] for i in win))
            hits = []
            for idx, ph in enumerate(phrases):
                for m in brute_force_matches(sentence, ph):
                    if m.start == 0:
                        hits.append((idx, m.end))
            table[win] = tuple(sorted(hits))

    # validate the window decomposition against the plain oracle
    rng = random.Random(20260815)
    for _ in range(400):
        length = rng.randint(1, 12)
        s = tuple(rng.randrange(3) for _ in range(length))
        sentence = sent(*(syms[i] for i in s))
        direct = sorted(
            (idx, m.start, m.end)
            for idx, ph in enumerate(phrases)
            for m in brute_force_matches(sentence, ph)
        )
        windowed = sorted(
            (idx, i, i + end) for i in range(length) for idx, end in table[s[i : i + 7]]
        )
        assert direct == windowed, f"window oracle disagrees on {s}"

    kernel = matcher._kernel
    checked = 0
    first_bad = None
    for length in range(1, 13):
        for s in product(range(3), repeat=length):
            expected = [
                (idx, i, i + end)
                for i in range(length)
                for idx, end in table[s[i : i + 7]]
            ]
            expected.sort()
            got = kernel(automaton, list(s))
            got.sort()
            if got != expected and first_bad is None:
                first_bad = (s, got, expected)
            checked += 1

    # the public wrapper (encode, id mapping, ordering) on top of the kernel
    for length in range(1, 8):
        for s in product(range(3), repeat=length):
            sentence = sent(*(syms[i] for i in s))
            expected_matches = [
                Match(phrase_id=f"p{idx:03d}", start=i, end=i + end, sentence_ref=0)
                for i in range(length)
                for idx, end in table[s[i : i + 7]]
            ]
            assert find_matches(sentence, automaton) == expected_matches

    elapsed = time.perf_counter() - t0
    check(
        "matcher-oracle-equivalence",
        first_bad is None and checked == 797_160 and elapsed < 60.0,
        f"{checked} sentences, backend={matcher.BACKEND}, {elapsed:.1f}s"
        + (f", first mismatch {first_bad}" if first_bad else ""),
    )


def test_gap_example_fidelity():
    """The canonical gap behavior: 'long holiday' hits the adjacent and
    one-gap realizations and rejects the two-gap one."""
    automaton = compile_phrases([phrase("long holiday", "ph")])
    adjacent = sent("long", "holiday")
    one_gap = [tok("longing", lemma="long"), tok("for"), tok("holiday")]
    two_gap = [tok("longing", lemma="long"), tok("for"), tok("a"), tok("holiday")]
    got_adj = find_matches(adjacent, automaton)
    got_gap = find_matches(sent_of(one_gap), automaton)
    got_two = find_matches(sent_of(two_gap), automaton)
    ok = (
        [(m.start, m.end) for m in got_adj] == [(0, 2)]
        and [(m.start, m.end) for m in got_gap] == [(0, 3)]
        and got_two == []
    )
    check(
        "gap-example-fidelity",
        ok,
        f"adjacent={got_adj}, one-gap={got_gap}, two-gap={got_two}",
    )


# --- bias score ----------------------------------------------------------------


def test_bias_formula():
    problems = []
    even = ScoringContext(M=50, F=50)
    s = normalized_bias(GenderedCount("x", m=6, f=2), even)
    if abs(s - math.sqrt(2)) > 1e-12:
        problems.append(f"6/2 at even baseline gave {s!r}")

    rng = random.Random(1882)
    for _ in range(1000):
        m, f = rng.randint(0, 40), rng.randint(0, 40)
        if m + f == 0:
            m = 1
        M, F = rng.randint(1, 10**6), rng.randint(1, 10**6)
        a = normalized_bias(GenderedCount("x", m=m, f=f), ScoringContext(M=M, F=F))
        b = normalized_bias(GenderedCount("x", m=f, f=m), ScoringContext(M=F, F=M))
        if a != -b:
            problems.append(f"asymmetry at m={m} f={f} M={M} F={F}: {a!r} vs {b!r}")
            break

    for _ in range(1000):
        m, f = rng.randint(0, 40), rng.randint(0, 40)
        if m + f == 0:
            f = 3
        even_n = rng.randint(1, 10**6)
        s = normalized_bias(GenderedCount("x", m=m, f=f), ScoringContext(M=even_n, F=even_n))
        if abs(s - (m - f) / math.sqrt(m + f)) > 1e-12:
            problems.append(f"even-baseline shortcut off at m={m} f={f}")
            break

    check("bias-formula", not problems, "; ".join(problems) or "sqrt(2), exact antisymmetry, (m-f)/sqrt(n)")


def test_null_calibration():
    """Under the null (m binomial at the corpus baseline) the score is
    standard: mean ~0, variance ~1."""
    n = 100
    details = []
    ok = True
    for M, F in ((3, 7), (1, 1), (7, 3)):
        p = M / (M + F)
        rng = random.Random(97 + M)
        values = []
        for _ in range(10_000):
            m = sum(rng.random() < p for _ in range(n))
            values.append(
                normalized_bias(GenderedCount("x", m=m, f=n - m), ScoringContext(M=M, F=F))
            )
        mean = statistics.fmean(values)
        var = statistics.pvariance(values, mu=mean)
        details.append(f"p={p:.1f}: mean={mean:+.3f} var={var:.3f}")
        ok = ok and -0.05 <= mean <= 0.05 and 0.9 <= var <= 1.1
    check("null-calibration", ok, "; ".join(details))


# --- metrics -------------------------------------------------------------------


def test_metric_oracles():
    rng = random.Random(5150)
    grid = [k / 4 for k in range(-8, 9)]
    worst_rho = 0.0
    for _ in range(500):
        size = rng.randint(3, 50)
        while True:
            x = [rng.choice(grid) for _ in range(size)]
            y = [rng.choice(grid) for _ in range(size)]
            if len(set(x)) > 1 and len(set(y)) > 1:
                break
        worst_rho = max(worst_rho, abs(spearman(x, y) - derive_expected.spearman_oracle(x, y)))

    worst_auc = 0.0
    for _ in range(500):
        size = rng.randint(3, 50)
        scores = [rng.choice(grid) for _ in range(size)]
        labels = [True, False] + [rng.random() < 0.5 for _ in range(size - 2)]
        rng.shuffle(labels)
        worst_auc = max(
            worst_auc, abs(roc_auc(scores, labels) - derive_expected.auc_pairwise(scores, labels))
        )

    perfect = roc_auc([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
    all_tied = roc_auc([0.5, 0.5, 0.5, 0.5], [True, False, True, False])
    ok = worst_rho <= 1e-12 and worst_auc <= 1e-12 and perfect == 1.0 and all_tied == 0.5
    check(
        "metric-oracles",
        ok,
        f"max |drho|={worst_rho:.2e}, max |dauc|={worst_auc:.2e}, "
        f"perfect={perfect}, tied={all_tied}",
    )


# --- gold standard --------------------------------------------------------------


def test_gold_aggregation():
    ratings = load_ratings(FIXTURES / "ratings.tsv")
    entries = aggregate_gold(ratings)
    got = {e.phrase_id: (e.mean_score, e.n_raters) for e in entries}

    hand = {  # [DERIVED] means tallied by hand from the ratings fixture
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
    problems = []
    if set(got) != set(hand):
        problems.append(f"kept ids {sorted(got)} != {sorted(hand)}")
    else:
        for pid, (mean, n) in hand.items():
            if abs(got[pid][0] - mean) > 1e-12 or got[pid][1] != n:
                problems.append(f"{pid}: {got[pid]} != {(mean, n)}")

    raw_ids = {r.phrase_id for r in ratings}
    dropped = raw_ids - set(got)
    if dropped != {"r90", "r91"}:
        problems.append(f"dropped {sorted(dropped)}, wanted the <5-rater and no-majority ones")

    oracle = derive_expected.gold_from_ratings()
    for pid, (mean, n) in oracle.items():
        if pid not in got or abs(got[pid][0] - mean) > 1e-12 or got[pid][1] != n:
            problems.append(f"oracle drift on {pid}")

    agree, total, frac = derive_expected.agreement_oracle()
    ours = majority_agreement(ratings)
    if abs(ours - frac) > 1e-12:
        problems.append(f"agreement {ours} != {agree}/{total}")

    check(
        "gold-aggregation",
        not problems,
        "; ".join(problems) or f"13 kept, 2 dropped, agreement={agree}/{total}",
    )


# --- end-to-end fixture ----------------------------------------------------------


def test_end_to_end_fixture(tmp_path):
    read = lambda p: Path(p).read_text(encoding="utf-8")
    lexdir = tmp_path / "lex"
    assert main(["build-lexicons", "--config", CFG, "--output-dir", str(lexdir)]) == 0

    def score(kind, out, *extra):
        rc = main(
            ["score", "--config", CFG, "--kind", kind, "--output-dir", str(out),
             "--lexicon-dir", str(lexdir), *extra]
        )
        assert rc in (0, 2)
        return out

    problems = []

    # spot-check the frozen tables against hand arithmetic before trusting them
    with open(EXPECTED / "tweet_scores.tsv", encoding="utf-8") as fh:
        tweet_scores = {s.phrase_id: s for s in parse_score_table(fh)[0]}
    hand_c08 = (2 * 11 - 0 * 14) / math.sqrt(2 * 14 * 11)  # m=2 f=0, M=14 F=11
    hand_c01 = (0 * 11 - 1 * 14) / math.sqrt(1 * 14 * 11)
    if abs(tweet_scores["c08"].s - hand_c08) > 1e-12:
        problems.append("tweet c08 drifted from hand value")
    if abs(tweet_scores["c01"].s - hand_c01) > 1e-12:
        problems.append("tweet c01 drifted from hand value")
    with open(EXPECTED / "document_scores.tsv", encoding="utf-8") as fh:
        doc_scores = {s.phrase_id: s for s in parse_score_table(fh)[0]}
    if abs(doc_scores["c01"].s - (0 * 5 - 1 * 4) / math.sqrt(1 * 4 * 5)) > 1e-12:
        problems.append("document c01 drifted from hand value")

    # repeat runs are byte-identical and equal to the frozen tables
    for kind in ("tweet", "document"):
        a = score(kind, tmp_path / f"{kind}_a")
        b = score(kind, tmp_path / f"{kind}_b")
        for name in (f"{kind}_counts.tsv", f"{kind}_scores.tsv"):
            if read(a / name) != read(b / name):
                problems.append(f"{name} differs between reruns")
            if read(a / name) != read(EXPECTED / name):
                problems.append(f"{name} differs from the expected table")

    # partitioned tweet runs merge back to the whole-corpus tables
    tweet_lines = (FIXTURES / "tweets.tsv").read_text(encoding="utf-8").splitlines(True)
    for ways in (1, 2, 4):
        parts = []
        for i in range(ways):
            part = tmp_path / f"tp{ways}_{i}.tsv"
            part.write_text("".join(tweet_lines[i::ways]), encoding="utf-8")
            out = score("tweet", tmp_path / f"tp{ways}_{i}", "--tweet-corpus", str(part))
            parts.append(str(out / "tweet_counts.tsv"))
        merged = tmp_path / f"tmerged{ways}"
        assert main(["merge-counts", "--config", CFG, "--output-dir", str(merged), *parts]) == 0
        if read(merged / "merged_scores.tsv") != read(EXPECTED / "tweet_scores.tsv"):
            problems.append(f"{ways}-way tweet merge differs from whole-corpus run")

    # document corpus split at the document boundary
    doc_lines = (FIXTURES / "docs.vert").read_text(encoding="utf-8").splitlines(True)
    cut = doc_lines.index("#doc d2\n")
    parts = []
    for i, chunk in enumerate((doc_lines[:cut], doc_lines[cut:])):
        part = tmp_path / f"dp{i}.vert"
        part.write_text("".join(chunk), encoding="utf-8")
        out = score("document", tmp_path / f"dp{i}", "--document-corpus", str(part))
        parts.append(str(out / "document_counts.tsv"))
    merged = tmp_path / "dmerged"
    assert main(["merge-counts", "--config", CFG, "--output-dir", str(merged), *parts]) == 0
    if read(merged / "merged_scores.tsv") != read(EXPECTED / "document_scores.tsv"):
        problems.append("2-way document merge differs from whole-corpus run")

    check(
        "end-to-end-fixture",
        not problems,
        "; ".join(problems) or "byte-stable reruns; 1/2/4-way merges reproduce the whole run",
    )


# --- synthetic recovery ------------------------------------------------------------


PLANTS = [(f"verb{i:02d} noun{i:02d}", i < 10) for i in range(20)]


def synth_corpus(seed: int) -> list[TweetRecord]:
    """5,000 records, half by 'john *' authors and half by 'mary *'.

    Each planted phrase appears in a male record with probability 0.016
    and a female one with 0.004 (swapped for the female-leaning half),
    i.e. a true male proportion of 0.8 or 0.2 against a 0.5 baseline and
    about 50 expected occurrences per phrase.
    """
    rng = random.Random(seed)
    records = []
    for r in range(5000):
        male = r % 2 == 0
        words: list[str] = []
        for text, leans_male in PLANTS:
            q = 0.016 if male == leans_male else 0.004
            if rng.random() < q:
                words.extend(text.split())
        if not words:
            words = ["the", "cat", "sleep"]
        records.append(
            TweetRecord(
                record_id=f"r{r}",
                author_name=("John" if male else "Mary") + f" U{r}",
                author_first_name="john" if male else "mary",
                sentences=(sent(*words),),
            )
        )
    return records


def run_pipeline(records, name_lexicon):
    automaton = compile_phrases([phrase(text) for text, _ in PLANTS])
    occurrences = []
    for record in records:
        matches = [
            m for s in record.sentences for m in find_matches(s, automaton)
        ]
        occurrences.extend(attribute_by_author(record, matches, name_lexicon))
    counts, ctx = aggregate(occurrences)
    return score_counts(counts, ctx)


def test_synthetic_sign_recovery(name_lexicon):
    t0 = time.perf_counter()
    truth = dict(PLANTS)

    scores_a = run_pipeline(synth_corpus(1001), name_lexicon)
    correct = sum(
        1 for s in scores_a if (s.s > 0) == truth[s.phrase_id] and s.s != 0.0
    )
    n_small = sum(1 for s in scores_a if s.n < 20)

    scores_b = run_pipeline(synth_corpus(2002), name_lexicon)
    za = {s.phrase_id: s.z for s in scores_a}
    zb = {s.phrase_id: s.z for s in scores_b}
    retained = matching_signs_filter(za, zb)
    retained_correct = sum(
        1 for pid, z in retained.items() if (z > 0) == truth[pid]
    )
    elapsed = time.perf_counter() - t0

    ok = (
        len(scores_a) == 20
        and n_small == 0
        and correct >= 19  # >= 95% of 20
        and len(retained) >= 15
        and retained_correct >= 0.98 * len(retained)
    )
    check(
        "synthetic-sign-recovery",
        ok,
        f"single corpus {correct}/20 signs, matching-signs "
        f"{retained_correct}/{len(retained)} on retained, {elapsed:.1f}s",
    )


def test_sanity_proportions(name_lexicon):
    """200 male users (14 mention the probe) and 100 female users (93
    mention it): the balanced table should land near (7, 93)."""
    records = []
    for i in range(200):
        text = ["i", "have", "husband", "today"] if i < 14 else ["i", "like", "tea"]
        records.append(
            TweetRecord(
                record_id=f"m{i}",
                author_name=f"John U{i}",
                author_first_name="john",
                sentences=(sent(*text),),
            )
        )
    for i in range(100):
        text = ["i", "have", "husband", "today"] if i < 93 else ["i", "like", "tea"]
        records.append(
            TweetRecord(
                record_id=f"f{i}",
                author_name=f"Mary U{i}",
                author_first_name="mary",
                sentences=(sent(*text),),
            )
        )
    rows = sanity_proportions(records, [phrase("have husband")], name_lexicon, seed=0)
    assert len(rows) == 1
    row = rows[0]
    ok = (
        row.female_users == 93
        and abs(row.male_pct - 7.0) <= 5.0
        and abs(row.female_pct - 93.0) <= 5.0
        and row.male_pct + row.female_pct == 100.0
    )
    check(
        "sanity-proportions",
        ok,
        f"({row.male_pct:.1f}, {row.female_pct:.1f}) from "
        f"{row.male_users}/{row.female_users} users",
    )


# --- released-data reproduction (optional, needs external files) -------------------


RELEASED_TARGETS = {
    # method -> (spearman, auc, accuracy, covered, sign-labeled)
    "tweet": (0.28, 0.65, 0.61, 441, 380),
    "document": (0.27, 0.64, 0.61, 433, 375),
    "combined": (0.33, 0.67, 0.59, 433, 375),
    "matching_signs": (0.47, 0.76, 0.70, 231, 205),
}


def test_released_data_reproduction(tmp_path):
    """Reproduces the published evaluation when the released 441-phrase
    gold table and the two full-corpus score tables are supplied via
    STEREOMINE_RELEASED_GOLD / _TWEET_SCORES / _DOCUMENT_SCORES."""
    gold = os.environ.get("STEREOMINE_RELEASED_GOLD")
    tweet = os.environ.get("STEREOMINE_RELEASED_TWEET_SCORES")
    doc = os.environ.get("STEREOMINE_RELEASED_DOCUMENT_SCORES")
    if not (gold and tweet and doc):
        print("[acceptance] released-data-reproduction: SKIP (files not supplied)")
        pytest.skip("released gold/score files not supplied")

    out = tmp_path / "out"
    rc = main(
        ["evaluate", "--config", CFG, "--output-dir", str(out),
         "--scores", tweet, doc, "--gold", gold]
    )
    assert rc == 0
    rows = [
        line.split("\t")
        for line in (out / "eval_report.tsv").read_text(encoding="utf-8").splitlines()[1:]
    ]
    manifest = read_manifest(out / "eval_manifest.tsv")
    problems = []
    for row, method in zip(rows, RELEASED_TARGETS):
        rho, auc, acc, covered, labeled = RELEASED_TARGETS[method]
        name = row[0]
        if abs(float(row[1]) - rho) > 0.02:
            problems.append(f"{method} spearman {row[1]} vs {rho}")
        if abs(float(row[2]) - auc) > 0.02:
            problems.append(f"{method} auc {row[2]} vs {auc}")
        if abs(float(row[3]) - acc) > 0.02:
            problems.append(f"{method} accuracy {row[3]} vs {acc}")
        if int(row[5]) != covered:
            problems.append(f"{method} coverage {row[5]} vs {covered}")
        if int(manifest[f"labeled_{name}"]) != labeled:
            problems.append(f"{method} labeled {manifest[f'labeled_{name}']} vs {labeled}")
    check("released-data-reproduction", not problems, "; ".join(problems) or "4 methods in band")
