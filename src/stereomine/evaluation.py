"""Gold-standard aggregation and evaluation metrics.

Human raters score each phrase on a 5-point scale from -2 (typically
feminine) to +2 (typically masculine), with an extra "X" answer for
phrases they consider meaningless.  Aggregation keeps phrases rated by
at least ``MIN_RATERS`` raters whose modal answer is numeric, and
averages the numeric answers.

The metrics (Spearman, ROC AUC, sign accuracy, coverage) are written
from scratch over plain Python floats; the test suite holds independent
brute-force twins for each.
"""

from __future__ import annotations

import math
import random
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus_io import _first_name
from .errors import CorpusFormatError, DegenerateDataError, format_rows, open_text, read_rows
from .lexicons import ActionPhrase, Gender, NameGenderLexicon, guess_gender
from .matcher import _match_ids, compile_phrases

MEANINGLESS = "X"
MIN_RATERS = 5


@dataclass(frozen=True, slots=True)
class RawRating:
    """One rater's answer for one phrase; value None means the rater
    marked the phrase meaningless."""

    phrase_id: str
    rater_id: str
    value: int | None

    def __post_init__(self):
        if self.value is not None and not -2 <= self.value <= 2:
            raise ValueError(f"rating value out of range: {self.value!r}")


@dataclass(frozen=True, slots=True)
class GoldRating:
    phrase_id: str
    mean_score: float
    n_raters: int
    text: str = ""

    def __post_init__(self):
        if not -2.0 <= self.mean_score <= 2.0:
            raise ValueError(f"gold mean out of range: {self.mean_score!r}")
        if self.n_raters < MIN_RATERS:
            raise ValueError(f"gold entries need >= {MIN_RATERS} raters, got {self.n_raters}")


@dataclass(frozen=True)
class EvalReport:
    method_name: str
    spearman: float
    auc: float
    accuracy: float
    coverage_pct: float
    coverage_n: int


@dataclass(frozen=True)
class SanityRow:
    phrase_text: str
    male_pct: float
    female_pct: float
    male_users: int
    female_users: int


def parse_ratings(lines: Iterable[str], path=None) -> list[RawRating]:
    """Read ``phrase_id<TAB>rater_id<TAB>value`` rows; value is one of
    -2, -1, 0, 1, 2 or X."""
    out: list[RawRating] = []
    columns = ("phrase_id", "rater_id", "value")
    for line_no, (pid, rater, value_s) in read_rows(lines, path, columns):
        if value_s == MEANINGLESS:
            value = None
        else:
            try:
                value = int(value_s)
            except ValueError:
                raise CorpusFormatError(
                    f"bad rating value {value_s!r}", line_no=line_no, path=path
                ) from None
        try:
            out.append(RawRating(phrase_id=pid, rater_id=rater, value=value))
        except ValueError as exc:
            raise CorpusFormatError(str(exc), line_no=line_no, path=path) from None
    return out


def load_ratings(path) -> list[RawRating]:
    with open_text(path) as fh:
        return parse_ratings(fh, path=path)


def aggregate_gold(
    ratings: Iterable[RawRating], phrase_texts: Mapping[str, str] | None = None
) -> list[GoldRating]:
    """Aggregate raw ratings into per-phrase gold means.

    A phrase survives when it has at least ``MIN_RATERS`` ratings and
    its modal answer is numeric.  A tie between the meaningless answer
    and a numeric one keeps the phrase.  The mean is taken over numeric
    answers only; n_raters counts every rating, meaningless included.
    """
    by_phrase: dict[str, list[int | None]] = {}
    for r in ratings:
        by_phrase.setdefault(r.phrase_id, []).append(r.value)
    out: list[GoldRating] = []
    for pid in sorted(by_phrase):
        values = by_phrase[pid]
        if len(values) < MIN_RATERS:
            continue
        counts = Counter(values)
        numeric = [v for v in values if v is not None]
        # strict modal: dropped only when X outnumbers every numeric answer
        best_numeric = max((counts[v] for v in set(numeric)), default=0)
        if counts[None] > best_numeric:
            continue
        mean = sum(numeric) / len(numeric)
        text = phrase_texts.get(pid, "") if phrase_texts else ""
        out.append(
            GoldRating(phrase_id=pid, mean_score=mean, n_raters=len(values), text=text)
        )
    return out


def majority_agreement(ratings: Iterable[RawRating]) -> float:
    """Average leave-one-out agreement with the per-phrase modal answer.

    For each rating the mode is recomputed without it; matching any
    co-modal answer counts as agreement.  Every phrase must have at
    least two ratings for the leave-one-out mode to exist.
    """
    by_phrase: dict[str, list[int | None]] = {}
    for r in ratings:
        by_phrase.setdefault(r.phrase_id, []).append(r.value)
    if not by_phrase:
        raise DegenerateDataError("no ratings to compute agreement over")
    agree = 0
    total = 0
    for pid, values in by_phrase.items():
        if len(values) < 2:
            raise DegenerateDataError(
                f"phrase {pid!r} has one rating; leave-one-out mode is undefined"
            )
        counts = Counter(values)
        for v in values:
            counts[v] -= 1
            if counts[v] == max(counts.values()):
                agree += 1
            counts[v] += 1
            total += 1
    return agree / total


def _midranks(values: Sequence[float]) -> list[float]:
    """1-based ranks, ties getting the average rank of their run."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        vi = values[order[i]]
        while j + 1 < n and values[order[j + 1]] == vi:
            j += 1
        rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def _pearson(x: Sequence[float], y: Sequence[float]) -> float:
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Rank correlation: Pearson over mid-ranks (average ranks for
    ties)."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 3:
        raise DegenerateDataError(f"rank correlation needs >= 3 pairs, got {len(x)}")
    if min(x) == max(x) or min(y) == max(y):
        raise DegenerateDataError("rank correlation undefined for a constant variable")
    return _pearson(_midranks(x), _midranks(y))


def roc_auc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Probability that a positive outranks a negative, ties at half.

    Computed by rank sums (Mann-Whitney), which equals the pairwise
    count with 0.5 per tied pair.
    """
    if len(scores) != len(labels):
        raise ValueError(f"length mismatch: {len(scores)} vs {len(labels)}")
    n_pos = sum(1 for l in labels if l)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateDataError("AUC undefined: both classes must be present")
    ranks = _midranks(scores)
    rank_sum = sum(r for r, l in zip(ranks, labels) if l)
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def sign_accuracy(predictions: Mapping[str, float], gold: Sequence[GoldRating]) -> float:
    """Fraction of the nonzero-mean gold phrases with a prediction whose
    prediction has the gold sign; a prediction of exactly 0 has no sign
    and counts as wrong."""
    evaluable = [
        (predictions[g.phrase_id], g.mean_score)
        for g in gold
        if g.mean_score != 0.0 and g.phrase_id in predictions
    ]
    if not evaluable:
        raise DegenerateDataError(
            "accuracy undefined: no gold phrase has both a nonzero mean and a prediction"
        )
    right = sum(1 for pred, mean in evaluable if pred != 0.0 and (pred > 0) == (mean > 0))
    return right / len(evaluable)


def coverage(
    predictions: Mapping[str, float], gold: Sequence[GoldRating]
) -> tuple[float, int]:
    """(fraction, count) of gold phrases with a defined prediction."""
    n = sum(1 for g in gold if g.phrase_id in predictions)
    if not gold:
        return 0.0, 0
    return n / len(gold), n


def evaluate_method(
    method_name: str, predictions: Mapping[str, float], gold: Sequence[GoldRating]
) -> EvalReport:
    """One report row: rank correlation over covered phrases, AUC and
    accuracy over the sign-labeled (nonzero-mean) subset, coverage over
    the whole gold set."""
    covered = [g for g in gold if g.phrase_id in predictions]
    if not covered:
        raise DegenerateDataError(
            f"method {method_name!r} covers no gold phrase; nothing to evaluate"
        )
    cov_frac, cov_n = coverage(predictions, gold)
    rho = spearman(
        [predictions[g.phrase_id] for g in covered],
        [g.mean_score for g in covered],
    )
    labeled = [g for g in covered if g.mean_score != 0.0]
    auc = roc_auc(
        [predictions[g.phrase_id] for g in labeled],
        [g.mean_score > 0 for g in labeled],
    )
    acc = sign_accuracy(predictions, gold)
    return EvalReport(
        method_name=method_name,
        spearman=rho,
        auc=auc,
        accuracy=acc,
        coverage_pct=100.0 * cov_frac,
        coverage_n=cov_n,
    )


def sanity_proportions(
    records: Iterable[tuple[str, Sequence[Sequence[str]]]],
    probes: Sequence[Sequence[str]],
    lexicon: NameGenderLexicon,
    seed: int = 0,
) -> list[SanityRow]:
    """Per-probe share of male vs female users mentioning the probe.

    Each record is ``(author_name, [lemmas per sentence])``, as
    ``corpus_io._scan_tweets`` yields it.  Users are keyed by the
    verbatim author-name field and gendered by first name; the sample is
    balanced by keeping every user of the minority gender plus a seeded
    uniform subsample of the majority of equal size.  A user mentions a
    probe when any of their records matches it (same gap-tolerant
    matching as scoring; single-lemma probes reduce to lemma presence).
    Probes nobody in the sample mentions are dropped with a warning.
    """
    probe_specs: list[tuple[str, tuple[str, ...]]] = []
    seen_texts: set[str] = set()
    for probe in probes:
        lemmas = tuple(probe)
        if not lemmas:
            raise ValueError("empty probe phrase")
        text = " ".join(lemmas)
        if text not in seen_texts:
            seen_texts.add(text)
            probe_specs.append((text, lemmas))
    multi = [
        ActionPhrase(lemmas=lemmas, source_id=text)
        for text, lemmas in probe_specs
        if len(lemmas) >= 2
    ]
    automaton = compile_phrases(multi)
    texts = [phrase.source_id for phrase in multi]  # the probe text of each phrase index
    singles = [(text, lemmas[0]) for text, lemmas in probe_specs if len(lemmas) == 1]

    genders: dict[str, Gender] = {}
    mentions: dict[str, set[str]] = {}  # only users who mention a probe
    for user, sentences in records:
        gender = guess_gender(_first_name(user), lexicon)
        if gender is Gender.UNKNOWN:
            continue
        genders[user] = gender
        hit = {
            texts[pidx] for lemmas in sentences for pidx, _, _ in _match_ids(automaton, lemmas)
        }
        if singles:
            present = {lemma for lemmas in sentences for lemma in lemmas}
            hit.update(text for text, lemma in singles if lemma in present)
        if hit:
            mentions.setdefault(user, set()).update(hit)

    males = sorted(u for u, g in genders.items() if g is Gender.MALE)
    females = sorted(u for u, g in genders.items() if g is Gender.FEMALE)
    if not males or not females:
        raise DegenerateDataError(
            "balanced sample needs at least one identifiable user of each gender"
        )
    rng = random.Random(seed)
    if len(males) <= len(females):
        sampled_m = set(males)
        sampled_f = set(rng.sample(females, len(males)))
    else:
        sampled_f = set(females)
        sampled_m = set(rng.sample(males, len(females)))

    male_users = Counter(text for u in sampled_m for text in mentions.get(u, ()))
    female_users = Counter(text for u in sampled_f for text in mentions.get(u, ()))
    rows: list[SanityRow] = []
    for text, _ in probe_specs:
        male_n = male_users[text]
        female_n = female_users[text]
        total = male_n + female_n
        if total == 0:
            warnings.warn(
                f"probe {text!r} mentioned by no sampled user; row omitted",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        male_pct = 100.0 * male_n / total
        rows.append(
            SanityRow(
                phrase_text=text,
                male_pct=male_pct,
                female_pct=100.0 - male_pct,
                male_users=male_n,
                female_users=female_n,
            )
        )
    return rows


GOLD_COLUMNS = ("phrase_id", "phrase_text", "mean_score", "n_raters")
EVAL_REPORT_COLUMNS = ("method", "spearman", "auc", "accuracy", "coverage_pct", "coverage_n")
SCATTER_COLUMNS = ("phrase_text", "z_corpusA", "z_corpusB", "gold_mean", "quadrant")
SANITY_COLUMNS = ("phrase", "male_pct", "female_pct")


def format_gold(entries: Iterable[GoldRating]) -> str:
    rows = ((g.phrase_id, g.text, g.mean_score, g.n_raters) for g in entries)
    return format_rows(GOLD_COLUMNS, sorted(rows, key=lambda row: row[0]))


def parse_gold(lines: Iterable[str], path=None) -> list[GoldRating]:
    out: list[GoldRating] = []
    for line_no, (pid, text, mean_s, n_s) in read_rows(lines, path, GOLD_COLUMNS):
        try:
            entry = GoldRating(
                phrase_id=pid, mean_score=float(mean_s), n_raters=int(n_s), text=text
            )
        except ValueError as exc:
            raise CorpusFormatError(str(exc), line_no=line_no, path=path) from None
        out.append(entry)
    return out


def load_gold(path) -> list[GoldRating]:
    with open_text(path) as fh:
        return parse_gold(fh, path=path)


def format_eval_reports(reports: Iterable[EvalReport]) -> str:
    """Rows keep caller order: single-method runs have one row, paired
    runs list corpus A, corpus B, combined, matching-signs."""
    return format_rows(
        EVAL_REPORT_COLUMNS,
        (
            (r.method_name, r.spearman, r.auc, r.accuracy, r.coverage_pct, r.coverage_n)
            for r in reports
        ),
    )


def _quadrant(x: float, y: float) -> int:
    """Mathematical quadrant of (x, y); 0 for points on an axis."""
    if x == 0.0 or y == 0.0:
        return 0
    if x > 0:
        return 1 if y > 0 else 4
    return 2 if y > 0 else 3


def format_scatter(
    z_a: Mapping[str, float],
    z_b: Mapping[str, float],
    gold: Sequence[GoldRating],
    phrase_texts: Mapping[str, str],
) -> str:
    """Two-corpus scatter rows over phrases scored in both corpora and
    present in the gold set, sorted by phrase id."""
    gold_by_id = {g.phrase_id: g for g in gold}
    rows = []
    for pid in sorted(z_a.keys() & z_b.keys() & gold_by_id.keys()):
        xa, xb, g = z_a[pid], z_b[pid], gold_by_id[pid]
        text = phrase_texts.get(pid) or g.text or pid
        rows.append((text, xa, xb, g.mean_score, _quadrant(xa, xb)))
    return format_rows(SCATTER_COLUMNS, rows)


def format_sanity_table(rows: Iterable[SanityRow], seed: int) -> str:
    return f"# seed={seed}\n" + format_rows(
        SANITY_COLUMNS, ((r.phrase_text, r.male_pct, r.female_pct) for r in rows)
    )
