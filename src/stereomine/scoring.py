"""Per-phrase gender counts and bias scores.

The bias score standardizes a phrase's male count against a binomial
null: with n = m + f occurrences and p the corpus-wide male proportion,

    s = (m - n*p) / sqrt(n * p * (1 - p))

so a masculine lean scores positive and a feminine lean negative.  The
implementation uses the algebraically identical form
``(m*F - f*M) / sqrt(n*M*F)``, whose integer numerator makes the score
negate exactly under a global m/f swap.

Counts form a commutative monoid under componentwise addition, which is
what makes partitioned corpus runs mergeable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .attribution import GenderedOccurrence
from .errors import CorpusFormatError, DegenerateDataError, format_rows, read_rows
from .lexicons import Gender


@dataclass(frozen=True, slots=True)
class GenderedCount:
    phrase_id: str
    m: int = 0
    f: int = 0

    @property
    def n(self) -> int:
        return self.m + self.f

    def merge(self, other: "GenderedCount") -> "GenderedCount":
        if other.phrase_id != self.phrase_id:
            raise ValueError("cannot merge counts of different phrases")
        return GenderedCount(phrase_id=self.phrase_id, m=self.m + other.m, f=self.f + other.f)


@dataclass(frozen=True)
class ScoringContext:
    """Corpus-wide occurrence totals; p = M / N is the male baseline."""

    M: int
    F: int

    @property
    def N(self) -> int:
        return self.M + self.F

    @property
    def p(self) -> float:
        if self.N == 0:
            raise DegenerateDataError("scoring context is empty (no occurrences)")
        return self.M / self.N

    @property
    def degenerate(self) -> bool:
        return self.M == 0 or self.F == 0


@dataclass(frozen=True)
class BiasScore:
    phrase_id: str
    m: int
    f: int
    raw: float
    s: float
    z: float | None = None

    @property
    def n(self) -> int:
        return self.m + self.f


def aggregate(
    occurrences: Iterable[GenderedOccurrence], dedup_per_record: bool = False
) -> tuple[dict[str, GenderedCount], ScoringContext]:
    """Tally occurrences into per-phrase counts plus corpus totals.

    With ``dedup_per_record`` each phrase is counted at most once per
    record_id (the first occurrence in stream order wins).  An empty
    stream yields an empty map and a context that normalization will
    refuse as degenerate.
    """
    counts: dict[str, list[int]] = {}
    seen: set[tuple[str, str]] = set()
    M = 0
    F = 0
    for occ in occurrences:
        if dedup_per_record:
            key = (occ.phrase_id, occ.record_id)
            if key in seen:
                continue
            seen.add(key)
        mf = counts.setdefault(occ.phrase_id, [0, 0])
        if occ.gender is Gender.MALE:
            mf[0] += 1
            M += 1
        else:
            mf[1] += 1
            F += 1
    out = {
        pid: GenderedCount(phrase_id=pid, m=mf[0], f=mf[1]) for pid, mf in counts.items()
    }
    return out, ScoringContext(M=M, F=F)


def merge_counts(
    partials: Iterable[Mapping[str, GenderedCount]]
) -> tuple[dict[str, GenderedCount], ScoringContext]:
    """Monoid merge of partial tallies; order of partials is irrelevant."""
    merged: dict[str, GenderedCount] = {}
    for partial in partials:
        for pid, count in partial.items():
            if pid in merged:
                merged[pid] = merged[pid].merge(count)
            else:
                merged[pid] = count
    M = sum(c.m for c in merged.values())
    F = sum(c.f for c in merged.values())
    return merged, ScoringContext(M=M, F=F)


def normalized_bias(count: GenderedCount, ctx: ScoringContext) -> float:
    """Binomial standardization of the male count.

    Equals (m - n*p) / sqrt(n*p*(1-p)) with p = M/N; computed as
    (m*F - f*M) / sqrt(n*M*F) so the m<->f, M<->F swap negates it
    exactly.
    """
    n = count.n
    if n == 0:
        raise DegenerateDataError(f"phrase {count.phrase_id!r} has no occurrences to score")
    if ctx.degenerate:
        side = "male" if ctx.F == 0 else "female"
        raise DegenerateDataError(
            f"degenerate scoring context: every attributed occurrence is {side} "
            f"(M={ctx.M}, F={ctx.F}), so the binomial baseline is undefined"
        )
    return (count.m * ctx.F - count.f * ctx.M) / math.sqrt(n * ctx.M * ctx.F)


def score_counts(
    counts: Mapping[str, GenderedCount],
    ctx: ScoringContext,
    min_occurrences: int = 1,
) -> list[BiasScore]:
    """Score every phrase with at least ``min_occurrences`` occurrences
    and z-score the survivors; output sorted by phrase_id.

    When z is undefined (fewer than two scored phrases, or all sharing
    one s value) the z column is left empty instead of failing the run.
    """
    scored = [
        (pid, counts[pid])
        for pid in sorted(counts)
        if counts[pid].n >= max(1, min_occurrences)
    ]
    if not scored:
        return []
    svals = [normalized_bias(count, ctx) for _, count in scored]
    zmap: dict[str, float | None]
    try:
        zmap = dict(zscore_population([(pid, s) for (pid, _), s in zip(scored, svals)]))
    except DegenerateDataError:
        zmap = {pid: None for pid, _ in scored}
    return [
        BiasScore(
            phrase_id=pid,
            m=count.m,
            f=count.f,
            raw=count.m / count.n,
            s=s,
            z=zmap[pid],
        )
        for (pid, count), s in zip(scored, svals)
    ]


def zscore_population(scores: list[tuple[str, float]]) -> list[tuple[str, float]]:
    """Standardize to mean 0, population (divide-by-N) sd 1."""
    if len(scores) < 2:
        raise DegenerateDataError("z-scoring needs at least 2 scores")
    values = [s for _, s in scores]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    if var == 0.0:
        raise DegenerateDataError("z-scoring undefined: all scores are identical")
    sd = math.sqrt(var)
    return [(pid, (v - mean) / sd) for (pid, v) in scores]


def combine_average(a: Mapping[str, float], b: Mapping[str, float]) -> dict[str, float]:
    """Average two z-scored sets over their shared phrases."""
    return {pid: (a[pid] + b[pid]) / 2.0 for pid in a.keys() & b.keys()}


def matching_signs_filter(
    a: Mapping[str, float], b: Mapping[str, float]
) -> dict[str, float]:
    """Keep the combined average only where both inputs agree in sign.

    Exact zeros carry no sign and are excluded.
    """
    out = {}
    for pid in a.keys() & b.keys():
        za, zb = a[pid], b[pid]
        if za == 0.0 or zb == 0.0:
            continue
        if (za > 0) == (zb > 0):
            out[pid] = (za + zb) / 2.0
    return out


COUNTS_COLUMNS = ("phrase_id", "phrase_text", "m", "f")
SCORE_COLUMNS = (*COUNTS_COLUMNS, "raw", "s", "z")


def format_counts_table(
    counts: Mapping[str, GenderedCount], phrase_texts: Mapping[str, str]
) -> str:
    """Render raw per-phrase counts, the mergeable partition artifact."""
    return format_rows(
        COUNTS_COLUMNS,
        ((pid, phrase_texts.get(pid, ""), c.m, c.f) for pid, c in sorted(counts.items())),
    )


def _tallies(pid: str, m_s: str, f_s: str, seen, line_no: int, path) -> tuple[int, int]:
    """The ``m`` and ``f`` fields of a counts or score table row, which
    must be non-negative ints, in a row whose phrase_id is not in
    ``seen``."""
    try:
        m, f = int(m_s), int(f_s)
    except ValueError as exc:
        raise CorpusFormatError(f"bad count: {exc}", line_no=line_no, path=path) from None
    if m < 0 or f < 0:
        raise CorpusFormatError(f"negative count {min(m, f)}", line_no=line_no, path=path)
    if pid in seen:
        raise CorpusFormatError(f"duplicate phrase_id {pid!r}", line_no=line_no, path=path)
    return m, f


def _finite(column: str, text: str, line_no: int, path) -> float:
    """A float field of a score table, which must be finite."""
    try:
        value = float(text)
    except ValueError:
        raise CorpusFormatError(f"bad {column} {text!r}", line_no=line_no, path=path) from None
    if not math.isfinite(value):
        raise CorpusFormatError(f"non-finite {column} {text!r}", line_no=line_no, path=path)
    return value


def parse_counts_table(
    lines: Iterable[str], path=None
) -> tuple[dict[str, GenderedCount], dict[str, str]]:
    counts: dict[str, GenderedCount] = {}
    texts: dict[str, str] = {}
    for line_no, (pid, text, m_s, f_s) in read_rows(lines, path, COUNTS_COLUMNS):
        m, f = _tallies(pid, m_s, f_s, counts, line_no, path)
        counts[pid] = GenderedCount(phrase_id=pid, m=m, f=f)
        texts[pid] = text
    return counts, texts


def format_score_table(
    scores: Iterable[BiasScore], phrase_texts: Mapping[str, str]
) -> str:
    """Render scores as a TSV with one comment header line.

    Floats are written with repr-quality precision (str of the float) so
    a read/write round trip is value-exact.
    """
    rows = (
        (s.phrase_id, phrase_texts[s.phrase_id], s.m, s.f, s.raw, s.s, "" if s.z is None else s.z)
        for s in sorted(scores, key=lambda s: s.phrase_id)
    )
    return format_rows(SCORE_COLUMNS, rows)


def parse_score_table(
    lines: Iterable[str], path=None
) -> tuple[list[BiasScore], dict[str, str]]:
    """Inverse of format_score_table; returns (scores, phrase_id -> text)."""
    scores: list[BiasScore] = []
    texts: dict[str, str] = {}
    for line_no, (pid, text, m_s, f_s, raw_s, s_s, z_s) in read_rows(lines, path, SCORE_COLUMNS):
        m, f = _tallies(pid, m_s, f_s, texts, line_no, path)
        raw = _finite("raw", raw_s, line_no, path)
        s = _finite("s", s_s, line_no, path)
        z = _finite("z", z_s, line_no, path) if z_s else None
        scores.append(BiasScore(phrase_id=pid, m=m, f=f, raw=raw, s=s, z=z))
        texts[pid] = text
    return scores, texts
