"""Seeded inputs with planted gender leanings, and what they must produce.

Every input the benchmark feeds to ``stereomine`` is written here from
the workload seed: the lexicon inputs (concepts, tag counts, name
lists), the lexicon directory that ``score`` reads, the tweet and
vertical corpora, the two score tables and the raw ratings.  Beside
them goes ``expect.json``, computed from what was planted and from
independent re-statements of the documented rules, never by running
``stereomine``.

Planted phrases can only match where they were planted:

* first lemmas of actions (``vb...``) and later lemmas (``ob...``) are
  disjoint, and fillers, pronouns and names use neither;
* two actions sharing a verb share no later lemma, so a realisation of
  one action never completes another;
* units are separated by at least two non-phrase tokens, and a match
  can skip at most one token between lemmas.

So each planted realisation with 0/1-token gaps is exactly one match,
and the near misses (a 2-token gap, or a phrase cut by a sentence end)
and decoys (lone phrase lemmas, a verb followed by another verb's
object) are none.  ``tests/test_perfbench.py`` checks this against the
package's brute-force oracle.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

LETTERS = "abcdefghijklmnopqrstuvwxyz"

# Fine tags that the shipped tag map sends to VERB.
VERB_TAGS = frozenset(
    "VERB VB VBD VBG VBN VBP VBZ VV VVD VVG VVN VVP VVZ VH VHD VHG VHN VHP VHZ".split()
)
DOMINANCE_RATIO = 2.0
MAX_NONENGLISH_RATIO = 0.20

MALE_PRONOUNS = ("he", "him", "his", "himself")
FEMALE_PRONOUNS = ("she", "her", "hers", "herself")
NEUTRAL_PRONOUNS = ("i", "you", "it", "we", "they", "me", "them", "us")
FILLER_TAGS = ("NN", "NN", "NN", "JJ", "DT", "IN", "RB", "CC", "VVD")

ACTIONS_HEADER = "# phrase_id\tphrase_text"
COUNTS_HEADER = "# phrase_id\tphrase_text\tm\tf"
SCORES_HEADER = "# phrase_id\tphrase_text\tm\tf\traw\ts\tz"


@dataclass(frozen=True)
class Sizes:
    actions: int = 21442
    verbs: int = 1600
    objects: int = 9000
    near_verbs: int = 80  # verb total exactly ratio+1 over the noun count
    near_nonverbs: int = 300  # verb total exactly ratio times the noun count
    modals: int = 40
    extra_concepts: int = 18000
    fillers: int = 20000
    foreign: int = 3000
    names: int = 4000
    shared_names: int = 300
    unlisted_names: int = 1500
    tweet_records: int = 200000
    tweet_planted: int = 3000
    tweet_plant_rate: float = 0.45
    documents: int = 7000
    document_planted: int = 2500
    gold: int = 441
    gold_off_table: int = 5


PAPER = Sizes()
TINY = Sizes(
    actions=400,
    verbs=40,
    objects=500,
    near_verbs=4,
    near_nonverbs=10,
    modals=3,
    extra_concepts=200,
    fillers=300,
    foreign=50,
    names=60,
    shared_names=8,
    unlisted_names=20,
    tweet_records=400,
    tweet_planted=120,
    documents=40,
    document_planted=100,
    gold=60,
    gold_off_table=3,
)


def word(prefix: str, i: int) -> str:
    """The i-th alphabetic word of a class; classes differ by prefix."""
    s = ""
    while True:
        i, r = divmod(i, 26)
        s = LETTERS[r] + s
        if i == 0:
            return prefix + s


def zipf_cum(n: int, exponent: float = 1.0, offset: float = 1.0) -> list[float]:
    return list(accumulate(1.0 / (r + offset) ** exponent for r in range(n)))


def pick(rng: random.Random, items, cum):
    return items[bisect(cum, rng.random() * cum[-1])]


# --- lexicon inputs -----------------------------------------------------------


@dataclass
class Lexicon:
    concepts: list[tuple[str, str]]
    tag_rows: list[tuple[str, str, int]]
    male_rows: list[tuple[str, int]]
    female_rows: list[tuple[str, int]]
    actions: list[tuple[str, tuple[str, ...]]]  # in concept order
    objects_of: dict[str, set[str]]
    objects: list[str]
    male: list[str]  # kept, lowercased
    female: list[str]
    shared: list[str]
    unlisted: list[str]


def make_lexicon(seed: int, sizes: Sizes) -> Lexicon:
    rng = random.Random(f"lexicon:{seed}")
    verbs = [word("vb", i) for i in range(sizes.verbs)]
    objects = [word("ob", i) for i in range(sizes.objects)]
    verb_cum = zipf_cum(len(verbs), offset=10.0)
    objects_of: dict[str, set[str]] = {v: set() for v in verbs}
    action_lemmas: list[tuple[str, ...]] = []
    for _ in range(sizes.actions):
        verb = pick(rng, verbs, verb_cum)
        used = objects_of[verb]
        k = rng.choices((2, 3, 4), weights=(6, 3, 1))[0]
        objs: list[str] = []
        while len(objs) < k - 1:
            obj = rng.choice(objects)
            if obj not in used and obj not in objs:
                objs.append(obj)
        used.update(objs)
        action_lemmas.append((verb, *objs))

    near_nonverbs = [word("nt", i) for i in range(sizes.near_nonverbs)]
    modals = [word("md", i) for i in range(sizes.modals)]
    extras: list[str] = []
    for i in range(sizes.extra_concepts):
        kind = i % 5
        if kind == 0:
            extras.append(rng.choice(verbs))  # single word: never an action
        elif kind == 1:
            extras.append(rng.choice(near_nonverbs) + " " + rng.choice(objects))
        elif kind == 2 and modals:
            extras.append(rng.choice(modals) + " " + rng.choice(objects))
        else:
            extras.append(" ".join(rng.sample(objects, rng.choice((2, 2, 3)))))

    texts: list[tuple[str, tuple[str, ...] | None]] = []
    for lemmas in action_lemmas:
        text = " ".join(lemmas)
        roll = rng.random()
        if roll < 0.03:
            text = text.title()
        elif roll < 0.05:
            text = text.replace(" ", "  ", 1)
        texts.append((text, lemmas))
    texts.extend((t, None) for t in extras)
    rng.shuffle(texts)
    ids = rng.sample(range(len(texts)), len(texts))
    concepts = [(f"c{ids[i]:06d}", text) for i, (text, _) in enumerate(texts)]
    actions = [
        (concepts[i][0], lemmas) for i, (_, lemmas) in enumerate(texts) if lemmas is not None
    ]

    tag_rows: list[tuple[str, str, int]] = []
    near_pass = set(rng.sample(verbs, min(sizes.near_verbs, len(verbs))))

    def add_lemma(lemma: str, verb_total: int, nonverb: list[tuple[str, int]]):
        written = lemma.title() if rng.random() < 0.02 else lemma
        if verb_total:
            tags = rng.sample(("VV", "VVD", "VVZ", "VVG", "VB", "VBD"), rng.randint(1, 3))
            cuts = sorted(rng.randint(0, verb_total) for _ in tags[1:])
            parts = [b - a for a, b in zip([0, *cuts], [*cuts, verb_total])]
            for tag, count in zip(tags, parts):
                if count and rng.random() < 0.03:
                    half = count // 2
                    tag_rows.append((written, tag, half))
                    tag_rows.append((lemma, tag, count - half))
                else:
                    tag_rows.append((written, tag, count))
        for tag, count in nonverb:
            tag_rows.append((written, tag, count))

    for v in verbs:
        noun = rng.randint(1, 400)
        if v in near_pass:
            add_lemma(v, int(DOMINANCE_RATIO * noun) + 1, [("NN", noun), ("JJ", noun // 2)])
        else:
            add_lemma(v, rng.randint(int(DOMINANCE_RATIO * noun) + 1, 5000), [("NN", noun)])
    for lemma in near_nonverbs:
        noun = rng.randint(1, 400)
        add_lemma(lemma, int(DOMINANCE_RATIO * noun), [("NN", noun), ("JJ", 1)])
    for lemma in modals:
        add_lemma(lemma, 0, [("MD", rng.randint(10, 900))])
    for obj in objects:
        noun = rng.randint(5, 900)
        add_lemma(obj, rng.randint(0, int(DOMINANCE_RATIO * noun)), [("NN", noun)])
    rng.shuffle(tag_rows)

    male = [word("nm", i) for i in range(sizes.names)]
    female = [word("nf", i) for i in range(sizes.names)]
    shared = [word("ns", i) for i in range(sizes.shared_names)]
    unlisted = [word("nu", i) for i in range(sizes.unlisted_names)]

    def name_rows(names):
        rows = [(n.title() if rng.random() < 0.3 else n, rng.randint(5, 9000)) for n in names]
        rng.shuffle(rows)
        return rows

    return Lexicon(
        concepts=concepts,
        tag_rows=tag_rows,
        male_rows=name_rows(male + shared),
        female_rows=name_rows(female + shared),
        actions=actions,
        objects_of=objects_of,
        objects=objects,
        male=male,
        female=female,
        shared=shared,
        unlisted=unlisted,
    )


def expect_lexicons(lex_concepts, tag_rows, male_rows, female_rows) -> dict:
    """build-lexicons outputs, from the documented rules."""
    per_lemma: dict[str, dict[str, int]] = {}
    for lemma, tag, count in tag_rows:
        d = per_lemma.setdefault(lemma.lower(), {})
        d[tag] = d.get(tag, 0) + count
    verbs = set()
    for lemma, d in per_lemma.items():
        verb_total = sum(c for t, c in d.items() if t in VERB_TAGS)
        nonverb_max = max([c for t, c in d.items() if t not in VERB_TAGS], default=0)
        if verb_total > 0 and verb_total > DOMINANCE_RATIO * nonverb_max:
            verbs.add(lemma)
    actions = []
    for cid, text in lex_concepts:
        lemmas = text.lower().split()
        if len(lemmas) >= 2 and lemmas[0] in verbs:
            actions.append([cid, " ".join(lemmas)])
    male_in = {n.lower() for n, _ in male_rows}
    female_in = {n.lower() for n, _ in female_rows}
    shared = male_in & female_in
    male, female = sorted(male_in - shared), sorted(female_in - shared)
    return {
        "actions": actions,
        "verbs": sorted(verbs),
        "male": male,
        "female": female,
        "manifest": [
            ["male_names_in", len(male_in)],
            ["female_names_in", len(female_in)],
            ["name_conflicts_dropped", len(shared)],
            ["male_names_kept", len(male)],
            ["female_names_kept", len(female)],
            ["lemmas_in_tag_counts", len(per_lemma)],
            ["verbs_in_lexicon", len(verbs)],
            ["concepts_in", len(lex_concepts)],
            ["actions_out", len(actions)],
        ],
    }


def write_lexicon_inputs(d: Path, concepts, tag_rows, male_rows, female_rows) -> None:
    write_lines(d / "concepts.tsv", (f"{cid}\t{text}" for cid, text in concepts))
    write_lines(
        d / "tag_counts.tsv",
        ["# lemma\tfine_pos\tcount"] + [f"{l}\t{t}\t{c}" for l, t, c in tag_rows],
    )
    write_lines(d / "names_male.txt", (f"{n}\t{c}" for n, c in male_rows))
    write_lines(d / "names_female.txt", (f"{n}\t{c}" for n, c in female_rows))


def write_lexicon_dir(d: Path, lex: Lexicon) -> None:
    """What ``score`` reads: the actions as build-lexicons writes them,
    and the raw name lists, so ``score`` itself drops the shared names."""
    d.mkdir(parents=True, exist_ok=True)
    write_lines(
        d / "actions.tsv",
        [ACTIONS_HEADER] + [f"{cid}\t{' '.join(l)}" for cid, l in lex.actions],
    )
    write_lines(d / "names_male.txt", (f"{n}\t{c}" for n, c in lex.male_rows))
    write_lines(d / "names_female.txt", (f"{n}\t{c}" for n, c in lex.female_rows))


# --- corpora --------------------------------------------------------------------


class Planter:
    """Draws the units a sentence is made of and records each planted match.

    A unit is a list of (surface, fine_tag, lemma, role) tokens; role is
    ``"fill"`` for fillers, ``("match", pid)`` on the first token of a
    planted realisation, ``("cand", kind)`` on a pronoun or name that
    context attribution stops at, and None otherwise.
    """

    def __init__(self, rng: random.Random, lex: Lexicon, sizes: Sizes, planted: int, tag: str):
        self.rng = rng
        self.lex = lex
        self.fillers = [word("fi", i) for i in range(sizes.fillers)]
        self.filler_tags = [FILLER_TAGS[i % len(FILLER_TAGS)] for i in range(sizes.fillers)]
        self.filler_cum = zipf_cum(sizes.fillers, exponent=1.05)
        self.foreign = [word("zq", i) for i in range(sizes.foreign)]
        prng = random.Random(f"plants:{tag}:{rng.random()}")
        chosen = prng.sample(lex.actions, min(planted, len(lex.actions)))
        self.plants = chosen
        # male share of each planted phrase
        self.lean = {cid: prng.choice((0.8, 0.8, 0.2, 0.2, 0.5, 0.65, 0.35)) for cid, _ in chosen}
        weights = [1.0 / (r + 3) for r in range(len(chosen))]
        self.cum = {
            "m": list(accumulate(w * self.lean[c] for w, (c, _) in zip(weights, chosen))),
            "f": list(accumulate(w * (1 - self.lean[c]) for w, (c, _) in zip(weights, chosen))),
            "u": list(accumulate(weights)),
        }
        self.verbs = sorted({l[0] for _, l in lex.actions})

    def filler(self) -> tuple:
        i = bisect(self.filler_cum, self.rng.random() * self.filler_cum[-1])
        w = self.fillers[i]
        return (w, self.filler_tags[i], w, "fill")

    def fillers_n(self, n: int) -> list[tuple]:
        return [self.filler() for _ in range(n)]

    def phrase_for(self, gender: str):
        return pick(self.rng, self.plants, self.cum[gender])

    def realise(self, cid: str, lemmas: tuple[str, ...], wide_gap: int = 0) -> list[tuple]:
        """The lemmas with 0/1 filler tokens between them.  A nonzero
        ``wide_gap`` puts two fillers before that lemma instead, so the
        phrase must not match there."""
        rng = self.rng
        out = []
        for j, lemma in enumerate(lemmas):
            if j:
                out.extend(self.fillers_n(2 if j == wide_gap else rng.random() < 0.4))
            tag = ("VV", "VVD", "VVZ")[rng.randrange(3)] if j == 0 else "NN"
            surface = lemma.title() if rng.random() < 0.02 else lemma
            written = lemma.upper() if rng.random() < 0.01 else lemma
            role = ("match", cid) if j == 0 and not wide_gap else None
            out.append((surface, tag, written, role))
        return out

    def near_miss(self) -> list[tuple]:
        cid, lemmas = self.rng.choice(self.plants)
        return self.realise(cid, lemmas, wide_gap=self.rng.randrange(1, len(lemmas)))

    def decoy(self) -> list[tuple]:
        rng = self.rng
        roll = rng.random()
        if roll < 0.4:
            obj = rng.choice(self.lex.objects)
            return [(obj, "NN", obj, None)]
        verb = rng.choice(self.verbs)
        if roll < 0.7:
            return [(verb, "VV", verb, None)]
        own = self.lex.objects_of.get(verb, set())
        while True:
            obj = rng.choice(self.lex.objects)
            if obj not in own:
                break
        mid = self.fillers_n(rng.random() < 0.5)
        return [(verb, "VV", verb, None), *mid, (obj, "NN", obj, None)]


def planted_matches(tokens: list[tuple], lemmas_of) -> list[tuple[str, int, int]]:
    """(pid, start, end) of every planted realisation in one sentence;
    the end follows the realisation's lemmas, which occur once each."""
    out = []
    for start, tok in enumerate(tokens):
        role = tok[3]
        if type(role) is tuple and role[0] == "match":
            need = lemmas_of[role[1]]
            pos, j = start, 1
            while j < len(need):
                pos += 1
                if tokens[pos][2].lower() == need[j]:
                    j += 1
            out.append((role[1], start, pos + 1))
    return out


@dataclass
class CorpusExpect:
    counts: dict[str, list[int]] = field(default_factory=dict)
    manifest: dict[str, int] = field(default_factory=dict)
    sentences: list[list[tuple[str, int, int]]] | None = None  # per sentence, when kept

    def bump(self, key: str, by: int = 1) -> None:
        self.manifest[key] = self.manifest.get(key, 0) + by

    def count(self, pid: str, gender: str) -> None:
        mf = self.counts.setdefault(pid, [0, 0])
        mf[0 if gender == "m" else 1] += 1


def tweet_corpus(
    planter: Planter,
    n_records: int,
    plant_rate: float,
    categories: str | None = None,
    keep_sentences: bool = False,
) -> tuple[list[str], CorpusExpect]:
    """Tweet lines and their expected per-phrase counts and manifest.

    ``categories`` fixes the author category of each record in turn
    (``m``/``f`` listed, ``s`` on both lists, ``n`` on neither) and
    opens each record with a distinct planted phrase; by default the
    category is drawn.
    """
    rng = planter.rng
    lex = planter.lex
    pools = {"m": lex.male, "f": lex.female, "s": lex.shared, "n": lex.unlisted}
    lemmas_of = dict(lex.actions)
    exp = CorpusExpect(sentences=[] if keep_sentences else None)
    for key in ("records_read", "records_failed_english_filter", "records_kept",
                "records_author_unknown", "matches_total", "occurrences_attributed"):
        exp.manifest[key] = 0
    lines = []
    forced = rng.sample(planter.plants, len(categories)) if categories else None
    for r in range(n_records):
        if categories:
            cat = categories[r % len(categories)]
        else:
            roll = rng.random()
            cat = "m" if roll < 0.42 else "f" if roll < 0.80 else "n" if roll < 0.92 else "s"
        first = rng.choice(pools[cat])
        author = first.title() + " " + word("Ln", rng.randrange(5000)).title() if rng.random() < 0.9 else first.title()
        gender = cat if cat in "mf" else "u"
        english = categories is not None or rng.random() >= 0.08
        n_sent = 1 + (rng.random() < 0.3) + (rng.random() < 0.08)
        sentences: list[list[tuple]] = []
        carry: list[tuple] = []  # the tail of a phrase cut by a sentence end
        for s in range(n_sent):
            toks: list[tuple] = carry + planter.fillers_n(rng.randint(2, 4))
            carry = []
            units = rng.randint(1, 2)
            for u in range(units):
                roll = rng.random()
                if forced and s == 0 and u == 0:
                    cid, lemmas = forced[r % len(forced)]
                    toks += planter.realise(cid, lemmas)
                elif roll < plant_rate:
                    cid, lemmas = planter.phrase_for(gender)
                    toks += planter.realise(cid, lemmas)
                elif roll < plant_rate + 0.08:
                    toks += planter.near_miss()
                else:
                    toks += planter.decoy()
                toks += planter.fillers_n(rng.randint(2, 4))
            if s < n_sent - 1 and rng.random() < 0.15:
                # a phrase cut by the sentence end: no match either side
                _, lemmas = rng.choice(planter.plants)
                cut = rng.randrange(1, len(lemmas))
                toks += [(l, "NN", l, None) for l in lemmas[:cut]]
                carry = [(l, "NN", l, None) for l in lemmas[cut:]] + planter.fillers_n(2)
            sentences.append(toks)
        if not english:
            for toks in sentences:
                for i in range(len(toks)):
                    if toks[i][3] == "fill" and rng.random() < 0.5:
                        w = rng.choice(planter.foreign)
                        toks[i] = (w, "FW", w, None)
        if rng.random() < 0.1:
            sentences[-1].append(("#" + sentences[-1][0][2], "NN", "#" + sentences[-1][0][2], None))
        if rng.random() < 0.05:
            sentences[0].insert(0, (":)", "SYM", ":)", None))

        alpha = unknown = 0
        for toks in sentences:
            for surface, _, _, _ in toks:
                if surface.isalpha():
                    alpha += 1
                    unknown += surface.startswith("zq")
        passes = alpha == 0 or unknown / alpha <= MAX_NONENGLISH_RATIO
        chunks = []
        matched = []
        for i, toks in enumerate(sentences):
            if i:
                chunks.append("</s>")
            chunks.extend(f"{s}|{t}|{l}" for s, t, l, _ in toks)
            found = planted_matches(toks, lemmas_of)
            matched.extend(found)
            if exp.sentences is not None:
                exp.sentences.append(found)
        lines.append(f"t{r:07d}\t{author}\t{' '.join(chunks)}")

        exp.bump("records_read")
        if not passes:
            exp.bump("records_failed_english_filter")
            continue
        exp.bump("records_kept")
        if gender == "u":
            exp.bump("records_author_unknown")
        exp.bump("matches_total", len(matched))
        if gender != "u":
            exp.bump("occurrences_attributed", len(matched))
            for pid, _, _ in matched:
                exp.count(pid, gender)
    return lines, exp


def document_corpus(
    planter: Planter,
    n_docs: int,
    pronouns: dict[str, str],
    forced: bool = False,
    keep_sentences: bool = False,
) -> tuple[list[str], CorpusExpect]:
    """Vertical lines and their expected counts (deduplicated per
    document) and manifest.  ``forced`` makes every unit a plant with a
    gendered pronoun right before it, alternating genders, and plants a
    distinct phrase each time, so dedup keeps both genders."""
    rng = planter.rng
    lex = planter.lex
    lemmas_of = dict(lex.actions)
    male, female = set(lex.male), set(lex.female)
    exp = CorpusExpect(sentences=[] if keep_sentences else None)
    for key in ("records_read", "sentences_read", "matches_total", "matches_unattributed",
                "occurrences_attributed"):
        exp.manifest[key] = 0
    lines: list[str] = []
    flip = 0
    distinct = iter(rng.sample(planter.plants, 4 * n_docs)) if forced else None
    for d in range(n_docs):
        lines.append(f"#doc d{d:06d}")
        pool = [planter.phrase_for("u") for _ in range(rng.randint(2, 5))]
        seen: set[str] = set()
        exp.bump("records_read")
        for _ in range(2 if forced else rng.randint(3, 6)):
            toks: list[tuple] = planter.fillers_n(rng.randint(0, 3))
            for _ in range(2 if forced else rng.randint(4, 8)):
                roll = rng.random()
                if forced or roll < 0.6:
                    if forced:
                        cid, lemmas = next(distinct)
                        flip += 1
                        want = "m" if flip % 2 else "f"
                    else:
                        cid, lemmas = rng.choice(pool)
                        want = "m" if rng.random() < planter.lean[cid] else "f"
                    toks += candidate(rng, lex, want, forced)
                    toks += planter.fillers_n(0 if forced else rng.choice((0, 0, 1, 2, 3, 5, 8)))
                    toks += planter.realise(cid, lemmas)
                elif roll < 0.7:
                    toks += planter.near_miss()
                else:
                    if rng.random() < 0.5:
                        toks += candidate(rng, lex, rng.choice("mf"), False)
                    toks += planter.decoy()
                toks += planter.fillers_n(rng.randint(2, 6))
            for s, t, l, _ in toks:
                lines.append(f"{s}\t{t}\t{l}")
            lines.append("")
            exp.bump("sentences_read")
            found = planted_matches(toks, lemmas_of)
            if exp.sentences is not None:
                exp.sentences.append(found)
            for pid, start, _ in found:
                exp.bump("matches_total")
                gender = "u"
                for i in range(start - 1, -1, -1):
                    role = toks[i][3]
                    if type(role) is tuple and role[0] == "cand":
                        surface = toks[i][0].lower()
                        if role[1] == "pron":
                            gender = pronouns.get(surface, "u")
                        else:
                            gender = "m" if surface in male else "f" if surface in female else "u"
                        break
                if gender == "u":
                    exp.bump("matches_unattributed")
                    continue
                exp.bump("occurrences_attributed")
                if pid not in seen:
                    seen.add(pid)
                    exp.count(pid, gender)
    return lines, exp


def candidate(rng: random.Random, lex: Lexicon, want: str, forced: bool) -> list[tuple]:
    """A pronoun or name for context attribution to stop at.  Most carry
    the wanted gender; the rest leave the match unattributed (a
    non-gendered pronoun, a name on both lists or on neither) or are
    absent, so the scan runs further left."""
    roll = 0.0 if forced else rng.random()
    if roll < 0.45:
        p = rng.choice(MALE_PRONOUNS if want == "m" else FEMALE_PRONOUNS)
        tag = "PP$" if p in ("his", "her") else "PP"
        return [(p.title() if rng.random() < 0.2 else p, tag, p, ("cand", "pron"))]
    if roll < 0.75:
        name = rng.choice(lex.male if want == "m" else lex.female)
    elif roll < 0.82:
        p = rng.choice(NEUTRAL_PRONOUNS)
        return [(p, "PP", p, ("cand", "pron"))]
    elif roll < 0.88:
        name = rng.choice(lex.shared)
    elif roll < 0.93:
        name = rng.choice(lex.unlisted)
    else:
        return []
    return [(name.title(), "NP", name, ("cand", "name"))]


def corpus_expect_json(exp: CorpusExpect, dedup: bool) -> dict:
    M = sum(m for m, _ in exp.counts.values())
    F = sum(f for _, f in exp.counts.values())
    manifest = dict(exp.manifest)
    manifest.update(
        dedup=str(dedup).lower(),
        occurrences_male=M,
        occurrences_female=F,
        phrases_observed=len(exp.counts),
        phrases_scored=len(exp.counts),
    )
    if M + F:
        manifest["male_proportion"] = M / (M + F)
    return {"counts": exp.counts, "manifest": manifest}


# --- score tables and ratings ------------------------------------------------------


def textbook_s(m: int, f: int, M: int, F: int) -> float:
    n, p = m + f, M / (M + F)
    return (m - n * p) / math.sqrt(n * p * (1 - p))


def population_z(values: list[float]) -> list[float]:
    mean = sum(values) / len(values)
    sd = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
    return [(v - mean) / sd for v in values]


def score_table(rng: random.Random, actions, gold_mean: dict[str, float], strong: bool = False) -> list[tuple]:
    """Rows (pid, text, m, f, raw, s, z) with leanings that follow the
    gold mean where there is one.  ``strong`` gives rated phrases 200
    occurrences at a male share of 0.2 or 0.8, so both tables agree on
    their signs however few rows there are."""
    rows = []
    for cid, lemmas in actions:
        n = 1 + int(rng.paretovariate(1.2))
        q = 0.5 + 0.12 * gold_mean.get(cid, rng.uniform(-2, 2)) + rng.gauss(0, 0.1)
        if strong and cid in gold_mean:
            n, q = 200, 0.8 if gold_mean[cid] > 0 else 0.2
        q = min(0.95, max(0.05, q))
        m = min(n, max(0, round(n * q + rng.gauss(0, math.sqrt(n * q * (1 - q))))))
        rows.append([cid, " ".join(lemmas), m, n - m])
    M = sum(r[2] for r in rows)
    F = sum(r[3] for r in rows)
    s = [textbook_s(r[2], r[3], M, F) for r in rows]
    z = population_z(s)
    out = [(pid, text, m, f, m / (m + f), sv, zv) for (pid, text, m, f), sv, zv in zip(rows, s, z)]
    out.sort()
    return out


def format_score_rows(rows) -> list[str]:
    return [SCORES_HEADER] + ["\t".join(map(str, row)) for row in rows]


def ratings_rows(rng: random.Random, kept_ids: list[str], dropped_ids: list[str], noise: float = 0.8):
    """Raw ratings: every kept id has a numeric mode and >= 5 raters
    (some with X tied for the mode); dropped ids have too few raters
    or an X majority.  Without ``noise`` every kept mean has its
    target's sign.  Returns rows and each kept id's target mean."""
    rows = []
    target = {}
    for i, pid in enumerate(kept_ids):
        # alternating signs away from zero keep both classes in any cut-down set
        centre = rng.uniform(0.6, 2.0) * (1 if i % 2 else -1)
        target[pid] = centre
        values = [max(-2, min(2, round(centre + rng.gauss(0, noise)))) for _ in range(rng.randint(5, 9))]
        top = max(values.count(v) for v in set(values))
        values += ["X"] * min(top, rng.choice((0, 0, 0, 1, 2)))
        rows += [(pid, f"r{k:03d}", str(v)) for k, v in enumerate(values)]
    for i, pid in enumerate(dropped_ids):
        if i % 2:
            rows += [(pid, f"r{k:03d}", str(rng.randint(-2, 2))) for k in range(rng.randint(1, 4))]
        else:
            rows += [(pid, f"r{k:03d}", "X") for k in range(4)]
            rows += [(pid, f"r{k:03d}", str(k - 6)) for k in range(4, 7)]
    rng.shuffle(rows)
    return rows, target


def aggregate_ratings(rows, texts: dict[str, str]) -> list[tuple[str, str, float, int]]:
    by: dict[str, list] = {}
    for pid, _, value in rows:
        by.setdefault(pid, []).append(None if value == "X" else int(value))
    out = []
    for pid in sorted(by):
        values = by[pid]
        numeric = [v for v in values if v is not None]
        if len(values) < 5 or not numeric:
            continue
        if values.count(None) > max(numeric.count(v) for v in set(numeric)):
            continue
        out.append((pid, texts.get(pid, ""), sum(numeric) / len(numeric), len(values)))
    return out


def midranks(values: list[float]) -> list[float]:
    ranks = []
    for v in values:
        below = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        ranks.append(below + (equal + 1) / 2.0)
    return ranks


def spearman(x: list[float], y: list[float]) -> float:
    rx, ry = midranks(x), midranks(y)
    n = len(x)
    mx, my = sum(rx) / n, sum(ry) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    return sxy / math.sqrt(sxx * syy)


def pairwise_auc(scores: list[float], labels: list[bool]) -> float:
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def expect_evaluation(table_a, table_b, rating_rows, names=("tweet_scores", "document_scores")) -> dict:
    """evaluate --ratings outputs over two score tables, from scratch."""
    texts = {r[0]: r[1] for r in table_a}
    texts.update({r[0]: r[1] for r in table_b})
    gold = aggregate_ratings(rating_rows, texts)
    za = {r[0]: r[6] for r in table_a}
    zb = {r[0]: r[6] for r in table_b}
    shared = za.keys() & zb.keys()
    methods = [
        (names[0], za),
        (names[1], zb),
        ("combined", {p: (za[p] + zb[p]) / 2.0 for p in shared}),
        (
            "matching_signs",
            {
                p: (za[p] + zb[p]) / 2.0
                for p in shared
                if za[p] != 0.0 and zb[p] != 0.0 and (za[p] > 0) == (zb[p] > 0)
            },
        ),
    ]
    report = []
    manifest = [["gold_entries", len(gold)], ["gold_nonzero_mean", sum(1 for g in gold if g[2] != 0.0)]]
    for name, pred in methods:
        covered = [g for g in gold if g[0] in pred]
        labeled = [g for g in covered if g[2] != 0.0]
        rho = spearman([pred[g[0]] for g in covered], [g[2] for g in covered])
        auc = pairwise_auc([pred[g[0]] for g in labeled], [g[2] > 0 for g in labeled])
        acc = sum(1.0 for g in labeled if pred[g[0]] != 0.0 and (pred[g[0]] > 0) == (g[2] > 0)) / len(labeled)
        report.append([name, rho, auc, acc, 100.0 * (len(covered) / len(gold)), len(covered)])
        manifest += [[f"predictions_{name}", len(pred)], [f"labeled_covered_{name}", len(labeled)]]
    gold_by = {g[0]: g for g in gold}
    scatter = []
    for pid in sorted(shared & gold_by.keys()):
        x, y = za[pid], zb[pid]
        quadrant = 0 if x == 0.0 or y == 0.0 else (1 if y > 0 else 4) if x > 0 else (2 if y > 0 else 3)
        scatter.append(f"{texts.get(pid) or gold_by[pid][1] or pid}\t{x}\t{y}\t{gold_by[pid][2]}\t{quadrant}")
    return {
        "gold": [list(g) for g in gold],
        "report": report,
        "scatter": scatter,
        "manifest": manifest,
    }


# --- workloads ---------------------------------------------------------------------

WORKLOADS = ("tweet_paper", "document_dense", "lexicons_evaluate")

CONFIGS = {
    "tweet_paper": "tweet_corpus = tweets.tsv\nwordlist = wordlist.txt\ndedup = false\n",
    "document_dense": "document_corpus = docs.vert\nextended_pronouns = true\ndedup = true\n",
    "lexicons_evaluate": (
        "concepts = concepts.tsv\ntag_counts = tag_counts.tsv\n"
        "male_names = names_male.txt\nfemale_names = names_female.txt\n"
    ),
}
COMMON_CONFIG = "dominance_ratio = 2.0\nmax_nonenglish_ratio = 0.20\nmin_occurrences = 1\nseed = 0\n"


def write_lines(path: Path, lines) -> None:
    """Write and sync, so the kernel's write-back of freshly generated
    inputs does not fall inside the timed rounds."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())


def generate(workload: str, seed: int, root: Path, sizes: Sizes = PAPER) -> None:
    """Write ``full/`` and ``tiny/`` input sets for one workload under
    ``root``, each with its ``run.cfg`` and ``expect.json``.  The tiny
    set keeps the full set's lexicons and cuts the data to a handful of
    records or rows; it times the program's set-up."""
    lex = make_lexicon(seed, sizes)
    for part in ("full", "tiny"):
        d = root / part
        d.mkdir(parents=True, exist_ok=True)
        (d / "run.cfg").write_text(CONFIGS[workload] + COMMON_CONFIG, encoding="utf-8")
    rng = random.Random(f"{workload}:{seed}")

    if workload in ("tweet_paper", "document_dense"):
        write_lexicon_dir(root / "lex", lex)
        planted = sizes.tweet_planted if workload == "tweet_paper" else sizes.document_planted
        planter = Planter(rng, lex, sizes, planted, workload)
        for part in ("full", "tiny"):
            d = root / part
            if workload == "tweet_paper":
                if part == "full":
                    lines, exp = tweet_corpus(planter, sizes.tweet_records, sizes.tweet_plant_rate)
                else:
                    lines, exp = tweet_corpus(planter, 6, 1.0, categories="mfmfns")
                write_lines(d / "tweets.tsv", lines)
                wordlist = planter.fillers + lex.objects + sorted({l[0] for _, l in lex.actions})
                write_lines(d / "wordlist.txt", wordlist + list(NEUTRAL_PRONOUNS))
                expect = corpus_expect_json(exp, dedup=False)
            else:
                pronouns = {p: "m" for p in MALE_PRONOUNS}
                pronouns.update({p: "f" for p in FEMALE_PRONOUNS})
                n = sizes.documents if part == "full" else 2
                lines, exp = document_corpus(planter, n, pronouns, forced=part == "tiny")
                write_lines(d / "docs.vert", lines)
                expect = corpus_expect_json(exp, dedup=True)
            expect["phrase_texts"] = {cid: " ".join(l) for cid, l in lex.actions if cid in exp.counts}
            (d / "expect.json").write_text(json.dumps(expect), encoding="utf-8")
        return

    # lexicons_evaluate
    texts = {cid: " ".join(l) for cid, l in lex.actions}
    action_ids = [cid for cid, _ in lex.actions]
    non_actions = [cid for cid, _ in lex.concepts if cid not in texts]
    for part in ("full", "tiny"):
        d = root / part
        if part == "full":
            concepts, tag_rows = lex.concepts, lex.tag_rows
            male_rows, female_rows = lex.male_rows, lex.female_rows
            actions = lex.actions
            n_gold, off = sizes.gold, sizes.gold_off_table
        else:
            concepts = lex.concepts[:12]
            first = {t.lower().split()[0] for _, t in concepts}
            tag_rows = [r for r in lex.tag_rows if r[0].lower() in first]
            male_rows = lex.male_rows[:3] + [(lex.shared[0], 7)]
            female_rows = lex.female_rows[:3] + [(lex.shared[0], 9)]
            actions = lex.actions[:20]
            n_gold, off = 8, 1
        write_lexicon_inputs(d, concepts, tag_rows, male_rows, female_rows)
        ids = [cid for cid, _ in actions]
        kept = rng.sample(ids, n_gold - off) + rng.sample(non_actions, off)
        dropped = rng.sample([i for i in action_ids if i not in kept], 6 if part == "tiny" else 30)
        tiny = part == "tiny"
        rating_rows, target = ratings_rows(rng, kept, dropped, noise=0.0 if tiny else 0.8)
        table_a = score_table(rng, actions, target, strong=tiny)
        table_b = score_table(rng, actions, target, strong=tiny)
        write_lines(d / "tweet_scores.tsv", format_score_rows(table_a))
        write_lines(d / "document_scores.tsv", format_score_rows(table_b))
        write_lines(d / "ratings.tsv", ("\t".join(r) for r in rating_rows))
        expect = {
            "lexicons": expect_lexicons(concepts, tag_rows, male_rows, female_rows),
            "evaluation": expect_evaluation(table_a, table_b, rating_rows),
        }
        (d / "expect.json").write_text(json.dumps(expect), encoding="utf-8")


def generator_digest(sizes: Sizes = PAPER) -> str:
    h = hashlib.sha256(Path(__file__).read_bytes())
    h.update(repr(sizes).encode())
    return h.hexdigest()[:12]


def ensure_inputs(workload: str, seed: int, work: Path, sizes: Sizes = PAPER) -> Path:
    """The input directory for (workload, seed), generated unless the
    same seed and generator already produced it.  Older input sets of
    the workload are removed so the cache holds one seed per workload."""
    name = f"{workload}-s{seed}-{generator_digest(sizes)}"
    target = work / name
    if (target / "done").exists():
        return target
    work.mkdir(parents=True, exist_ok=True)
    for old in work.glob(f"{workload}-s*"):
        shutil.rmtree(old, ignore_errors=True)
    tmp = work / f".tmp-{name}"
    shutil.rmtree(tmp, ignore_errors=True)
    generate(workload, seed, tmp, sizes)
    (tmp / "done").write_text("", encoding="utf-8")
    tmp.rename(target)
    return target
