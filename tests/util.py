"""Small builders shared by the test modules."""

from __future__ import annotations

from stereomine.corpus_io import OTHER, AnnotatedToken, Sentence
from stereomine.lexicons import ActionPhrase
from stereomine.matcher import brute_force_matches


def tok(surface: str, pos: str = OTHER, lemma: str | None = None) -> AnnotatedToken:
    return AnnotatedToken(
        surface=surface,
        lemma=surface.lower() if lemma is None else lemma,
        pos=pos,
    )


def sent_of(tokens) -> Sentence:
    """Sentence whose columns are read off the given tokens."""
    tokens = tuple(tokens)
    return Sentence(
        surfaces=tuple(t.surface for t in tokens),
        tags=tuple(t.pos for t in tokens),
        lemmata=tuple(t.lemma for t in tokens),
    )


def sent(*lemmas: str) -> Sentence:
    """Sentence whose surfaces equal the given lemmas, all tagged OTHER."""
    return sent_of(tok(lemma) for lemma in lemmas)


def phrase(text: str, pid: str | None = None) -> ActionPhrase:
    lemmas = tuple(text.split())
    return ActionPhrase(lemmas=lemmas, source_id=text if pid is None else pid)


def brute_all(sentence: Sentence, phrases) -> list:
    """Union of single-phrase brute-force results, in find_matches order."""
    out = []
    for p in phrases:
        out.extend(brute_force_matches(sentence, p))
    out.sort(key=lambda m: (m.start, m.phrase_id, m.end))
    return out


def read_manifest(path) -> dict[str, str]:
    pairs = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line:
            key, value = line.split("\t")
            pairs[key] = value
    return pairs
