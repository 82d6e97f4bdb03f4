"""Small builders shared by the test modules."""

from __future__ import annotations

from stereomine.corpus_io import OTHER, SENTENCE_BREAK, AnnotatedToken, Sentence, TweetRecord
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


def format_sentence(sentence: Sentence) -> str:
    """Serialize a sentence back to vertical format (coarse tags in the
    POS column; re-parsing with a map that carries the identity entries
    reproduces the sentence exactly)."""
    columns = zip(sentence.surfaces, sentence.tags, sentence.lemmata)
    return "\n".join(f"{s}\t{p}\t{l}" for s, p, l in columns) + "\n"


def format_tweet_record(record: TweetRecord) -> str:
    """Serialize a record back to the one-line tweet format."""
    chunks: list[str] = []
    for i, sentence in enumerate(record.sentences):
        if i:
            chunks.append(SENTENCE_BREAK)
        columns = zip(sentence.surfaces, sentence.tags, sentence.lemmata)
        chunks.extend(f"{s}|{p}|{l}" for s, p, l in columns)
    return f"{record.record_id}\t{record.author_name}\t{' '.join(chunks)}\n"


def read_manifest(path) -> dict[str, str]:
    pairs = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line:
            key, value = line.split("\t")
            pairs[key] = value
    return pairs
