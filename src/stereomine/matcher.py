"""Gap-tolerant multi-phrase matching over lemma streams.

Phrases match a sentence when their lemmas appear in order with at most
one intermittent token between consecutive lemmas.  Per phrase and
start position only the greedy alignment is reported (at each step the
adjacent continuation is preferred over the one-gap continuation);
matches at distinct start positions are all reported, overlaps
included.

``compile_phrases`` builds a trie over lemma strings once,
``find_matches`` walks it for each sentence, and
``brute_force_matches`` is the exhaustive reference the tests compare
it against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .corpus_io import Sentence
from .lexicons import ActionPhrase


@dataclass(frozen=True, slots=True)
class Match:
    """One phrase occurrence inside one sentence.

    ``end - start`` ranges from the phrase length to twice the length
    minus one, since each of the ``len - 1`` adjacencies may skip at
    most one intermittent token.
    """

    phrase_id: str
    start: int
    end: int
    sentence_ref: int = 0


@dataclass(frozen=True, slots=True)
class PhraseAutomaton:
    """The phrase set as a trie over lemma strings.

    Node 0 is the root; ``children[node]`` maps a lemma to the next node
    and ``terminals[node]`` holds the indexes into ``phrases`` of the
    phrases that end there.  Never changed after compilation, so forked
    workers share it as is.
    """

    phrases: tuple[ActionPhrase, ...]
    children: list[dict[str, int]]
    terminals: list[tuple[int, ...]]


def compile_phrases(phrases: Sequence[ActionPhrase]) -> PhraseAutomaton:
    """Compile a phrase list into the matching automaton.

    Duplicate lemma sequences share one trie path but keep their own
    phrase entries, so every input phrase is reported independently.
    An empty list compiles to the bare root, which matches nothing.
    """
    children: list[dict[str, int]] = [{}]
    terminals: list[list[int]] = [[]]
    for pidx, phrase in enumerate(phrases):
        node = 0
        for lemma in phrase.lemmas:
            nxt = children[node].get(lemma)
            if nxt is None:
                nxt = len(children)
                children[node][lemma] = nxt
                children.append({})
                terminals.append([])
            node = nxt
        terminals[node].append(pidx)
    return PhraseAutomaton(
        phrases=tuple(phrases),
        children=children,
        terminals=[tuple(t) for t in terminals],
    )


def _match_ids(automaton: PhraseAutomaton, lemmas: Sequence[str]) -> list[tuple[int, int, int]]:
    """(phrase index, start, end) of every greedy match in a sentence's
    lemmas, by start position.

    A depth-first search from each start position reports the first
    complete alignment it finds per phrase.  The gap branch is pushed
    onto the LIFO stack before the adjacent one, so the adjacent branch
    is explored first.
    """
    children = automaton.children
    terminals = automaton.terminals
    root = children[0]
    n = len(lemmas)
    out: list[tuple[int, int, int]] = []
    for start in range(n):
        node = root.get(lemmas[start])
        if node is None:
            continue
        seen: set[int] = set()
        stack = [(node, start)]
        while stack:
            node, pos = stack.pop()
            for pidx in terminals[node]:
                if pidx not in seen:
                    seen.add(pidx)
                    out.append((pidx, start, pos + 1))
            kids = children[node]
            if not kids:
                continue
            gap_pos = pos + 2
            if gap_pos < n:
                nxt = kids.get(lemmas[gap_pos])
                if nxt is not None:
                    stack.append((nxt, gap_pos))
            adj_pos = pos + 1
            if adj_pos < n:
                nxt = kids.get(lemmas[adj_pos])
                if nxt is not None:
                    stack.append((nxt, adj_pos))
    return out


def find_matches(
    sentence: Sentence, automaton: PhraseAutomaton, sentence_ref: int = 0
) -> list[Match]:
    """All greedy phrase occurrences in one sentence, ordered by start
    position then phrase id.  Matching never crosses the sentence
    boundary and looks only at lemmas; POS plays no role here."""
    raw = _match_ids(automaton, sentence.lemmata)
    phrases = automaton.phrases
    matches = [
        Match(
            phrase_id=phrases[pidx].source_id,
            start=start,
            end=end,
            sentence_ref=sentence_ref,
        )
        for pidx, start, end in raw
    ]
    matches.sort(key=lambda m: (m.start, m.phrase_id, m.end))
    return matches


def brute_force_matches(
    sentence: Sentence, phrase: ActionPhrase, sentence_ref: int = 0
) -> list[Match]:
    """Every greedy occurrence of one phrase, found without the trie.

    Enumerates every start position and every gap assignment directly
    and keeps one result per start: gap vectors are tried in
    lexicographic order (adjacent step before one-gap step), so the
    first complete alignment is the greedy one.
    """
    lemmas = sentence.lemmas()
    n = len(lemmas)
    k = len(phrase.lemmas)
    out: list[Match] = []
    for start in range(n):
        if lemmas[start] != phrase.lemmas[0]:
            continue
        for gaps in product((0, 1), repeat=k - 1):
            pos = start
            ok = True
            for j in range(1, k):
                pos += 1 + gaps[j - 1]
                if pos >= n or lemmas[pos] != phrase.lemmas[j]:
                    ok = False
                    break
            if ok:
                out.append(
                    Match(
                        phrase_id=phrase.source_id,
                        start=start,
                        end=pos + 1,
                        sentence_ref=sentence_ref,
                    )
                )
                break
    return out
