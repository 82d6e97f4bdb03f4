from __future__ import annotations

import os
from pathlib import Path

import pytest

from stereomine.corpus_io import (
    default_tag_map,
    parse_document_records,
    parse_tweet_stream,
)
from stereomine.lexicons import (
    build_verb_lexicon,
    extract_actions,
    load_concepts,
    load_name_lexicon,
    load_tag_counts,
)
from stereomine.matcher import compile_phrases

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def no_unreaped_children():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind ({'running' if pid == 0 else f'pid {pid}'})")


@pytest.fixture(scope="session")
def fixtures() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def expected() -> Path:
    return FIXTURES / "expected"


@pytest.fixture(scope="session")
def tag_map():
    return default_tag_map()


@pytest.fixture(scope="session")
def name_lexicon():
    return load_name_lexicon(FIXTURES / "names_male.txt", FIXTURES / "names_female.txt")


@pytest.fixture(scope="session")
def actions(tag_map):
    counts = load_tag_counts(FIXTURES / "tag_counts.tsv")
    verbs = build_verb_lexicon(counts, dominance_ratio=2.0, tag_map=tag_map)
    return extract_actions(load_concepts(FIXTURES / "concepts.tsv"), verbs)


@pytest.fixture(scope="session")
def automaton(actions):
    return compile_phrases(actions)


@pytest.fixture(scope="session")
def tweet_records(tag_map):
    with open(FIXTURES / "tweets.tsv", encoding="utf-8") as fh:
        return list(parse_tweet_stream(fh, tag_map))


@pytest.fixture(scope="session")
def doc_records(tag_map):
    with open(FIXTURES / "docs.vert", encoding="utf-8") as fh:
        return list(parse_document_records(fh, tag_map))
