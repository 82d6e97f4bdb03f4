"""Sharded scoring: byte ranges cut at record starts, forked workers, and
a CLI whose artifacts, exit code and error text do not depend on the
shard count."""

import contextlib
import io
import os
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stereomine import cli, corpus_io, shards
from stereomine.attribution import (
    DEFAULT_PRONOUNS,
    EXTENDED_PRONOUNS,
    GenderedOccurrence,
    Source,
    attribute_by_author,
    attribute_by_context,
)
from stereomine.corpus_io import (
    DOC_HEADER,
    DOC_HEADER_CUT,
    EnglishFilterConfig,
    default_tag_map,
    load_wordlist,
    parse_document_records,
    parse_tweet_stream,
    passes_english_filter,
)
from stereomine.errors import open_text
from stereomine.lexicons import ActionPhrase, Gender, guess_gender, load_name_lexicon
from stereomine.matcher import compile_phrases, find_matches
from stereomine.scoring import aggregate, parse_counts_table
from stereomine.shards import ANY_LINE, open_range, run_forked, split_ranges

FIXTURES = Path(__file__).parent / "fixtures"
EXPECTED = FIXTURES / "expected"
CFG = str(FIXTURES / "run.cfg")


# --- byte ranges --------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    lines=st.lists(
        st.sampled_from(["#doc a", "#doc", "#document", "#doc\u2003b", "w\tNN\tw", "", "ü x", "€"]),
        max_size=30,
    ),
    newline=st.sampled_from(["\n", "\r\n"]),
    final_newline=st.booleans(),
    record_start=st.sampled_from([ANY_LINE, DOC_HEADER_CUT]),
    count=st.integers(1, 9),
)
def test_ranges_cut_at_record_starts_and_reread_the_same_lines(
    lines, newline, final_newline, record_start, count
):
    data = (newline.join(lines) + (newline if final_newline else "")).encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus"
        path.write_bytes(data)
        ranges = split_ranges(path, count, record_start)
        assert 1 <= len(ranges) <= count
        assert ranges[0][0] == 0 and ranges[-1][1] == len(data)
        for (_, end), (start, _) in zip(ranges, ranges[1:]):
            assert end == start and data[start - 1 : start] == b"\n"
            if record_start is DOC_HEADER_CUT:
                assert DOC_HEADER.match(data[start:].decode("utf-8").splitlines()[0])
        reread = []
        for start, end in ranges:
            with open_range(path, start, end) as fh:
                reread.extend(fh)
        with open(path, encoding="utf-8") as fh:
            assert reread == list(fh)


def test_shard_count_is_cores_capped_by_size(tmp_path, monkeypatch):
    path = tmp_path / "corpus"
    path.write_bytes(b"x\n" * 50)
    assert shards.shard_count(path) == 1
    monkeypatch.setattr(shards, "MIN_SHARD_BYTES", 25)
    assert shards.shard_count(path) == min(len(os.sched_getaffinity(0)), 4)
    path.write_bytes(b"")
    assert shards.shard_count(path) == 1


# --- forked workers -----------------------------------------------------------


def test_run_forked_runs_each_range_in_its_own_process():
    ranges = [(0, 5), (5, 9), (9, 20)]
    results = run_forked(lambda start, end: (os.getpid(), start, end), ranges)
    assert [r[1:] for r in results] == ranges
    pids = [r[0] for r in results]
    assert pids[0] == os.getpid() and len(set(pids)) == 3


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_run_forked_gives_none_when_any_shard_raises(failing):
    ranges = [(0, 1), (1, 2), (2, 3)]

    def work(start, end):
        if start == failing:
            raise ValueError("bad shard")
        return start

    assert run_forked(work, ranges) is None


def test_run_forked_reaps_its_children_on_keyboard_interrupt():
    def work(start, end):
        if start == 0:
            raise KeyboardInterrupt
        time.sleep(60)

    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_forked(work, [(0, 1), (1, 2), (2, 3)])
    assert time.monotonic() - began < 30  # the sleeping children were killed, not awaited


# --- the CLI at forced shard counts -------------------------------------------


def run_score(kind, cfg, lexdir, out, count=None, *extra):
    """One ``score`` run with the shard count forced (None: the CLI's own);
    returns exit code, artifact bytes by name and stderr."""
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        if count is not None:
            mp.setattr(cli, "shard_count", lambda path: count)
        rc = cli.main(
            ["score", "--config", str(cfg), "--kind", kind,
             "--lexicon-dir", str(lexdir), "--output-dir", str(out), *extra]
        )
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return rc, files, err.getvalue()


@pytest.fixture(scope="module")
def fixture_lexdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("lexicons")
    assert cli.main(["build-lexicons", "--config", CFG, "--output-dir", str(out)]) == 0
    return out


# docs.vert holds two documents, so it splits in two at most
@pytest.mark.parametrize("kind, count", [("tweet", 3), ("document", 2)])
def test_fixture_goldens_hold_in_shards_without_a_redo(
    kind, count, fixture_lexdir, tmp_path, monkeypatch
):
    outcomes = []
    def spy(*args):
        outcomes.append(run_forked(*args))
        return outcomes[-1]

    monkeypatch.setattr(cli, "run_forked", spy)
    monkeypatch.setattr(cli, "open_text", None)  # the in-process redo would need it
    rc, files, _ = run_score(kind, CFG, fixture_lexdir, tmp_path / "out", count)
    assert rc == 0
    assert len(outcomes) == 1 and len(outcomes[0]) == count
    for name in (f"{kind}_counts.tsv", f"{kind}_scores.tsv"):
        assert files[name] == (EXPECTED / name).read_bytes()


def test_ids_repeated_across_shards_are_counted_in_one_pass(fixture_lexdir, tmp_path):
    """A repeated tweet id fails at its own line; a repeated ``#doc`` id is
    deduplicated across the whole file, as in a single pass."""
    tweets = (FIXTURES / "tweets.tsv").read_text(encoding="utf-8")
    (tmp_path / "tweets.tsv").write_text(tweets + tweets.splitlines()[0] + "\n", encoding="utf-8")
    docs = (FIXTURES / "docs.vert").read_text(encoding="utf-8")
    (tmp_path / "docs.vert").write_text(docs + docs, encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"tweet_corpus = {tmp_path / 'tweets.tsv'}\ndocument_corpus = {tmp_path / 'docs.vert'}\n"
        f"wordlist = {FIXTURES / 'wordlist.txt'}\ndedup = true\n",
        encoding="utf-8",
    )
    rc, files, err = run_score("tweet", cfg, fixture_lexdir, tmp_path / "t2", 2)
    assert (rc, files) == (1, {})
    assert err == f"error: {tmp_path / 'tweets.tsv'}:{len(tweets.splitlines()) + 1}: duplicate record_id 't01'\n"
    sharded = run_score("document", cfg, fixture_lexdir, tmp_path / "d4", 4)
    assert sharded == run_score("document", cfg, fixture_lexdir, tmp_path / "d1", 1)
    once = run_score("document", CFG, fixture_lexdir, tmp_path / "once", 1, "--dedup", "true")
    assert sharded[1]["document_counts.tsv"] == once[1]["document_counts.tsv"]


@pytest.fixture(scope="module")
def lexdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("shard-lexicons")
    (out / "actions.tsv").write_text(
        "# phrase_id\tphrase_text\nA1\tmake money\nA2\tcook dinner\nA3\tfix car\nA4\twalk dog\n",
        encoding="utf-8",
    )
    (out / "names_male.txt").write_text("john\ntom\n", encoding="utf-8")
    (out / "names_female.txt").write_text("mary\nann\n", encoding="utf-8")
    (out / "wordlist.txt").write_text(
        "make\nmade\nmoney\ncook\ndinner\nfix\ncar\nwalk\ndog\nthe\nhe\nshe\njohn\nmary\n",
        encoding="utf-8",
    )
    return out


# (surface, fine tag, lemma); "xyzzy" is off the word list
TOKENS = [
    ("make", "VB", "make"), ("made", "VBD", "make"), ("money", "NN", "money"),
    ("cook", "VB", "cook"), ("dinner", "NN", "dinner"), ("fix", "VB", "fix"),
    ("car", "NN", "car"), ("walk", "VB", "walk"), ("dog", "NN", "dog"),
    ("the", "DT", "the"), ("He", "PRP", "he"), ("she", "PRP", "she"),
    ("John", "NNP", "john"), ("Mary", "NNP", "mary"), ("xyzzy", "NN", "xyzzy"),
    ("#doctorwho", "NN", "#doctorwho"),  # a token, though it starts with "#doc"
]
token = st.sampled_from(TOKENS)
sentence = st.lists(token, min_size=1, max_size=8)
# faults land on a record drawn at random, so often in a later shard
fault = st.sampled_from([None, None, "bad token", "empty lemma", "duplicate id", "non-utf8"])


@st.composite
def tweet_corpus(draw, faults=fault, sentence=sentence):
    records = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["John Smith", "mary", "Ann Lee", "Zed", "tom  t", ""]),
                st.lists(sentence, min_size=1, max_size=3),
                st.booleans(),  # a blank line follows
            ),
            min_size=1,
            max_size=40,
        )
    )
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    kind, at = draw(faults), draw(st.integers(0, len(records) - 1))
    lines, line_of = [], []
    for i, (author, sentences, blank) in enumerate(records):
        record_id = f"t{i}"
        if kind == "duplicate id" and i == at and i > 0:
            record_id = "t0"
        text = " </s> ".join(" ".join(f"{s}|{p}|{l}" for s, p, l in sent) for sent in sentences)
        if kind == "bad token" and i == at:
            text += " broken|NN"
        if kind == "empty lemma" and i == at:
            text += " word|NN|"
        line_of.append(len(lines))
        lines.append(f"{record_id}\t{author}\t{text}")
        if blank:
            lines.append("")
    data = (newline.join(lines) + newline).encode("utf-8")
    if kind == "non-utf8":
        offset = len((newline.join(lines[: line_of[at]]) + newline).encode("utf-8"))
        data = data[:offset] + b"\xff" + data[offset:]
    return data, {"dedup": draw(st.booleans())}


@st.composite
def document_corpus(draw, faults=fault, sentence=sentence):
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []

    def add_sentences():
        for sent in draw(st.lists(sentence, min_size=1, max_size=3)):
            lines.extend(f"{s}\t{p}\t{l}" for s, p, l in sent)
            lines.extend([""] * draw(st.integers(1, 2)))

    if draw(st.booleans()):
        add_sentences()  # sentences before the first #doc take autodoc ids
    # a small id pool repeats ids across the file, "autodoc1" included
    for doc_id in draw(st.lists(st.sampled_from(["a", "b", "c", "autodoc1", "d e"]), max_size=15)):
        lines.append(f"#doc {doc_id}")
        add_sentences()
    if not lines:
        lines.append("#doc z")
    kind, at = draw(faults), draw(st.integers(0, len(lines) - 1))
    if kind == "bad token":
        lines.insert(at, "w\tNN")
    if kind == "empty lemma":
        lines.insert(at, "w\tNN\t")
    data = (newline.join(lines) + newline).encode("utf-8")
    if kind == "non-utf8":
        data = data[: at * 3] + b"\xff" + data[at * 3 :]
    return data, {"dedup": draw(st.booleans()), "extended_pronouns": draw(st.booleans())}


def write_run(tmp, kind, corpus, lexdir):
    """The drawn corpus and a config naming it with the drawn keys."""
    data, keys = corpus
    corpus_path = tmp / "corpus"
    corpus_path.write_bytes(data)
    key = "tweet_corpus" if kind == "tweet" else "document_corpus"
    cfg = tmp / "run.cfg"
    cfg.write_text(
        f"{key} = {corpus_path}\nwordlist = {lexdir / 'wordlist.txt'}\n"
        + "".join(f"{k} = {str(v).lower()}\n" for k, v in keys.items()),
        encoding="utf-8",
    )
    return corpus_path, cfg


def check_shard_counts_agree(kind, corpus, lexdir):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus_path, cfg = write_run(tmp, kind, corpus, lexdir)
        reference = run_score(kind, cfg, lexdir, tmp / "reference")
        for count in (1, 2, 3, 7):
            assert run_score(kind, cfg, lexdir, tmp / f"out{count}", count) == reference, count
        if reference[0] == 1:
            assert reference[2].startswith(f"error: {corpus_path}:")


SHARD_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@SHARD_SETTINGS
@given(corpus=tweet_corpus())
def test_tweet_scoring_does_not_depend_on_the_shard_count(corpus, lexdir):
    check_shard_counts_agree("tweet", corpus, lexdir)


@SHARD_SETTINGS
@given(corpus=document_corpus())
def test_vertical_scoring_does_not_depend_on_the_shard_count(corpus, lexdir):
    check_shard_counts_agree("document", corpus, lexdir)


# --- the tally against the per-occurrence library path ------------------------

# A1 names two actions; A3 and A4 are one lemma sequence under two ids; the
# two A2 actions share a first lemma, so both match "fix the car" at one
# start; A5 starts at a pronoun, which lies at, not left of, its start
TALLY_ACTIONS = [
    ("A1", "make money"), ("A1", "cook dinner"), ("A2", "fix car"), ("A2", "fix the car"),
    ("A3", "walk dog"), ("A4", "walk dog"), ("A5", "he make"),
]
# sentences built from whole phrases too, some after a gendered word, so
# that most records hold attributable matches and a dedup key often repeats
PHRASE_CHUNKS = [[t] for t in TOKENS] + [
    [next(t for t in TOKENS if t[0] == word) for word in text.split()]
    for text in ("make money", "cook the dinner", "fix car", "walk dog", "He made money",
                 "Mary walk dog", "she cook the dinner", "John fix the car")
]
phrase_sentence = st.lists(st.sampled_from(PHRASE_CHUNKS), min_size=1, max_size=4).map(
    lambda chunks: [t for chunk in chunks for t in chunk]
)
# sentences that sink a record under the English filter ("xyzzy" is off the
# word list) or hold no alphabetic token at all
XYZZY, DOCTORWHO = TOKENS[-2], TOKENS[-1]
off_list_sentence = st.sampled_from(
    [[XYZZY] * 3, [XYZZY, TOKENS[0], XYZZY, TOKENS[2]], [DOCTORWHO], [DOCTORWHO] * 2]
)


@pytest.fixture(scope="module")
def tally_lexdir(tmp_path_factory, lexdir):
    out = tmp_path_factory.mktemp("tally-lexicons")
    rows = "".join(f"{pid}\t{text}\n" for pid, text in TALLY_ACTIONS)
    (out / "actions.tsv").write_text("# phrase_id\tphrase_text\n" + rows, encoding="utf-8")
    for name in ("names_male.txt", "names_female.txt", "wordlist.txt"):
        (out / name).write_bytes((lexdir / name).read_bytes())
    return out


def library_reference(kind, corpus_path, keys, lexdir):
    """Counts and count manifest of a ``score`` run, rebuilt one occurrence
    object at a time: ``find_matches``, then ``attribute_by_author`` or
    ``attribute_by_context``, then ``aggregate``."""
    automaton = compile_phrases(
        [ActionPhrase(lemmas=tuple(text.split()), source_id=pid) for pid, text in TALLY_ACTIONS]
    )
    lexicon = load_name_lexicon(lexdir / "names_male.txt", lexdir / "names_female.txt")
    stats = dict.fromkeys(
        ["records_read", "records_failed_english_filter", "records_kept",
         "records_author_unknown", "matches_total", "occurrences_attributed"]
        if kind == "tweet"
        else ["records_read", "sentences_read", "matches_total",
              "matches_unattributed", "occurrences_attributed"],
        0,
    )
    occurrences = []
    with open_text(corpus_path) as lines:
        if kind == "tweet":
            english = EnglishFilterConfig(
                wordlist=load_wordlist(lexdir / "wordlist.txt"), max_nonenglish_ratio=0.20
            )
            for record in parse_tweet_stream(lines, default_tag_map()):
                stats["records_read"] += 1
                if not passes_english_filter(record, english):
                    stats["records_failed_english_filter"] += 1
                    continue
                stats["records_kept"] += 1
                if guess_gender(record.author_first_name, lexicon) is Gender.UNKNOWN:
                    stats["records_author_unknown"] += 1
                matches = [m for s in record.sentences for m in find_matches(s, automaton)]
                stats["matches_total"] += len(matches)
                found = attribute_by_author(record, matches, lexicon)
                stats["occurrences_attributed"] += len(found)
                occurrences.extend(found)
        else:
            pronouns = EXTENDED_PRONOUNS if keys["extended_pronouns"] else DEFAULT_PRONOUNS
            for record in parse_document_records(lines, default_tag_map()):
                stats["records_read"] += 1
                for sentence in record.sentences:
                    stats["sentences_read"] += 1
                    for match in find_matches(sentence, automaton):
                        stats["matches_total"] += 1
                        gender = attribute_by_context(sentence, match, lexicon, pronouns)
                        if gender is Gender.UNKNOWN:
                            stats["matches_unattributed"] += 1
                            continue
                        stats["occurrences_attributed"] += 1
                        occurrences.append(
                            GenderedOccurrence(
                                match.phrase_id, gender, Source.CONTEXT_HEURISTIC, record.record_id
                            )
                        )
    counts, ctx = aggregate(occurrences, dedup_per_record=keys["dedup"])
    stats.update(
        dedup=str(keys["dedup"]).lower(),
        occurrences_male=ctx.M,
        occurrences_female=ctx.F,
        phrases_observed=len(counts),
    )
    return {pid: (c.m, c.f) for pid, c in counts.items()}, {k: str(v) for k, v in stats.items()}


def check_tally_matches_library(kind, corpus, lexdir):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus_path, cfg = write_run(tmp, kind, corpus, lexdir)
        counts, manifest = library_reference(kind, corpus_path, corpus[1], lexdir)
        for count in (1, 3):
            rc, files, err = run_score(kind, cfg, lexdir, tmp / f"out{count}", count)
            assert rc in (0, 2), err
            got, _ = parse_counts_table(files[f"{kind}_counts.tsv"].decode("utf-8").splitlines())
            assert {pid: (c.m, c.f) for pid, c in got.items()} == counts, count
            lines = files[f"{kind}_manifest.tsv"].decode("utf-8").splitlines()
            got_manifest = dict(line.split("\t") for line in lines)
            assert {k: got_manifest[k] for k in manifest} == manifest, count


@SHARD_SETTINGS
@given(corpus=tweet_corpus(faults=st.none(), sentence=phrase_sentence | off_list_sentence))
def test_tweet_tally_equals_the_per_occurrence_path(corpus, tally_lexdir):
    check_tally_matches_library("tweet", corpus, tally_lexdir)


@SHARD_SETTINGS
@given(corpus=document_corpus(faults=st.none(), sentence=phrase_sentence))
def test_vertical_tally_equals_the_per_occurrence_path(corpus, tally_lexdir):
    check_tally_matches_library("document", corpus, tally_lexdir)


@SHARD_SETTINGS
@given(corpus=document_corpus(faults=st.none(), sentence=phrase_sentence))
def test_vertical_tally_with_a_one_line_memo_equals_the_per_occurrence_path(corpus, tally_lexdir):
    """As above, with nearly every line parsed in full: the reader's memo
    holds one line."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus_io, "MEMO_ENTRIES", 1)
        check_tally_matches_library("document", corpus, tally_lexdir)
