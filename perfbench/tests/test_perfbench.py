"""Tests of the benchmark itself, on the generator's tiny size.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import pytest

import checks
import generate
import traced
from stereomine.cli import main
from stereomine.corpus_io import default_tag_map, parse_document_records, parse_tweet_stream
from stereomine.lexicons import ActionPhrase
from stereomine.matcher import brute_force_matches

SEED = 7


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, Path]:
    root = tmp_path_factory.mktemp("inputs")
    for workload in generate.WORKLOADS:
        generate.generate(workload, SEED, root / workload, generate.TINY)
    return {w: root / w for w in generate.WORKLOADS}


def score(data: Path, lexdir: Path, kind: str, out: Path) -> dict[str, str]:
    rc = main(["score", "--config", str(data / "run.cfg"), "--kind", kind,
               "--lexicon-dir", str(lexdir), "--output-dir", str(out)])
    assert rc == 0
    return {p.name: p.read_text(encoding="utf-8") for p in out.iterdir()}


def lexicons_evaluate(data: Path, out: Path) -> dict[str, str]:
    assert main(["build-lexicons", "--config", str(data / "run.cfg"), "--output-dir", str(out / "lex")]) == 0
    assert main(["evaluate", "--config", str(data / "run.cfg"), "--output-dir", str(out / "eval"),
                 "--scores", str(data / "tweet_scores.tsv"), str(data / "document_scores.tsv"),
                 "--ratings", str(data / "ratings.tsv")]) == 0
    return {p.name: p.read_text(encoding="utf-8") for d in ("lex", "eval") for p in (out / d).iterdir()}


def expect_of(data: Path) -> dict:
    return json.loads((data / "expect.json").read_text(encoding="utf-8"))


def test_planted_matches_equal_the_oracle(tmp_path):
    """Every generated sentence's expected matches, near misses and
    decoys included, are exactly what brute-force matching finds."""
    lex = generate.make_lexicon(SEED, generate.TINY)
    phrases = [ActionPhrase(lemmas=l, source_id=cid) for cid, l in lex.actions]
    by_first: dict[str, list[ActionPhrase]] = {}
    for p in phrases:
        by_first.setdefault(p.lemmas[0], []).append(p)
    pronouns = {p: "m" for p in generate.MALE_PRONOUNS} | {p: "f" for p in generate.FEMALE_PRONOUNS}

    rng = random.Random(SEED)
    planter = generate.Planter(rng, lex, generate.TINY, generate.TINY.tweet_planted, "t")
    tweet_lines, tweet_exp = generate.tweet_corpus(planter, 300, 0.45, keep_sentences=True)
    planter = generate.Planter(rng, lex, generate.TINY, generate.TINY.document_planted, "d")
    doc_lines, doc_exp = generate.document_corpus(planter, 30, pronouns, keep_sentences=True)

    tag_map = default_tag_map()
    tweets = [s for r in parse_tweet_stream(tweet_lines, tag_map) for s in r.sentences]
    docs = [s for r in parse_document_records(doc_lines, tag_map) for s in r.sentences]
    for sentences, exp in ((tweets, tweet_exp), (docs, doc_exp)):
        assert len(sentences) == len(exp.sentences)
        for sentence, want in zip(sentences, exp.sentences):
            lemmas = sentence.lemmas()
            got = sorted(
                (m.phrase_id, m.start, m.end)
                for first in set(lemmas)
                for p in by_first.get(first, ())
                for m in brute_force_matches(sentence, p)
            )
            assert got == sorted(want), " ".join(lemmas)
        assert sum(map(len, exp.sentences)) > 50
    assert tweet_exp.manifest["records_failed_english_filter"] > 0
    assert tweet_exp.manifest["records_author_unknown"] > 0
    assert doc_exp.manifest["matches_unattributed"] > 0


def test_swapped_name_lists_swap_counts_and_negate_scores(inputs, tmp_path):
    data = inputs["tweet_paper"]
    normal = score(data / "full", data / "lex", "tweet", tmp_path / "normal")
    assert checks.check_scores(normal["tweet_scores.tsv"], expect_of(data / "full")) == []
    swapped_lex = tmp_path / "swapped_lex"
    swapped_lex.mkdir()
    shutil.copy(data / "lex" / "actions.tsv", swapped_lex)
    shutil.copy(data / "lex" / "names_male.txt", swapped_lex / "names_female.txt")
    shutil.copy(data / "lex" / "names_female.txt", swapped_lex / "names_male.txt")
    swapped = score(data / "full", swapped_lex, "tweet", tmp_path / "swapped")

    rows = [l.split("\t") for l in normal["tweet_scores.tsv"].splitlines()[1:]]
    rows_sw = [l.split("\t") for l in swapped["tweet_scores.tsv"].splitlines()[1:]]
    assert len(rows) == len(rows_sw) > 10
    for a, b in zip(rows, rows_sw):
        assert (a[0], a[2], a[3]) == (b[0], b[3], b[2])
        assert float(a[5]) == -float(b[5])
        assert float(a[6]) == -float(b[6])


def corrupt_cell(text: str, row: int, col: int, change) -> str:
    lines = text.split("\n")
    fields = lines[row].split("\t")
    fields[col] = change(fields[col])
    lines[row] = "\t".join(fields)
    return "\n".join(lines)


def drop_row(text: str, row: int) -> str:
    lines = text.split("\n")
    del lines[row]
    return "\n".join(lines)


@pytest.mark.parametrize("workload,kind", [("tweet_paper", "tweet"), ("document_dense", "document")])
def test_score_checks_reject_corrupted_artifacts(inputs, tmp_path, workload, kind):
    data = inputs[workload]
    expect = expect_of(data / "full")
    texts = score(data / "full", data / "lex", kind, tmp_path / "out")
    counts, scores = texts[f"{kind}_counts.tsv"], texts[f"{kind}_scores.tsv"]
    manifest = texts[f"{kind}_manifest.tsv"]
    assert checks.check_counts(counts, expect) == []
    assert checks.check_scores(scores, expect) == []
    assert checks.check_manifest(manifest, expect["manifest"]) == []

    assert checks.check_counts(corrupt_cell(counts, 3, 2, lambda v: str(int(v) + 1)), expect)
    assert checks.check_counts(drop_row(counts, 2), expect)
    assert checks.check_scores(drop_row(scores, 2), expect)
    assert checks.check_scores(corrupt_cell(scores, 4, 6, lambda v: repr(-float(v))), expect)
    assert checks.check_scores(corrupt_cell(scores, 4, 5, lambda v: repr(float(v) * (1 + 1e-6))), expect)
    assert checks.check_manifest(
        manifest.replace("matches_total\t", "matches_total\t1"), expect["manifest"]
    )


def test_lexicon_and_evaluation_checks_reject_corrupted_artifacts(inputs, tmp_path):
    data = inputs["lexicons_evaluate"] / "full"
    expect = expect_of(data)
    texts = lexicons_evaluate(data, tmp_path)
    assert checks.check_lexicons(texts, expect) == []
    assert checks.check_evaluation(texts, expect) == []

    bad = dict(texts, **{"actions.tsv": drop_row(texts["actions.tsv"], 5)})
    assert checks.check_lexicons(bad, expect)
    bad = dict(texts, **{"names_male.txt": drop_row(texts["names_male.txt"], 0)})
    assert checks.check_lexicons(bad, expect)
    for col in (1, 2, 3, 4):
        report = corrupt_cell(texts["eval_report.tsv"], 4, col, lambda v: repr(float(v) + 1e-9))
        assert checks.check_evaluation(dict(texts, **{"eval_report.tsv": report}), expect)
    gold = corrupt_cell(texts["gold_aggregated.tsv"], 1, 3, lambda v: str(int(v) + 1))
    assert checks.check_evaluation(dict(texts, **{"gold_aggregated.tsv": gold}), expect)


def test_traced_run_builds_the_cli_artifacts(inputs, tmp_path):
    data = inputs["document_dense"]
    texts = score(data / "full", data / "lex", "document", tmp_path / "cli")
    tr, built = traced.traced_score("document", data / "full" / "run.cfg", data / "lex", tmp_path / "cli")
    assert built == {k: v for k, v in texts.items() if k in built}
    metrics = traced.layer_metrics(tr, 1.0, 0.5)
    assert set(metrics) == set(traced.LAYER_METRICS)
    assert metrics["matcher.match_s"] > 0 and metrics["attribution.kept_ratio"] > 0

    data = inputs["lexicons_evaluate"] / "full"
    texts = lexicons_evaluate(data, tmp_path / "lx")
    _, built = traced.traced_lexicons_evaluate(data / "run.cfg", data, tmp_path / "lx" / "lex", tmp_path / "lx" / "eval")
    assert built == texts
