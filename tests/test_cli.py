import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stereomine.cli import main
from stereomine.scoring import parse_counts_table, parse_score_table

from util import read_manifest

FIXTURES = Path(__file__).parent / "fixtures"
EXPECTED = FIXTURES / "expected"
CFG = str(FIXTURES / "run.cfg")


def read(path):
    return Path(path).read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def lexdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("lexicons")
    assert main(["build-lexicons", "--config", CFG, "--output-dir", str(out)]) == 0
    return out


def score_args(kind, out, lexdir, *extra):
    return [
        "score", "--config", CFG, "--kind", kind,
        "--output-dir", str(out), "--lexicon-dir", str(lexdir), *extra,
    ]


# --- build-lexicons -----------------------------------------------------------


def test_build_lexicons_golden(lexdir):
    for name in ("actions.tsv", "verbs.txt", "names_male.txt", "names_female.txt"):
        assert read(lexdir / name) == read(EXPECTED / name), name
    manifest = read_manifest(lexdir / "lexicons_manifest.tsv")
    assert manifest["name_conflicts_dropped"] == "2"
    assert manifest["male_names_kept"] == "6"
    assert manifest["verbs_in_lexicon"] == "15"
    assert manifest["concepts_in"] == "30"
    assert manifest["actions_out"] == "12"


def test_build_lexicons_requires_inputs(tmp_path):
    rc = main(["build-lexicons", "--output-dir", str(tmp_path / "o")])
    assert rc == 1
    assert not (tmp_path / "o").exists()


# --- score --------------------------------------------------------------------


def test_score_tweet_golden(tmp_path, lexdir):
    out = tmp_path / "out"
    assert main(score_args("tweet", out, lexdir)) == 0
    assert read(out / "tweet_scores.tsv") == read(EXPECTED / "tweet_scores.tsv")
    assert read(out / "tweet_counts.tsv") == read(EXPECTED / "tweet_counts.tsv")
    manifest = read_manifest(out / "tweet_manifest.tsv")
    assert manifest["records_read"] == "10"
    assert manifest["records_failed_english_filter"] == "1"
    assert manifest["records_author_unknown"] == "0"
    assert manifest["matches_total"] == "25"
    assert manifest["occurrences_male"] == "14"
    assert manifest["occurrences_female"] == "11"
    assert manifest["phrases_scored"] == "11"
    assert manifest["male_proportion"] == "0.56"


def test_score_document_golden(tmp_path, lexdir):
    out = tmp_path / "out"
    assert main(score_args("document", out, lexdir)) == 0
    assert read(out / "document_scores.tsv") == read(EXPECTED / "document_scores.tsv")
    assert read(out / "document_counts.tsv") == read(EXPECTED / "document_counts.tsv")
    manifest = read_manifest(out / "document_manifest.tsv")
    assert manifest["records_read"] == "2"
    assert manifest["sentences_read"] == "10"
    assert manifest["matches_total"] == "11"
    assert manifest["matches_unattributed"] == "2"
    assert manifest["occurrences_attributed"] == "9"


def test_score_reruns_are_byte_identical(tmp_path, lexdir):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(score_args("tweet", out1, lexdir)) == 0
    assert main(score_args("tweet", out2, lexdir)) == 0
    for name in ("tweet_scores.tsv", "tweet_counts.tsv", "tweet_manifest.tsv"):
        assert read(out1 / name) == read(out2 / name)


def test_score_without_lexicons(tmp_path, capsys):
    rc = main(
        ["score", "--config", CFG, "--kind", "tweet",
         "--output-dir", str(tmp_path / "o"), "--lexicon-dir", str(tmp_path / "empty")]
    )
    assert rc == 1
    assert "build-lexicons first" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_min_occurrences_override(tmp_path, lexdir):
    out = tmp_path / "out"
    assert main(score_args("tweet", out, lexdir, "--min-occurrences", "2")) == 0
    with open(out / "tweet_scores.tsv", encoding="utf-8") as fh:
        scores, _ = parse_score_table(fh)
    assert [s.phrase_id for s in scores] == [
        "c02", "c03", "c04", "c05", "c06", "c08", "c09", "c11",
    ]
    # counts keep everything; only scoring filters
    with open(out / "tweet_counts.tsv", encoding="utf-8") as fh:
        counts, _ = parse_counts_table(fh)
    assert len(counts) == 11


def test_dedup_collapses_repeats_within_record(tmp_path, lexdir):
    out = tmp_path / "out"
    assert main(score_args("tweet", out, lexdir, "--dedup", "true")) == 0
    with open(out / "tweet_counts.tsv", encoding="utf-8") as fh:
        counts, _ = parse_counts_table(fh)
    # john's double "make money" inside t07 counts once
    assert (counts["c03"].m, counts["c03"].f) == (2, 1)
    assert (counts["c04"].m, counts["c04"].f) == (2, 1)
    assert read_manifest(out / "tweet_manifest.tsv")["dedup"] == "true"


def test_extended_pronouns_attributes_him(tmp_path, lexdir):
    out = tmp_path / "out"
    assert main(score_args("document", out, lexdir, "--extended-pronouns", "true")) == 0
    with open(out / "document_counts.tsv", encoding="utf-8") as fh:
        counts, _ = parse_counts_table(fh)
    # "They asked him to solve the problem" now resolves via "him"
    assert (counts["c02"].m, counts["c02"].f) == (2, 0)
    assert read_manifest(out / "document_manifest.tsv")["matches_unattributed"] == "1"


def test_plain_document_format(tmp_path, lexdir, capsys):
    corpus = tmp_path / "plain.txt"
    corpus.write_text("she solve a problem\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main(
        score_args("document", out, lexdir, "--document-corpus", str(corpus),
                   "--document-format", "plain")
    )
    assert rc == 0
    manifest = read_manifest(out / "document_manifest.tsv")
    # matching works on the lowercased surfaces, but without POS tags the
    # context heuristic can never attribute anything
    assert manifest["matches_total"] == "1"
    assert manifest["occurrences_attributed"] == "0"
    assert "empty" in capsys.readouterr().err


def test_zero_match_corpus(tmp_path, lexdir, capsys):
    corpus = tmp_path / "t.tsv"
    corpus.write_text("t1\tMary J\ti|PP|i sleep|VVP|sleep\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main(score_args("tweet", out, lexdir, "--tweet-corpus", str(corpus)))
    assert rc == 0
    assert "empty" in capsys.readouterr().err
    assert read(out / "tweet_counts.tsv").startswith("# phrase_id")
    assert len(read(out / "tweet_counts.tsv").splitlines()) == 1
    assert len(read(out / "tweet_scores.tsv").splitlines()) == 1


def test_degenerate_single_gender_half(tmp_path, lexdir, capsys):
    lines = (FIXTURES / "tweets.tsv").read_text(encoding="utf-8").splitlines(True)
    corpus = tmp_path / "female_half.tsv"
    corpus.write_text("".join(lines[:6]), encoding="utf-8")
    out = tmp_path / "out"
    rc = main(score_args("tweet", out, lexdir, "--tweet-corpus", str(corpus)))
    assert rc == 2
    err = capsys.readouterr().err
    assert "degenerate" in err and "female" in err
    # counts are still corpus facts and must be written for later merging
    assert (out / "tweet_counts.tsv").is_file()
    assert (out / "tweet_manifest.tsv").is_file()
    assert not (out / "tweet_scores.tsv").exists()


# --- partitioned runs -----------------------------------------------------------


@pytest.mark.parametrize("ways", [1, 2, 4])
def test_partition_merge_matches_whole(tmp_path, lexdir, ways):
    lines = (FIXTURES / "tweets.tsv").read_text(encoding="utf-8").splitlines(True)
    count_files = []
    for i in range(ways):
        part = tmp_path / f"part{i}.tsv"
        part.write_text("".join(lines[i::ways]), encoding="utf-8")
        out = tmp_path / f"out{i}"
        rc = main(score_args("tweet", out, lexdir, "--tweet-corpus", str(part)))
        assert rc in (0, 2)  # single-gender partitions still emit counts
        count_files.append(str(out / "tweet_counts.tsv"))
    merged = tmp_path / "merged"
    rc = main(
        ["merge-counts", "--config", CFG, "--output-dir", str(merged), *count_files]
    )
    assert rc == 0
    assert read(merged / "merged_counts.tsv") == read(EXPECTED / "tweet_counts.tsv")
    assert read(merged / "merged_scores.tsv") == read(EXPECTED / "tweet_scores.tsv")
    manifest = read_manifest(merged / "merged_manifest.tsv")
    assert manifest["inputs"] == str(ways)
    assert manifest["occurrences_male"] == "14"
    assert manifest["occurrences_female"] == "11"


def test_merge_counts_missing_input(tmp_path):
    rc = main(["merge-counts", "--output-dir", str(tmp_path / "o"), str(tmp_path / "no.tsv")])
    assert rc == 1


# --- evaluate --------------------------------------------------------------------


def eval_args(out, *extra):
    return [
        "evaluate", "--config", CFG, "--output-dir", str(out),
        "--scores", str(EXPECTED / "tweet_scores.tsv"), str(EXPECTED / "document_scores.tsv"),
        *extra,
    ]


def test_evaluate_ratings_golden(tmp_path):
    out = tmp_path / "out"
    rc = main(eval_args(out, "--ratings", str(FIXTURES / "ratings.tsv")))
    assert rc == 0
    assert read(out / "eval_report.tsv") == read(EXPECTED / "eval_report.tsv")
    assert read(out / "scatter.tsv") == read(EXPECTED / "scatter.tsv")
    assert read(out / "gold_aggregated.tsv") == read(EXPECTED / "gold_aggregated.tsv")
    manifest = read_manifest(out / "eval_manifest.tsv")
    assert manifest["gold_entries"] == "13"
    assert manifest["gold_nonzero_mean"] == "11"
    assert manifest["predictions_matching_signs"] == "6"


def test_evaluate_gold_route_matches_ratings_route(tmp_path):
    out = tmp_path / "out"
    rc = main(eval_args(out, "--gold", str(FIXTURES / "gold.tsv")))
    assert rc == 0
    assert read(out / "eval_report.tsv") == read(EXPECTED / "eval_report.tsv")
    # aggregation artifact only appears on the ratings route
    assert not (out / "gold_aggregated.tsv").exists()


def test_evaluate_single_table(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["evaluate", "--config", CFG, "--output-dir", str(out),
         "--scores", str(EXPECTED / "tweet_scores.tsv"),
         "--gold", str(FIXTURES / "gold.tsv")]
    )
    assert rc == 0
    report = read(out / "eval_report.tsv").splitlines()
    assert len(report) == 2
    assert report[1].startswith("tweet_scores\t")
    assert not (out / "scatter.tsv").exists()


def test_evaluate_requires_exactly_one_gold_source(tmp_path):
    out = tmp_path / "out"
    assert main(eval_args(out)) == 1
    assert (
        main(
            eval_args(
                out,
                "--gold", str(FIXTURES / "gold.tsv"),
                "--ratings", str(FIXTURES / "ratings.tsv"),
            )
        )
        == 1
    )
    assert not out.exists()


def test_evaluate_rejects_three_tables(tmp_path):
    rc = main(
        ["evaluate", "--config", CFG, "--output-dir", str(tmp_path / "o"),
         "--scores", str(EXPECTED / "tweet_scores.tsv"),
         str(EXPECTED / "document_scores.tsv"), str(EXPECTED / "tweet_scores.tsv"),
         "--gold", str(FIXTURES / "gold.tsv")]
    )
    assert rc == 1


def test_evaluate_disjoint_gold_is_degenerate(tmp_path):
    gold = tmp_path / "gold.tsv"
    gold.write_text("zz\tnothing here\t1.0\t5\n", encoding="utf-8")
    rc = main(eval_args(tmp_path / "out", "--gold", str(gold)))
    assert rc == 2
    assert not (tmp_path / "out").exists()


# --- sanity ---------------------------------------------------------------------


def test_sanity_golden(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["sanity", "--config", CFG, "--output-dir", str(out),
         "--probes", str(FIXTURES / "probes.txt")]
    )
    assert rc == 0
    assert read(out / "sanity.tsv") == read(EXPECTED / "sanity.tsv")
    manifest = read_manifest(out / "sanity_manifest.tsv")
    assert manifest == {
        "probes_in": "4", "rows_reported": "4", "probes_omitted": "0", "seed": "0",
    }


def test_sanity_seed_flag_lands_in_artifacts(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["sanity", "--config", CFG, "--output-dir", str(out),
         "--probes", str(FIXTURES / "probes.txt"), "--seed", "5"]
    )
    assert rc == 0
    assert read(out / "sanity.tsv").splitlines()[0] == "# seed=5"


def test_sanity_unmentioned_probe_warns(tmp_path, capsys):
    probes = tmp_path / "p.txt"
    probes.write_text("take note\nmake money\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main(
        ["sanity", "--config", CFG, "--output-dir", str(out), "--probes", str(probes)]
    )
    assert rc == 0
    assert "take note" in capsys.readouterr().err
    manifest = read_manifest(out / "sanity_manifest.tsv")
    assert manifest["probes_omitted"] == "1"


def test_sanity_empty_probes(tmp_path):
    probes = tmp_path / "p.txt"
    probes.write_text("# nothing\n", encoding="utf-8")
    rc = main(
        ["sanity", "--config", CFG, "--output-dir", str(tmp_path / "o"),
         "--probes", str(probes)]
    )
    assert rc == 1


# --- error handling and fail-fast -------------------------------------------------


def test_missing_config_file(tmp_path, capsys):
    rc = main(
        ["score", "--config", str(tmp_path / "nope.cfg"), "--kind", "tweet",
         "--output-dir", str(tmp_path / "o")]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery_knob = 3\n", encoding="utf-8")
    assert main(["build-lexicons", "--config", str(cfg)]) == 1


def test_malformed_corpus_fails_before_any_output(tmp_path, lexdir, capsys):
    corpus = tmp_path / "broken.tsv"
    corpus.write_text("t1\tMary J\ti|PP|i\nnot a record\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main(score_args("tweet", out, lexdir, "--tweet-corpus", str(corpus)))
    assert rc == 1
    assert "broken.tsv:2:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        (["score", "--kind", "tweet"], "--tweet-corpus"),
        (["score", "--kind", "document"], "--document-corpus"),
        (["build-lexicons"], "--male-names"),
    ],
    ids=["tweet", "document", "build-lexicons"],
)
def test_non_utf8_input_is_reported_without_traceback(tmp_path, lexdir, command, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"mary\n\xffjohn\n")
    out = tmp_path / "out"
    argv = [*command, "--config", CFG, "--lexicon-dir", str(lexdir), "--output-dir", str(out),
            flag, str(bad)]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "stereomine.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith(f"error: {bad}: ")
    assert "Traceback" not in done.stderr
    assert not out.exists()


def test_output_dir_collision(tmp_path, lexdir):
    out = tmp_path / "out"
    out.write_text("i am a file", encoding="utf-8")
    rc = main(score_args("tweet", out, lexdir))
    assert rc == 1
    assert out.read_text(encoding="utf-8") == "i am a file"


def test_unknown_flag_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["score", "--kind", "tweet", "--bogus-flag", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_bad_dominance_ratio_flag(tmp_path):
    rc = main(
        ["build-lexicons", "--config", CFG, "--output-dir", str(tmp_path / "o"),
         "--dominance-ratio", "0.5"]
    )
    assert rc == 1
    assert not (tmp_path / "o").exists()
