import argparse
import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stereomine import cli
from stereomine.cli import build_parser, main
from stereomine.config import CONFIG_KEYS
from stereomine.corpus_io import default_tag_map, parse_document_records, parse_tweet_stream
from stereomine.errors import CorpusFormatError, open_text
from stereomine.scoring import SCORE_COLUMNS, parse_counts_table, parse_score_table

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


def test_build_lexicons_reads_each_name_list_once(tmp_path, monkeypatch):
    import stereomine.cli
    import stereomine.lexicons

    reads = []
    read_name_list = stereomine.lexicons.read_name_list

    def counting(path):
        reads.append(Path(path).name)
        return read_name_list(path)

    monkeypatch.setattr(stereomine.cli, "read_name_list", counting)
    monkeypatch.setattr(stereomine.lexicons, "read_name_list", counting)
    assert main(["build-lexicons", "--config", CFG, "--output-dir", str(tmp_path)]) == 0
    assert sorted(reads) == ["names_female.txt", "names_male.txt"]
    assert read(tmp_path / "names_male.txt") == read(EXPECTED / "names_male.txt")


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


def test_document_format_key_is_unknown(tmp_path, lexdir, capsys):
    """The ``document_format`` key and its ``plain`` format are gone: a
    config that still sets it fails before any output."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(read(CFG) + "document_format = vertical\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = score_args("document", out, lexdir)
    argv[argv.index(CFG)] = str(cfg)
    assert main(argv) == 1
    assert "unknown key 'document_format'" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("kind", ["tweet", "document"])
def test_empty_action_set(tmp_path, lexdir, capsys, monkeypatch, kind, count):
    # forced shard counts: the shards' zero-length tallies still sum
    monkeypatch.setattr(cli, "shard_count", lambda path: count)
    empty = tmp_path / "lex"
    empty.mkdir()
    for name in ("names_male.txt", "names_female.txt"):
        (empty / name).write_text(read(lexdir / name), encoding="utf-8")
    (empty / "actions.tsv").write_text("# phrase_id\tphrase_text\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(score_args(kind, out, empty)) == 0
    assert "empty" in capsys.readouterr().err
    for table in ("counts", "scores"):
        assert len(read(out / f"{kind}_{table}.tsv").splitlines()) == 1
    manifest = read_manifest(out / f"{kind}_manifest.tsv")
    assert manifest["matches_total"] == "0"
    assert manifest["records_read"] != "0"


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


def test_evaluate_rejects_a_repeated_phrase_id(tmp_path):
    text = read(EXPECTED / "tweet_scores.tsv")
    table = tmp_path / "tweet_scores.tsv"
    table.write_text(text + text.splitlines()[1] + "\n", encoding="utf-8")
    out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(
            ["evaluate", "--config", CFG, "--output-dir", str(out),
             "--scores", str(table), "--gold", str(FIXTURES / "gold.tsv")]
        )
    assert rc == 1
    assert err.getvalue() == f"error: {table}:13: duplicate phrase_id 'c01'\n"
    assert not out.exists()


def test_evaluate_rejects_a_negative_count_or_a_non_finite_score(tmp_path):
    rows = read(EXPECTED / "tweet_scores.tsv").splitlines(True)
    table = tmp_path / "tweet_scores.tsv"
    out = tmp_path / "out"
    for column, value, message in (("m", "-5", "negative count -5"), ("z", "nan", "non-finite z 'nan'")):
        fields = rows[2].rstrip("\n").split("\t")
        fields[SCORE_COLUMNS.index(column)] = value
        table.write_text("".join(rows[:2] + ["\t".join(fields) + "\n"] + rows[3:]), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(
                ["evaluate", "--config", CFG, "--output-dir", str(out),
                 "--scores", str(table), "--gold", str(FIXTURES / "gold.tsv")]
            )
        assert rc == 1
        assert err.getvalue() == f"error: {table}:3: {message}\n"
        assert not out.exists()


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


# each fault line goes after the fixture's first record and a blank line
TWEET_FAULTS = {
    "2 fields": "t99\tMary J",
    "4 fields": "t99\tMary J\ti|PP|i\tmore",
    "duplicate id": "t01\tMary J\ti|PP|i",
    "no lemma field": "t99\tMary J\ti|PP|i broken|NN",
    "empty lemma": "t99\tMary J\tword|NN|",
    "bad token after a break": "t99\tMary J\ti|PP|i </s> broken",
}


@pytest.mark.parametrize("fault", sorted(TWEET_FAULTS))
def test_tweet_score_reports_the_parsers_error(tmp_path, lexdir, capsys, fault):
    """``score --kind tweet`` fails with the error ``parse_tweet_stream``
    raises on the same file, at the same line."""
    first, *rest = read(FIXTURES / "tweets.tsv").splitlines(keepends=True)
    corpus = tmp_path / "faulty.tsv"
    corpus.write_text("".join([first, "\n", TWEET_FAULTS[fault] + "\n", *rest]), encoding="utf-8")
    with pytest.raises(CorpusFormatError) as parsed, open_text(corpus) as fh:
        list(parse_tweet_stream(fh, default_tag_map(), path=str(corpus)))
    assert str(parsed.value).startswith(f"{corpus}:3: ")
    out = tmp_path / "out"
    assert main(score_args("tweet", out, lexdir, "--tweet-corpus", str(corpus))) == 1
    assert capsys.readouterr().err == f"error: {parsed.value}\n"
    assert not out.exists()


# each fault line goes third, after a header and a token line
DOCUMENT_FAULTS = {
    "bare #doc": "#doc",
    "2 fields": "w\tNN",
    "4 fields": "w\tNN\tw\tx",
    "empty lemma": "w\tNN\t ",
    "inner space": "w\tNN\ta b",
}


@pytest.mark.parametrize("fault", sorted(DOCUMENT_FAULTS))
def test_document_score_reports_the_parsers_error(tmp_path, lexdir, capsys, fault):
    """``score --kind document`` fails with the error
    ``parse_document_records`` raises on the same file, at the same line."""
    lines = read(FIXTURES / "docs.vert").splitlines(keepends=True)
    corpus = tmp_path / "faulty.vert"
    faulty = [*lines[:2], DOCUMENT_FAULTS[fault] + "\n", *lines[2:]]
    corpus.write_text("".join(faulty), encoding="utf-8")
    with pytest.raises(CorpusFormatError) as parsed, open_text(corpus) as fh:
        list(parse_document_records(fh, default_tag_map(), path=str(corpus)))
    assert str(parsed.value).startswith(f"{corpus}:3: ")
    out = tmp_path / "out"
    assert main(score_args("document", out, lexdir, "--document-corpus", str(corpus))) == 1
    assert capsys.readouterr().err == f"error: {parsed.value}\n"
    assert not out.exists()


def test_tweet_score_still_reads_the_tag_map(tmp_path, lexdir, capsys):
    """The tweet route uses no tags, but a malformed tag map fails it."""
    tag_map = tmp_path / "tags.tsv"
    tag_map.write_text("VV\tVERB\nNN\tNOUN\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(score_args("tweet", out, lexdir, "--tag-map", str(tag_map))) == 1
    assert capsys.readouterr().err.startswith(f"error: {tag_map}:2: unknown coarse tag 'NOUN'")
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


def test_every_option_and_config_key_is_in_the_readme():
    readme = read(Path(__file__).parent.parent / "README.md")
    key_flags = {"--" + key.replace("_", "-") for key in CONFIG_KEYS}
    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    undocumented = [
        f"{name} {option}"
        for name, sub in commands.choices.items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if option not in key_flags and not re.search(re.escape(option) + r"(?![\w-])", readme)
    ]
    assert undocumented == []
    table = readme.split("## Configuration reference", 1)[1]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    assert [key for key in CONFIG_KEYS if not any(f"`{key}`" in row for row in rows)] == []


def test_bad_dominance_ratio_flag(tmp_path):
    for ratio in ("0.5", "nan", "inf"):
        rc = main(
            ["build-lexicons", "--config", CFG, "--output-dir", str(tmp_path / "o"),
             "--dominance-ratio", ratio]
        )
        assert rc == 1, ratio
        assert not (tmp_path / "o").exists()


# --- arbitrary and mutated bytes in every file input ------------------------------

TAG_MAP = b"# fine\tcoarse\nVV\tVERB\nPP\tPRONOUN\nNP\tPROPER_NOUN\nNN\tOTHER\n"
# the fixture config with absolute input paths, so a copy elsewhere reads the same files
CONFIG = "".join(
    line.replace(" = ", f" = {FIXTURES}/") if line.rstrip().endswith((".tsv", ".vert", ".txt")) else line
    for line in read(CFG).splitlines(keepends=True)
).encode("utf-8")

SCORES = ["--scores", str(EXPECTED / "tweet_scores.tsv"), str(EXPECTED / "document_scores.tsv")]

# each file input of main: the bytes a mutation starts from, and the arguments
# of a run that reads the file named next
FILE_INPUTS = {
    "tweet corpus": (FIXTURES / "tweets.tsv", ["score", "--kind", "tweet", "--tweet-corpus"]),
    "vertical corpus": (FIXTURES / "docs.vert", ["score", "--kind", "document", "--document-corpus"]),
    "names": (FIXTURES / "names_male.txt", ["build-lexicons", "--male-names"]),
    "concepts": (FIXTURES / "concepts.tsv", ["build-lexicons", "--concepts"]),
    "tag counts": (FIXTURES / "tag_counts.tsv", ["build-lexicons", "--tag-counts"]),
    "tag map": (TAG_MAP, ["score", "--kind", "document", "--tag-map"]),
    "word list": (FIXTURES / "wordlist.txt", ["score", "--kind", "tweet", "--wordlist"]),
    "ratings": (FIXTURES / "ratings.tsv", ["evaluate", *SCORES, "--ratings"]),
    "gold": (FIXTURES / "gold.tsv", ["evaluate", *SCORES, "--gold"]),
    "scores": (
        EXPECTED / "tweet_scores.tsv",
        ["evaluate", "--gold", str(FIXTURES / "gold.tsv"), "--scores",
         str(EXPECTED / "document_scores.tsv")],
    ),
    "probes": (FIXTURES / "probes.txt", ["sanity", "--probes"]),
    "counts table": (
        EXPECTED / "tweet_counts.tsv", ["merge-counts", str(EXPECTED / "document_counts.tsv")]
    ),
    "config": (CONFIG, ["build-lexicons", "--config"]),
}

PIECES = [b"\t", b"\n", b"\r\n", b"\r", b" ", b"|", b"#", b"#doc", b"</s>", b"=", b"\x00",
          b"\xff", b"\xc3", b"\xe2\x80\x83", b"-", b"0", b"-1", b"1e999", b"nan", b"X"]


@st.composite
def mutated(draw, seed: bytes):
    """The seed bytes under a few random edits, or arbitrary bytes."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=300))
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        piece = draw(st.sampled_from(PIECES) | st.binary(min_size=1, max_size=6))
        edit = draw(st.sampled_from(["insert", "replace", "delete", "repeat"]))
        if edit == "insert":
            data[at:at] = piece
        elif edit == "replace":
            data[at : at + len(piece)] = piece
        elif edit == "delete":
            del data[at : at + draw(st.integers(1, 40))]
        else:
            data[at:at] = data[at : at + draw(st.integers(1, 80))]
    return bytes(data)


@pytest.mark.parametrize("name", sorted(FILE_INPUTS))
def test_mutated_file_inputs_exit_cleanly(name, lexdir):
    """Whatever one input file holds, main returns 0, 1 or 2, prints an
    ``error:`` line when it fails, and lets no exception escape."""
    seed, args = FILE_INPUTS[name]
    seed = seed if isinstance(seed, bytes) else seed.read_bytes()

    def run(data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input"
            path.write_bytes(data)
            out = str(Path(tmp) / "out")
            argv = [*args, str(path)]
            if "--config" not in argv:
                argv += ["--config", CFG]
            argv += ["--output-dir", out, "--lexicon-dir", str(lexdir)]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                return main(argv), err.getvalue()

    assert run(seed)[0] == 0

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=mutated(seed))
    def check(data):
        rc, err = run(data)
        assert rc in (0, 1, 2)
        if rc:
            assert any(line.startswith("error: ") for line in err.splitlines())

    check()
