from pathlib import Path

import pytest

from stereomine.config import (
    CONFIG_KEYS,
    RunConfig,
    build_config,
    load_config,
    parse_config_file,
)
from stereomine.errors import ConfigError


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_config_file(tmp_path):
    path = write_cfg(
        tmp_path,
        "# comment\n"
        "seed = 7   # trailing comment\n"
        "tweet_corpus = tweets.tsv\n"
        "\n"
        "dedup = yes\n",
    )
    assert parse_config_file(path) == {
        "seed": "7",
        "tweet_corpus": "tweets.tsv",
        "dedup": "yes",
    }


def test_hash_inside_value_is_not_a_comment(tmp_path):
    (tmp_path / "corpus#2.tsv").write_text("", encoding="utf-8")
    path = write_cfg(tmp_path, "tweet_corpus = corpus#2.tsv # the second corpus\n")
    config = load_config(path, {})
    assert config.tweet_corpus == tmp_path / "corpus#2.tsv"
    assert config.tweet_corpus.is_file()


def test_unknown_key_rejected(tmp_path):
    path = write_cfg(tmp_path, "bogus = 1\n")
    with pytest.raises(ConfigError) as exc:
        parse_config_file(path)
    assert "bogus" in str(exc.value)


def test_missing_equals_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config_file(write_cfg(tmp_path, "seed 7\n"))


def test_empty_value_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config_file(write_cfg(tmp_path, "seed =\n"))


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        parse_config_file(tmp_path / "nope.cfg")


def test_file_paths_resolve_against_config_dir(tmp_path):
    path = write_cfg(tmp_path, "tweet_corpus = data/tweets.tsv\n")
    config = load_config(path, {})
    assert config.tweet_corpus == tmp_path / "data" / "tweets.tsv"


def test_absolute_file_paths_kept(tmp_path):
    path = write_cfg(tmp_path, f"tweet_corpus = {tmp_path / 'abs.tsv'}\n")
    config = load_config(path, {})
    assert config.tweet_corpus == tmp_path / "abs.tsv"


def test_override_paths_stay_cwd_relative(tmp_path):
    path = write_cfg(tmp_path, "tweet_corpus = a.tsv\n")
    config = load_config(path, {"tweet_corpus": "b.tsv"})
    assert config.tweet_corpus == Path("b.tsv")


def test_overrides_beat_file_values(tmp_path):
    path = write_cfg(tmp_path, "seed = 1\ndominance_ratio = 2.0\n")
    config = load_config(path, {"seed": "9"})
    assert config.seed == 9
    assert config.dominance_ratio == 2.0


def test_none_overrides_are_ignored(tmp_path):
    path = write_cfg(tmp_path, "seed = 4\n")
    config = load_config(path, {key: None for key in CONFIG_KEYS})
    assert config.seed == 4


def test_type_coercion_errors():
    with pytest.raises(ConfigError):
        build_config({"seed": "four"}, {})
    with pytest.raises(ConfigError):
        build_config({"dominance_ratio": "high"}, {})
    with pytest.raises(ConfigError):
        build_config({"dedup": "maybe"}, {})


def test_bool_spellings():
    for raw, value in (("1", True), ("on", True), ("No", False), ("FALSE", False)):
        assert build_config({"dedup": raw}, {}).dedup is value


def test_document_format_validated():
    assert build_config({"document_format": "plain"}, {}).document_format == "plain"
    with pytest.raises(ConfigError):
        build_config({"document_format": "horizontal"}, {})


def test_min_occurrences_validated():
    with pytest.raises(ConfigError):
        build_config({"min_occurrences": "0"}, {})


def test_defaults():
    config = build_config({}, {})
    assert config.output_dir == Path("out")
    assert config.lexicon_dir is None
    assert config.max_nonenglish_ratio == 0.20
    assert config.extended_pronouns is False


def test_require_missing_key():
    config = build_config({}, {})
    with pytest.raises(ConfigError) as exc:
        config.require("tweet_corpus")
    assert "tweet_corpus" in str(exc.value)


def test_require_missing_file(tmp_path):
    config = build_config({"tweet_corpus": str(tmp_path / "gone.tsv")}, {})
    with pytest.raises(ConfigError) as exc:
        config.require("tweet_corpus")
    assert "no such file" in str(exc.value)


def test_require_accepts_existing(tmp_path):
    corpus = tmp_path / "t.tsv"
    corpus.write_text("t1\tA\thi|NN|hi\n", encoding="utf-8")
    config = build_config({"tweet_corpus": str(corpus)}, {})
    config.require("tweet_corpus")


def test_config_keys_cover_dataclass():
    assert set(CONFIG_KEYS) == {f for f in RunConfig.__dataclass_fields__}
