import pytest

from stereomine.corpus_io import VERB
from stereomine.errors import ConfigError, CorpusFormatError
from stereomine.lexicons import (
    ActionPhrase,
    Gender,
    build_verb_lexicon,
    extract_actions,
    guess_gender,
    load_concepts,
    load_name_lexicon,
    load_tag_counts,
    read_name_list,
)

# Surviving the fixture tag counts at dominance ratio 2.0, derived in
# tests/derive_expected.py: run (150v/100n), visit (300/200) and walk
# (200/100, the exact-tie case) all fail the strict dominance test.
FIXTURE_VERBS = {
    "become", "buy", "catch", "do", "feel", "get", "go", "long",
    "make", "play", "see", "solve", "take", "try", "want",
}


# --- name lists ------------------------------------------------------------


def test_read_name_list_counts_and_order(fixtures):
    names = read_name_list(fixtures / "names_male.txt")
    assert list(names)[:2] == ["john", "david"]
    assert names["jordan"] == 2000
    assert names["john"] == 5200


def test_read_name_list_rejects_multiword(tmp_path):
    path = tmp_path / "n.txt"
    path.write_text("mary anne\t3\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError):
        read_name_list(path)


def test_read_name_list_rejects_bad_count(tmp_path):
    path = tmp_path / "n.txt"
    path.write_text("mary\tlots\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError):
        read_name_list(path)


def test_read_name_list_rejects_extra_fields(tmp_path):
    path = tmp_path / "n.txt"
    path.write_text("mary\t3\nbob\t3\tjunk\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as exc:
        read_name_list(path)
    assert f"{path}:2:" in str(exc.value)


def test_read_name_list_rejects_empty(tmp_path):
    path = tmp_path / "n.txt"
    path.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        read_name_list(path)


def test_conflicted_names_drop_from_both_sides(name_lexicon):
    # taylor and jordan sit on both fixture lists
    assert "taylor" not in name_lexicon.male_names
    assert "taylor" not in name_lexicon.female_names
    assert "jordan" not in name_lexicon.male_names
    assert "jordan" not in name_lexicon.female_names
    assert len(name_lexicon.male_names) == 6
    assert len(name_lexicon.female_names) == 6


def test_guess_gender(name_lexicon):
    assert guess_gender("mary", name_lexicon) is Gender.FEMALE
    assert guess_gender("MARY", name_lexicon) is Gender.FEMALE
    assert guess_gender("john", name_lexicon) is Gender.MALE
    assert guess_gender("taylor", name_lexicon) is Gender.UNKNOWN
    assert guess_gender("xq17", name_lexicon) is Gender.UNKNOWN
    assert guess_gender("", name_lexicon) is Gender.UNKNOWN


# --- tag counts and the verb lexicon ----------------------------------------


def test_load_tag_counts_sums_duplicates(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("make\tVV\t10\nmake\tVV\t5\nmake\tNN\t3\n", encoding="utf-8")
    assert load_tag_counts(path) == {"make": {"VV": 15, "NN": 3}}


def test_load_tag_counts_rejects_garbage(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("make\tVV\tmany\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError):
        load_tag_counts(path)
    path.write_text("make\tVV\t-1\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError):
        load_tag_counts(path)
    path.write_text("make\tVV\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError):
        load_tag_counts(path)


def test_fixture_verb_lexicon(fixtures, tag_map):
    counts = load_tag_counts(fixtures / "tag_counts.tsv")
    verbs = build_verb_lexicon(counts, dominance_ratio=2.0, tag_map=tag_map)
    assert verbs.verbs == frozenset(FIXTURE_VERBS)
    assert "make" in verbs  # __contains__
    assert "school" not in verbs


def test_dominance_is_strict():
    tag_map = {"VV": VERB}
    # 200 verb vs 100 noun at ratio 2.0 is a tie, not dominance
    counts = {"walk": {"VV": 200, "NN": 100}}
    assert build_verb_lexicon(counts, 2.0, tag_map).verbs == frozenset()
    counts = {"walk": {"VV": 201, "NN": 100}}
    assert build_verb_lexicon(counts, 2.0, tag_map).verbs == frozenset({"walk"})


def test_dominance_compares_against_largest_nonverb_tag():
    tag_map = {"VV": VERB}
    # verb total 300 beats each of NN=100/JJ=140 summed? no: only the max
    # nonverb count matters, so 300 > 2*140 holds
    counts = {"x": {"VV": 300, "NN": 100, "JJ": 140}}
    assert "x" in build_verb_lexicon(counts, 2.0, tag_map)
    counts = {"x": {"VV": 300, "NN": 100, "JJ": 160}}
    assert "x" not in build_verb_lexicon(counts, 2.0, tag_map)


def test_verb_tags_are_summed():
    tag_map = {"VV": VERB, "VVZ": VERB}
    counts = {"x": {"VV": 60, "VVZ": 50, "NN": 50}}
    # 110 > 100
    assert "x" in build_verb_lexicon(counts, 2.0, tag_map)


def test_never_tagged_verb_never_included():
    assert "money" not in build_verb_lexicon({"money": {"NN": 1}}, 1.0, {"VV": VERB})


def test_only_verb_tags_always_included():
    tag_map = {"VV": VERB}
    for ratio in (1.0, 2.0, 100.0):
        assert "x" in build_verb_lexicon({"x": {"VV": 1}}, ratio, tag_map)


def test_dominance_ratio_below_one_rejected():
    # so is a non-finite one: at inf, ``inf * 0`` is nan and a verb-only
    # lemma would silently drop out
    for ratio in (0.5, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match=f"dominance_ratio must be finite and >= 1, got {ratio}"):
            build_verb_lexicon({"x": {"VV": 1}}, ratio, {"VV": VERB})


def test_negative_count_rejected():
    with pytest.raises(ConfigError):
        build_verb_lexicon({"x": {"VV": -1}}, 2.0, {"VV": VERB})


def test_only_mapped_verb_tags_count():
    counts = {"x": {"VV": 100}, "y": {VERB: 100}}
    verbs = build_verb_lexicon(counts, 2.0, {VERB: VERB})
    assert verbs.verbs == frozenset({"y"})


# --- action phrase extraction ------------------------------------------------


def test_fixture_actions(actions):
    assert [a.source_id for a in actions] == [f"c{i:02d}" for i in range(1, 13)]
    by_id = {a.source_id: a for a in actions}
    assert by_id["c01"].lemmas == ("become", "nurse")
    assert by_id["c12"].lemmas == ("try", "solve", "problem")
    assert by_id["c09"].text == "long holiday"


def test_extract_skips_single_token_and_nonverb_initial(fixtures, actions):
    kept = {a.source_id for a in actions}
    # single-token concepts
    assert {"c13", "c22", "c23", "c24"}.isdisjoint(kept)
    # multi-word but not verb-initial
    assert {"c14", "c18", "c25", "c30"}.isdisjoint(kept)
    # verb-initial but the verb failed dominance
    assert {"c15", "c16", "c17"}.isdisjoint(kept)


def test_extract_keeps_duplicates_and_lowercases():
    verbs = build_verb_lexicon({"make": {"VV": 10}}, 2.0, {"VV": VERB})
    actions = extract_actions(
        [("a1", "MAKE Money"), ("a2", "make money"), ("x", "tree house")], verbs
    )
    assert [(a.source_id, a.lemmas) for a in actions] == [
        ("a1", ("make", "money")),
        ("a2", ("make", "money")),
    ]


def test_load_concepts_rejects_bad_arity(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("c1\tmake money\textra\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError):
        list(load_concepts(path))


def test_action_phrase_validation():
    with pytest.raises(ValueError):
        ActionPhrase(lemmas=("solo",), source_id="x")
    with pytest.raises(ValueError):
        ActionPhrase(lemmas=("a", "b c"), source_id="x")
    assert ActionPhrase(lemmas=("make", "money"), source_id="x").text == "make money"
