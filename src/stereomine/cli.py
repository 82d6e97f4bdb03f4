"""Command-line pipeline over declarative configs.

Subcommands: build-lexicons, score, evaluate, sanity, and merge-counts
(test support).  Every artifact is a TSV written atomically after the
whole run has succeeded, so a failing run leaves no partial outputs,
and every run emits a manifest of stage counts next to its artifacts.

Exit codes: 0 success, 1 input or configuration error, 2 degenerate
data.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import warnings
from pathlib import Path

from .attribution import (
    DEFAULT_PRONOUNS,
    EXTENDED_PRONOUNS,
    GenderedOccurrence,
    Source,
    attribute_by_author,
    attribute_by_context,
)
from .config import CONFIG_KEYS, RunConfig, load_config, strip_comment
from .corpus_io import (
    DocumentRecord,
    EnglishFilterConfig,
    default_tag_map,
    default_wordlist,
    load_tag_map,
    load_wordlist,
    parse_document_records,
    parse_plain_stream,
    parse_tweet_stream,
    passes_english_filter,
)
from .errors import ConfigError, CorpusFormatError, DegenerateDataError, open_text
from .evaluation import (
    aggregate_gold,
    evaluate_method,
    format_eval_reports,
    format_gold,
    format_sanity_table,
    format_scatter,
    load_gold,
    load_ratings,
    sanity_proportions,
)
from .lexicons import (
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
from .matcher import compile_phrases, find_matches
from .scoring import (
    aggregate,
    combine_average,
    format_counts_table,
    format_score_table,
    matching_signs_filter,
    merge_counts,
    parse_counts_table,
    parse_score_table,
    score_counts,
)

ACTIONS_HEADER = "# phrase_id\tphrase_text"


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(output_dir: Path, artifacts: dict[str, str]) -> None:
    """Write all artifacts of a successful run; nothing is written until
    every value has been computed."""
    output_dir.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts.items():
        _atomic_write(output_dir / name, text)


def _manifest(pairs: list[tuple[str, object]]) -> str:
    return "".join(f"{key}\t{value}\n" for key, value in pairs)


def _check_optional_paths(config: RunConfig, *keys: str) -> None:
    for key in keys:
        value = getattr(config, key)
        if value is not None and not value.is_file():
            raise ConfigError(f"{key}: no such file: {value}")


def _tag_map(config: RunConfig) -> dict[str, str]:
    return load_tag_map(config.tag_map) if config.tag_map else default_tag_map()


def _wordlist(config: RunConfig) -> frozenset[str]:
    return load_wordlist(config.wordlist) if config.wordlist else default_wordlist()


def _load_actions(path: Path) -> list[ActionPhrase]:
    actions = []
    for pid, text in load_concepts(path):
        try:
            actions.append(ActionPhrase(lemmas=tuple(text.lower().split()), source_id=pid))
        except ValueError as exc:
            raise ConfigError(f"{path}: bad action {pid!r}: {exc}") from None
    return actions


def cmd_build_lexicons(config: RunConfig) -> int:
    config.require("concepts", "tag_counts", "male_names", "female_names")
    _check_optional_paths(config, "tag_map")
    tag_map = _tag_map(config)

    raw_male = read_name_list(config.male_names)
    raw_female = read_name_list(config.female_names)
    conflicts = len(set(raw_male) & set(raw_female))
    lexicon = load_name_lexicon(config.male_names, config.female_names)

    tag_counts = load_tag_counts(config.tag_counts)
    verbs = build_verb_lexicon(tag_counts, config.dominance_ratio, tag_map)
    concepts = list(load_concepts(config.concepts))
    actions = extract_actions(concepts, verbs)
    if not verbs.verbs:
        _log("warning: verb lexicon is empty; no concept can be verb-initial")
    if not actions:
        _log("warning: no verb-initial multi-word concepts; actions.tsv will be empty")

    action_lines = [ACTIONS_HEADER] + [f"{a.source_id}\t{a.text}" for a in actions]
    artifacts = {
        "names_male.txt": "".join(f"{n}\n" for n in sorted(lexicon.male_names)),
        "names_female.txt": "".join(f"{n}\n" for n in sorted(lexicon.female_names)),
        "verbs.txt": "".join(f"{v}\n" for v in sorted(verbs.verbs)),
        "actions.tsv": "\n".join(action_lines) + "\n",
        "lexicons_manifest.tsv": _manifest(
            [
                ("male_names_in", len(raw_male)),
                ("female_names_in", len(raw_female)),
                ("name_conflicts_dropped", conflicts),
                ("male_names_kept", len(lexicon.male_names)),
                ("female_names_kept", len(lexicon.female_names)),
                ("lemmas_in_tag_counts", len(tag_counts)),
                ("verbs_in_lexicon", len(verbs.verbs)),
                ("concepts_in", len(concepts)),
                ("actions_out", len(actions)),
            ]
        ),
    }
    _emit(config.output_dir, artifacts)
    _log(
        f"build-lexicons: {len(concepts)} concepts in, {len(actions)} actions out, "
        f"{len(verbs.verbs)} verbs in lexicon, {conflicts} name conflicts dropped"
    )
    return 0


def _score_tweets(config: RunConfig, actions, lexicon, phrase_texts):
    config.require("tweet_corpus")
    _check_optional_paths(config, "tag_map", "wordlist")
    tag_map = _tag_map(config)
    english = EnglishFilterConfig(
        wordlist=_wordlist(config), max_nonenglish_ratio=config.max_nonenglish_ratio
    )
    automaton = compile_phrases(actions) if actions else None

    occurrences: list[GenderedOccurrence] = []
    records_read = filtered = author_unknown = matches_total = 0
    with open_text(config.tweet_corpus) as fh:
        for record in parse_tweet_stream(fh, tag_map, path=str(config.tweet_corpus)):
            records_read += 1
            if not passes_english_filter(record, english):
                filtered += 1
                continue
            if guess_gender(record.author_first_name, lexicon) is Gender.UNKNOWN:
                author_unknown += 1
            matches = []
            if automaton is not None:
                for i, sentence in enumerate(record.sentences):
                    matches.extend(find_matches(sentence, automaton, sentence_ref=i))
            matches_total += len(matches)
            occurrences.extend(attribute_by_author(record, matches, lexicon))

    stage_counts = [
        ("corpus", str(config.tweet_corpus)),
        ("records_read", records_read),
        ("records_failed_english_filter", filtered),
        ("records_kept", records_read - filtered),
        ("records_author_unknown", author_unknown),
        ("matches_total", matches_total),
        ("occurrences_attributed", len(occurrences)),
    ]
    return occurrences, stage_counts


def _score_documents(config: RunConfig, actions, lexicon, phrase_texts):
    config.require("document_corpus")
    _check_optional_paths(config, "tag_map")
    tag_map = _tag_map(config)
    pronouns = EXTENDED_PRONOUNS if config.extended_pronouns else DEFAULT_PRONOUNS
    automaton = compile_phrases(actions) if actions else None

    occurrences: list[GenderedOccurrence] = []
    records_read = sentences_read = matches_total = unattributed = 0
    with open_text(config.document_corpus) as fh:
        if config.document_format == "plain":
            records = (
                DocumentRecord(record_id=f"line{i}", sentences=(sentence,))
                for i, sentence in enumerate(
                    parse_plain_stream(fh, path=str(config.document_corpus)), start=1
                )
            )
        else:
            records = parse_document_records(
                fh, tag_map, path=str(config.document_corpus)
            )
        for record in records:
            records_read += 1
            for i, sentence in enumerate(record.sentences):
                sentences_read += 1
                if automaton is None:
                    continue
                for match in find_matches(sentence, automaton, sentence_ref=i):
                    matches_total += 1
                    gender = attribute_by_context(sentence, match, lexicon, pronouns)
                    if gender is Gender.UNKNOWN:
                        unattributed += 1
                        continue
                    occurrences.append(
                        GenderedOccurrence(
                            phrase_id=match.phrase_id,
                            gender=gender,
                            source=Source.CONTEXT_HEURISTIC,
                            record_id=record.record_id,
                        )
                    )

    stage_counts = [
        ("corpus", str(config.document_corpus)),
        ("records_read", records_read),
        ("sentences_read", sentences_read),
        ("matches_total", matches_total),
        ("matches_unattributed", unattributed),
        ("occurrences_attributed", len(occurrences)),
    ]
    return occurrences, stage_counts


def cmd_score(config: RunConfig, kind: str) -> int:
    lexdir = config.lexicon_dir or config.output_dir
    for name in ("actions.tsv", "names_male.txt", "names_female.txt"):
        if not (lexdir / name).is_file():
            raise ConfigError(
                f"missing lexicon artifact {lexdir / name}; run build-lexicons first"
            )
    actions = _load_actions(lexdir / "actions.tsv")
    lexicon = load_name_lexicon(lexdir / "names_male.txt", lexdir / "names_female.txt")
    phrase_texts = {a.source_id: a.text for a in actions}

    if kind == "tweet":
        occurrences, stage_counts = _score_tweets(config, actions, lexicon, phrase_texts)
    else:
        occurrences, stage_counts = _score_documents(config, actions, lexicon, phrase_texts)

    counts, ctx = aggregate(occurrences, dedup_per_record=config.dedup)
    scores = []
    degenerate: DegenerateDataError | None = None
    if not counts:
        _log(f"warning: no attributable phrase occurrences in {kind} corpus; tables will be empty")
    else:
        try:
            scores = score_counts(counts, ctx, config.min_occurrences)
        except DegenerateDataError as exc:
            # counts are still facts of the corpus and stay mergeable, so
            # they are written even though no score table can exist
            degenerate = exc

    stage_counts += [
        ("dedup", str(config.dedup).lower()),
        ("occurrences_male", ctx.M),
        ("occurrences_female", ctx.F),
        ("phrases_observed", len(counts)),
        ("phrases_scored", len(scores)),
    ]
    if ctx.N:
        stage_counts.append(("male_proportion", ctx.M / ctx.N))

    artifacts = {
        f"{kind}_counts.tsv": format_counts_table(counts, phrase_texts),
        f"{kind}_manifest.tsv": _manifest(stage_counts),
    }
    if degenerate is None:
        artifacts[f"{kind}_scores.tsv"] = format_score_table(scores, phrase_texts)
    _emit(config.output_dir, artifacts)
    if degenerate is not None:
        print(f"error: {degenerate}", file=sys.stderr)
        return 2
    _log(
        f"score[{kind}]: {len(occurrences)} occurrences "
        f"(M={ctx.M}, F={ctx.F}) over {len(counts)} phrases; {len(scores)} scored"
    )
    return 0


def cmd_evaluate(
    config: RunConfig,
    score_paths: list[Path],
    gold_path: Path | None,
    ratings_path: Path | None,
    half_credit_ties: bool = False,
) -> int:
    if not 1 <= len(score_paths) <= 2:
        raise ConfigError("evaluate takes one or two score tables")
    if (gold_path is None) == (ratings_path is None):
        raise ConfigError("exactly one of --gold or --ratings is required")
    for p in [*score_paths, gold_path or ratings_path]:
        if not p.is_file():
            raise ConfigError(f"no such file: {p}")

    tables = []
    for p in score_paths:
        with open_text(p) as fh:
            scores, texts = parse_score_table(fh, path=str(p))
        predictions = {s.phrase_id: s.z for s in scores if s.z is not None}
        tables.append((p.stem, predictions, texts))
    phrase_texts: dict[str, str] = {}
    for _, _, texts in tables:
        phrase_texts.update(texts)

    if ratings_path is not None:
        gold = aggregate_gold(load_ratings(ratings_path), phrase_texts=phrase_texts)
    else:
        gold = load_gold(gold_path)
    if not gold:
        raise DegenerateDataError("gold standard is empty after aggregation")

    methods: list[tuple[str, dict[str, float]]] = [
        (name, predictions) for name, predictions, _ in tables
    ]
    artifacts: dict[str, str] = {}
    if len(tables) == 2:
        (_, preds_a, _), (_, preds_b, _) = tables
        methods.append(("combined", combine_average(preds_a, preds_b)))
        methods.append(("matching_signs", matching_signs_filter(preds_a, preds_b)))
        artifacts["scatter.tsv"] = format_scatter(preds_a, preds_b, gold, phrase_texts)

    reports = [
        evaluate_method(name, predictions, gold, half_credit_ties=half_credit_ties)
        for name, predictions in methods
    ]

    labeled = [g for g in gold if g.mean_score != 0.0]
    manifest = [
        ("gold_entries", len(gold)),
        ("gold_nonzero_mean", len(labeled)),
    ]
    for name, predictions in methods:
        manifest.append((f"predictions_{name}", len(predictions)))
        manifest.append(
            (
                f"labeled_covered_{name}",
                sum(1 for g in labeled if g.phrase_id in predictions),
            )
        )

    artifacts["eval_report.tsv"] = format_eval_reports(reports)
    if ratings_path is not None:
        artifacts["gold_aggregated.tsv"] = format_gold(gold)
    artifacts["eval_manifest.tsv"] = _manifest(manifest)
    _emit(config.output_dir, artifacts)
    for r in reports:
        _log(
            f"evaluate[{r.method_name}]: spearman={r.spearman:.4f} auc={r.auc:.4f} "
            f"accuracy={r.accuracy:.4f} coverage={r.coverage_n} ({r.coverage_pct:.1f}%)"
        )
    return 0


def _load_probes(path: Path) -> list[tuple[str, ...]]:
    probes = []
    with open_text(path) as fh:
        for line in fh:
            line = strip_comment(line)
            if line:
                probes.append(tuple(line.lower().split()))
    return probes


def cmd_sanity(config: RunConfig, probes_path: Path) -> int:
    config.require("tweet_corpus", "male_names", "female_names")
    _check_optional_paths(config, "tag_map")
    if not probes_path.is_file():
        raise ConfigError(f"no such file: {probes_path}")
    probes = _load_probes(probes_path)
    if not probes:
        raise ConfigError(f"probes file {probes_path} is empty")

    lexicon = load_name_lexicon(config.male_names, config.female_names)
    tag_map = _tag_map(config)
    with open_text(config.tweet_corpus) as fh:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = sanity_proportions(
                parse_tweet_stream(fh, tag_map, path=str(config.tweet_corpus)),
                probes,
                lexicon,
                seed=config.seed,
            )
    for w in caught:
        _log(f"warning: {w.message}")

    artifacts = {
        "sanity.tsv": format_sanity_table(rows, config.seed),
        "sanity_manifest.tsv": _manifest(
            [
                ("probes_in", len(probes)),
                ("rows_reported", len(rows)),
                ("probes_omitted", len(probes) - len(rows)),
                ("seed", config.seed),
            ]
        ),
    }
    _emit(config.output_dir, artifacts)
    _log(f"sanity: {len(rows)} of {len(probes)} probes reported (seed {config.seed})")
    return 0


def cmd_merge_counts(config: RunConfig, counts_paths: list[Path], out_stem: str) -> int:
    partials = []
    phrase_texts: dict[str, str] = {}
    for p in counts_paths:
        if not p.is_file():
            raise ConfigError(f"no such file: {p}")
        with open_text(p) as fh:
            counts, texts = parse_counts_table(fh, path=str(p))
        partials.append(counts)
        for pid, text in texts.items():
            phrase_texts.setdefault(pid, text)

    merged, ctx = merge_counts(partials)
    scores = score_counts(merged, ctx, config.min_occurrences) if merged else []
    artifacts = {
        f"{out_stem}_counts.tsv": format_counts_table(merged, phrase_texts),
        f"{out_stem}_scores.tsv": format_score_table(scores, phrase_texts),
        f"{out_stem}_manifest.tsv": _manifest(
            [
                ("inputs", len(counts_paths)),
                ("phrases_merged", len(merged)),
                ("occurrences_male", ctx.M),
                ("occurrences_female", ctx.F),
                ("phrases_scored", len(scores)),
            ]
        ),
    }
    _emit(config.output_dir, artifacts)
    _log(f"merge-counts: {len(counts_paths)} inputs, {len(merged)} phrases, {len(scores)} scored")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stereomine",
        description="Mine gender bias of action phrases from annotated corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, default=None, help="key = value config file")
        for key in CONFIG_KEYS:
            p.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                default=None,
                metavar="VALUE",
                help=f"override config key {key}",
            )

    p = sub.add_parser("build-lexicons", help="clean name lists, build verb lexicon, extract action phrases")
    add_common(p)

    p = sub.add_parser("score", help="match, attribute and score one corpus")
    add_common(p)
    p.add_argument("--kind", choices=("tweet", "document"), required=True)

    p = sub.add_parser("evaluate", help="compare score tables against the gold standard")
    add_common(p)
    p.add_argument("--scores", type=Path, nargs="+", required=True, metavar="TABLE")
    p.add_argument("--gold", type=Path, default=None, help="aggregated gold file")
    p.add_argument("--ratings", type=Path, default=None, help="raw ratings to aggregate into gold")
    p.add_argument("--half-credit-ties", action="store_true", help="score threshold ties as 0.5 instead of 0")

    p = sub.add_parser("sanity", help="balanced-sample user proportions for probe phrases")
    add_common(p)
    p.add_argument("--probes", type=Path, required=True, help="one probe phrase per line")

    p = sub.add_parser("merge-counts", help="merge partition count tables and rescore")
    add_common(p)
    p.add_argument("counts", type=Path, nargs="+", help="count tables from per-partition runs")
    p.add_argument("--out-stem", default="merged", help="artifact name prefix")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in CONFIG_KEYS}
    try:
        config = load_config(args.config, overrides)
        if args.command == "build-lexicons":
            return cmd_build_lexicons(config)
        if args.command == "score":
            return cmd_score(config, args.kind)
        if args.command == "evaluate":
            return cmd_evaluate(
                config, args.scores, args.gold, args.ratings, args.half_credit_ties
            )
        if args.command == "sanity":
            return cmd_sanity(config, args.probes)
        return cmd_merge_counts(config, args.counts, args.out_stem)
    except (ConfigError, CorpusFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
