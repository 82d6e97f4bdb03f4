"""Command-line pipeline over declarative configs.

Subcommands: build-lexicons, score, evaluate, sanity, and merge-counts
(joins the counts tables of a partitioned run and rescores them).
Every artifact is a TSV written atomically after the whole run has
succeeded, so a failing run leaves no partial outputs, and every run
emits a manifest of stage counts next to its artifacts.

Exit codes: 0 success, 1 input or configuration error, 2 degenerate
data.
"""

from __future__ import annotations

import argparse
import itertools
import operator
import os
import sys
import tempfile
import warnings
from pathlib import Path

from .attribution import DEFAULT_PRONOUNS, EXTENDED_PRONOUNS, _candidate_gender
from .config import CONFIG_KEYS, RunConfig, load_config, strip_comment
from .corpus_io import (
    DOC_HEADER_CUT,
    EnglishFilterConfig,
    _scan_tweets,
    _scan_vertical,
    default_tag_map,
    default_wordlist,
    load_tag_map,
    load_wordlist,
    parse_tweet_stream,
)
from .errors import ConfigError, CorpusFormatError, DegenerateDataError, format_rows, open_text
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
    NameGenderLexicon,
    build_verb_lexicon,
    extract_actions,
    guess_gender,
    load_concepts,
    load_name_lexicon,
    load_tag_counts,
    read_name_list,
)
from .matcher import _match_ids, compile_phrases
from .scoring import (
    GenderedCount,
    ScoringContext,
    combine_average,
    format_counts_table,
    format_score_table,
    matching_signs_filter,
    merge_counts,
    parse_counts_table,
    parse_score_table,
    score_counts,
)
from .shards import ANY_LINE, open_range, run_forked, shard_count, split_ranges


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
    lexicon = NameGenderLexicon.from_lists(raw_male, raw_female)

    tag_counts = load_tag_counts(config.tag_counts)
    verbs = build_verb_lexicon(tag_counts, config.dominance_ratio, tag_map)
    concepts = list(load_concepts(config.concepts))
    actions = extract_actions(concepts, verbs)
    if not verbs.verbs:
        _log("warning: verb lexicon is empty; no concept can be verb-initial")
    if not actions:
        _log("warning: no verb-initial multi-word concepts; actions.tsv will be empty")

    artifacts = {
        "names_male.txt": "".join(f"{n}\n" for n in sorted(lexicon.male_names)),
        "names_female.txt": "".join(f"{n}\n" for n in sorted(lexicon.female_names)),
        "verbs.txt": "".join(f"{v}\n" for v in sorted(verbs.verbs)),
        "actions.tsv": format_rows(
            ("phrase_id", "phrase_text"), ((a.source_id, a.text) for a in actions)
        ),
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


def _score_tweets(config: RunConfig, automaton, canon: list[int], size: int, lexicon):
    """The tweet corpus, the pattern of a line a shard cut must precede
    (any line), and a function scoring lines of the corpus into the male
    and female tallies per canonical phrase index (``canon`` maps each
    automaton phrase to one of ``size`` indexes), manifest counters and
    the record ids it saw."""
    config.require("tweet_corpus")
    _check_optional_paths(config, "tag_map", "wordlist")
    _tag_map(config)  # the route reads no tags, but a malformed map still fails the run
    english = EnglishFilterConfig(
        wordlist=_wordlist(config), max_nonenglish_ratio=config.max_nonenglish_ratio
    )
    path = str(config.tweet_corpus)

    def score_lines(lines):
        # tweet ids are unique in a file, so dedup needs a set per record only;
        # the reader fills ``ids``, which is also the shard's set of record ids
        ids: set[str] = set()
        m, f = [0] * size, [0] * size
        records_read = filtered = author_unknown = matches_total = attributed = 0
        for record in _scan_tweets(lines, english, ids, path=path):
            records_read += 1
            if record is None:
                filtered += 1
                continue
            first_name, sentences = record
            gender = guess_gender(first_name, lexicon)
            if gender is Gender.UNKNOWN:
                author_unknown += 1
            tally = m if gender is Gender.MALE else f
            seen: set[int] = set()
            for lemmas in sentences:
                found = _match_ids(automaton, lemmas)
                matches_total += len(found)
                if gender is Gender.UNKNOWN:
                    continue
                attributed += len(found)
                for pidx, _, _ in found:
                    c = canon[pidx]
                    if not (config.dedup and c in seen):
                        seen.add(c)
                        tally[c] += 1
        return m, f, dict(
            records_read=records_read,
            records_failed_english_filter=filtered,
            records_kept=records_read - filtered,
            records_author_unknown=author_unknown,
            matches_total=matches_total,
            occurrences_attributed=attributed,
        ), ids

    return config.tweet_corpus, ANY_LINE, score_lines


def _score_documents(config: RunConfig, automaton, canon: list[int], size: int, lexicon):
    """As ``_score_tweets`` for the document corpus; a vertical file is
    cut only before a ``#doc`` header, so a document stays in one shard."""
    config.require("document_corpus")
    _check_optional_paths(config, "tag_map")
    tag_map = _tag_map(config)
    pronouns = EXTENDED_PRONOUNS if config.extended_pronouns else DEFAULT_PRONOUNS
    path = str(config.document_corpus)

    def score_lines(lines):
        # a ``#doc`` id may repeat later in the shard, so dedup spans it.
        # Matches come by start, and a match's gender depends on its start
        # alone, so the first of a phrase's matches to count in a record
        # has the gender it would have in (start, phrase id, end) order
        ids: set[str] = set()
        m, f = [0] * size, [0] * size
        seen: set[tuple[int, str]] = set()
        records_read = sentences_read = matches_total = unattributed = attributed = 0
        for record_id, sentences in _scan_vertical(lines, tag_map, path=path):
            records_read += 1
            ids.add(record_id)
            sentences_read += len(sentences)
            for lemmas, candidates in sentences:
                found = _match_ids(automaton, lemmas)
                matches_total += len(found)
                left = 0  # candidates[:left] lie left of the match's start
                for pidx, start, _ in found:
                    while left < len(candidates) and candidates[left][0] < start:
                        left += 1
                    if left:
                        _, tag, surface = candidates[left - 1]
                        gender = _candidate_gender(tag, surface, lexicon, pronouns)
                    else:
                        gender = Gender.UNKNOWN
                    if gender is Gender.UNKNOWN:
                        unattributed += 1
                        continue
                    attributed += 1
                    c = canon[pidx]
                    if config.dedup:
                        key = (c, record_id)
                        if key in seen:
                            continue
                        seen.add(key)
                    (m if gender is Gender.MALE else f)[c] += 1
        return m, f, dict(
            records_read=records_read,
            sentences_read=sentences_read,
            matches_total=matches_total,
            matches_unattributed=unattributed,
            occurrences_attributed=attributed,
        ), ids

    return config.document_corpus, DOC_HEADER_CUT, score_lines


def _score_shards(corpus: Path, record_start, score_lines):
    """``score_lines`` over the corpus split into shards, one per usable
    core; returns the summed male and female tallies and the summed
    manifest counters.  If a shard fails, or a record id turns up in two
    shards, the whole file is scored again in this process: that run
    raises the error at its line and lets the first occurrence of a
    repeated id win, as a single pass over the file does."""
    results = None
    ranges = split_ranges(corpus, shard_count(corpus), record_start)
    if len(ranges) > 1:

        def work(start, end):
            with open_range(corpus, start, end) as lines:
                return score_lines(lines)

        results = run_forked(work, ranges)
        if results is not None and not all(
            a.isdisjoint(b) for (*_, a), (*_, b) in itertools.combinations(results, 2)
        ):
            results = None
    if results is None:
        with open_text(corpus) as lines:
            results = [score_lines(lines)]
    # summed into the first shard's lists, so no third pair of lists is built
    m, f, totals, _ = results[0]
    for shard_m, shard_f, stats, _ in results[1:]:
        m[:] = map(operator.add, m, shard_m)
        f[:] = map(operator.add, f, shard_f)
        for key in totals:
            totals[key] += stats[key]
    return m, f, totals


def cmd_score(config: RunConfig, kind: str) -> int:
    lexdir = config.lexicon_dir or config.output_dir
    for name in ("actions.tsv", "names_male.txt", "names_female.txt"):
        if not (lexdir / name).is_file():
            raise ConfigError(
                f"missing lexicon artifact {lexdir / name}; run build-lexicons first"
            )
    actions = _load_actions(lexdir / "actions.tsv")
    lexicon = load_name_lexicon(lexdir / "names_male.txt", lexdir / "names_female.txt")
    automaton = compile_phrases(actions)
    phrase_texts = {a.source_id: a.text for a in actions}
    # each action tallies under its phrase id's index among the distinct
    # ids, in first-seen order (two actions may share an id); the index
    # itself is dropped, or it would stay resident through the scan
    index = {pid: c for c, pid in enumerate(phrase_texts)}
    canon = [index[a.source_id] for a in actions]
    del index

    route = _score_tweets if kind == "tweet" else _score_documents
    corpus, record_start, score_lines = route(config, automaton, canon, len(phrase_texts), lexicon)
    m, f, totals = _score_shards(corpus, record_start, score_lines)
    counts = {
        pid: GenderedCount(pid, m[c], f[c]) for c, pid in enumerate(phrase_texts) if m[c] or f[c]
    }
    ctx = ScoringContext(M=sum(m), F=sum(f))

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

    stage_counts = [
        ("corpus", str(corpus)),
        *totals.items(),
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
        f"score[{kind}]: {totals['occurrences_attributed']} occurrences "
        f"(M={ctx.M}, F={ctx.F}) over {len(counts)} phrases; {len(scores)} scored"
    )
    return 0


def cmd_evaluate(
    config: RunConfig, score_paths: list[Path], gold_path: Path | None, ratings_path: Path | None
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

    reports = [evaluate_method(name, predictions, gold) for name, predictions in methods]

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


def cmd_merge_counts(config: RunConfig, counts_paths: list[Path]) -> int:
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
        "merged_counts.tsv": format_counts_table(merged, phrase_texts),
        "merged_scores.tsv": format_score_table(scores, phrase_texts),
        "merged_manifest.tsv": _manifest(
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

    p = sub.add_parser("sanity", help="balanced-sample user proportions for probe phrases")
    add_common(p)
    p.add_argument("--probes", type=Path, required=True, help="one probe phrase per line")

    p = sub.add_parser("merge-counts", help="merge partition count tables and rescore")
    add_common(p)
    p.add_argument("counts", type=Path, nargs="+", help="count tables from per-partition runs")

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
            return cmd_evaluate(config, args.scores, args.gold, args.ratings)
        if args.command == "sanity":
            return cmd_sanity(config, args.probes)
        return cmd_merge_counts(config, args.counts)
    except (ConfigError, CorpusFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
