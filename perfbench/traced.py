"""The traced run: ``cmd_score``'s and ``cmd_build_lexicons`` +
``cmd_evaluate``'s sequences rebuilt from the package's public
functions, timed at each module boundary from here.

Spans have a name, a parent, a start and an end, plus the busy time,
call count and work counts of the calls they stand for; per-record
calls of one layer are folded into a single span, so a run keeps a few
dozen spans in memory and writes them out at the end.  A leaf span's
busy time is its layer's time; the parent ``score.loop`` span's self
time is the loop's own bookkeeping.

Only public names are used.  When one is missing or changes shape the
run raises ``LayerError`` naming the layer it could not time.
"""

from __future__ import annotations

import importlib
from pathlib import Path
from time import perf_counter

# per-layer metric -> unit; every name ending in _s is a span's busy time
LAYER_METRICS = {
    "cli.import_s": "s",
    "lexicons.load_actions_s": "s",
    "lexicons.load_names_s": "s",
    "lexicons.tag_counts_s": "s",
    "lexicons.verb_lexicon_s": "s",
    "lexicons.extract_actions_s": "s",
    "lexicons.guess_gender_s": "s",
    "corpus_io.load_resources_s": "s",
    "matcher.compile_s": "s",
    "corpus_io.parse_s": "s",
    "corpus_io.parse_mtok_per_s": "Mtok/s",
    "corpus_io.english_filter_s": "s",
    "matcher.match_s": "s",
    "matcher.match_mtok_per_s": "Mtok/s",
    "attribution.attribute_s": "s",
    "attribution.kept_ratio": "ratio",
    "scoring.aggregate_s": "s",
    "scoring.score_s": "s",
    "scoring.format_s": "s",
    "scoring.parse_tables_s": "s",
    "evaluation.aggregate_gold_s": "s",
    "evaluation.evaluate_s": "s",
    "evaluation.format_s": "s",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
    "trace.unspanned_s": "s",
}


class LayerError(Exception):
    def __init__(self, layer: str, exc: BaseException):
        super().__init__(f"could not time layer {layer}: {type(exc).__name__}: {exc}")
        self.layer = layer


class Tracer:
    def __init__(self) -> None:
        self.origin = perf_counter()
        self.spans: list[dict] = []

    def record(self, name, parent, start, end, busy=None, calls=1, **work) -> None:
        self.spans.append(
            {
                "name": name,
                "parent": parent,
                "start": start - self.origin,
                "end": end - self.origin,
                "busy": end - start if busy is None else busy,
                "calls": calls,
                **work,
            }
        )

    def call(self, name: str, fn, *args, **kwargs):
        """Time one call as its own span; a failure names the layer."""
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            raise LayerError(name, exc) from exc
        self.record(name, "trace", start, perf_counter())
        return out

    def busy(self, name: str) -> float:
        return sum((s["busy"] for s in self.spans if s["name"] == name), 0.0)

    def leaf_busy(self) -> float:
        parents = {s["parent"] for s in self.spans}
        return sum(s["busy"] for s in self.spans if s["name"] not in parents)

    def work(self, name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in self.spans if s["name"] == name)


def public(module, name: str, layer: str):
    if name.startswith("_"):
        raise ValueError(f"the traced run uses public names only, not {name}")
    try:
        return getattr(module, name)
    except AttributeError as exc:
        raise LayerError(layer, exc) from exc


def _import(tr: Tracer):
    def load():
        importlib.import_module("stereomine.cli")
        return {
            m: importlib.import_module(f"stereomine.{m}")
            for m in ("config", "corpus_io", "lexicons", "matcher", "attribution", "scoring", "evaluation")
        }

    return tr.call("cli.import", load)


def _config(tr: Tracer, mods, cfg: Path, **flags):
    load_config = public(mods["config"], "load_config", "config.load")
    keys = public(mods["config"], "CONFIG_KEYS", "config.load")
    overrides = {k: None for k in keys}
    overrides.update(flags)
    return tr.call("config.load", load_config, cfg, overrides)


def _manifest(pairs) -> str:
    return "".join(f"{key}\t{value}\n" for key, value in pairs)


def traced_score(kind: str, cfg: Path, lexdir: Path, outdir: Path) -> tuple[Tracer, dict[str, str]]:
    """Score one corpus as ``stereomine score --kind <kind>`` does;
    returns the tracer and the artifacts' texts by file name."""
    tr = Tracer()
    mods = _import(tr)
    cio, lx, mt, at, sc = (mods[m] for m in ("corpus_io", "lexicons", "matcher", "attribution", "scoring"))
    config = _config(tr, mods, cfg, lexicon_dir=str(lexdir), output_dir=str(outdir))

    load_concepts = public(lx, "load_concepts", "lexicons.load_actions")
    ActionPhrase = public(lx, "ActionPhrase", "lexicons.load_actions")
    actions = tr.call(
        "lexicons.load_actions",
        lambda: [ActionPhrase(lemmas=tuple(t.lower().split()), source_id=p)
                 for p, t in load_concepts(lexdir / "actions.tsv")],
    )
    lexicon = tr.call(
        "lexicons.load_names", public(lx, "load_name_lexicon", "lexicons.load_names"),
        lexdir / "names_male.txt", lexdir / "names_female.txt",
    )
    phrase_texts = {a.source_id: a.text for a in actions}

    def resources():
        tag_map = (cio.load_tag_map(config.tag_map) if config.tag_map else cio.default_tag_map())
        if kind == "document":
            return tag_map, None
        words = cio.load_wordlist(config.wordlist) if config.wordlist else cio.default_wordlist()
        return tag_map, cio.EnglishFilterConfig(wordlist=words, max_nonenglish_ratio=config.max_nonenglish_ratio)

    tag_map, english = tr.call("corpus_io.load_resources", resources)
    automaton = tr.call("matcher.compile", public(mt, "compile_phrases", "matcher.compile"), actions)
    find_matches = public(mt, "find_matches", "matcher.match")

    loop = _tweet_loop if kind == "tweet" else _document_loop
    occurrences, stage_counts = loop(tr, mods, config, lexicon, automaton, find_matches, tag_map, english)

    counts, ctx = tr.call(
        "scoring.aggregate", public(sc, "aggregate", "scoring.aggregate"),
        occurrences, dedup_per_record=config.dedup,
    )
    scores = tr.call(
        "scoring.score", public(sc, "score_counts", "scoring.score"),
        counts, ctx, config.min_occurrences,
    )
    fmt_counts = public(sc, "format_counts_table", "scoring.format")
    fmt_scores = public(sc, "format_score_table", "scoring.format")
    tables = tr.call(
        "scoring.format",
        lambda: (fmt_counts(counts, phrase_texts), fmt_scores(scores, phrase_texts)),
    )
    stage_counts += [
        ("dedup", str(config.dedup).lower()),
        ("occurrences_male", ctx.M),
        ("occurrences_female", ctx.F),
        ("phrases_observed", len(counts)),
        ("phrases_scored", len(scores)),
    ]
    if ctx.N:
        stage_counts.append(("male_proportion", ctx.M / ctx.N))
    return tr, {
        f"{kind}_counts.tsv": tables[0],
        f"{kind}_scores.tsv": tables[1],
        f"{kind}_manifest.tsv": _manifest(stage_counts),
    }


def _tweet_loop(tr, mods, config, lexicon, automaton, find_matches, tag_map, english):
    cio, lx, at = mods["corpus_io"], mods["lexicons"], mods["attribution"]
    parse = public(cio, "parse_tweet_stream", "corpus_io.parse")
    english_ok = public(cio, "passes_english_filter", "corpus_io.english_filter")
    guess_gender = public(lx, "guess_gender", "lexicons.guess_gender")
    unknown_gender = public(lx, "Gender", "lexicons.guess_gender").UNKNOWN
    attribute = public(at, "attribute_by_author", "attribution.attribute")

    t_parse = t_filter = t_gender = t_match = t_match_unknown = t_attr = 0.0
    records = filtered = author_unknown = tokens = match_tokens = matches_total = 0
    gender_calls = 0
    occurrences = []
    path = str(config.tweet_corpus)
    layer = "corpus_io.parse"
    loop_start = perf_counter()
    try:
        with open(config.tweet_corpus, encoding="utf-8") as fh:
            stream = parse(fh, tag_map, path=path)
            while True:
                layer = "corpus_io.parse"
                t0 = perf_counter()
                record = next(stream, None)
                t1 = perf_counter()
                t_parse += t1 - t0
                if record is None:
                    break
                records += 1
                n_tok = sum(len(s.tokens) for s in record.sentences)
                tokens += n_tok
                layer = "corpus_io.english_filter"
                t1 = perf_counter()
                ok = english_ok(record, english)
                t2 = perf_counter()
                t_filter += t2 - t1
                if not ok:
                    filtered += 1
                    continue
                layer = "lexicons.guess_gender"
                unknown = guess_gender(record.author_first_name, lexicon) is unknown_gender
                t3 = perf_counter()
                t_gender += t3 - t2
                gender_calls += 1
                author_unknown += unknown
                layer = "matcher.match"
                matches = []
                for i, sentence in enumerate(record.sentences):
                    matches.extend(find_matches(sentence, automaton, sentence_ref=i))
                t4 = perf_counter()
                t_match += t4 - t3
                if unknown:
                    t_match_unknown += t4 - t3
                layer = "attribution.attribute"
                found = attribute(record, matches, lexicon)
                t5 = perf_counter()
                t_attr += t5 - t4
                match_tokens += n_tok
                matches_total += len(matches)
                occurrences.extend(found)
    except Exception as exc:
        raise LayerError(layer, exc) from exc
    loop_end = perf_counter()
    tr.record("score.loop", "trace", loop_start, loop_end)
    tr.record("corpus_io.parse", "score.loop", loop_start, loop_end, t_parse, records + 1,
              records=records, tokens=tokens)
    tr.record("corpus_io.english_filter", "score.loop", loop_start, loop_end, t_filter, records,
              records=records, failed=filtered)
    tr.record("lexicons.guess_gender", "score.loop", loop_start, loop_end, t_gender, gender_calls,
              unknown=author_unknown)
    tr.record("matcher.match", "score.loop", loop_start, loop_end, t_match, records - filtered,
              tokens=match_tokens, matches=matches_total, busy_unknown_author=t_match_unknown)
    tr.record("attribution.attribute", "score.loop", loop_start, loop_end, t_attr, records - filtered,
              matches=matches_total, occurrences=len(occurrences))
    stage_counts = [
        ("corpus", path),
        ("records_read", records),
        ("records_failed_english_filter", filtered),
        ("records_kept", records - filtered),
        ("records_author_unknown", author_unknown),
        ("matches_total", matches_total),
        ("occurrences_attributed", len(occurrences)),
    ]
    return occurrences, stage_counts


def _document_loop(tr, mods, config, lexicon, automaton, find_matches, tag_map, english):
    cio, lx, at = mods["corpus_io"], mods["lexicons"], mods["attribution"]
    parse = public(cio, "parse_document_records", "corpus_io.parse")
    attribute = public(at, "attribute_by_context", "attribution.attribute")
    Occurrence = public(at, "GenderedOccurrence", "attribution.attribute")
    source = public(at, "Source", "attribution.attribute").CONTEXT_HEURISTIC
    unknown_gender = public(lx, "Gender", "attribution.attribute").UNKNOWN
    pronouns = public(at, "EXTENDED_PRONOUNS" if config.extended_pronouns else "DEFAULT_PRONOUNS",
                      "attribution.attribute")

    t_parse = t_match = t_attr = 0.0
    records = sentences = tokens = matches_total = unattributed = 0
    occurrences = []
    path = str(config.document_corpus)
    layer = "corpus_io.parse"
    loop_start = perf_counter()
    try:
        with open(config.document_corpus, encoding="utf-8") as fh:
            stream = parse(fh, tag_map, path=path)
            while True:
                layer = "corpus_io.parse"
                t0 = perf_counter()
                record = next(stream, None)
                t_parse += perf_counter() - t0
                if record is None:
                    break
                records += 1
                for i, sentence in enumerate(record.sentences):
                    sentences += 1
                    tokens += len(sentence.tokens)
                    layer = "matcher.match"
                    t1 = perf_counter()
                    matches = find_matches(sentence, automaton, sentence_ref=i)
                    t2 = perf_counter()
                    t_match += t2 - t1
                    layer = "attribution.attribute"
                    for match in matches:
                        matches_total += 1
                        gender = attribute(sentence, match, lexicon, pronouns)
                        if gender is unknown_gender:
                            unattributed += 1
                            continue
                        occurrences.append(
                            Occurrence(phrase_id=match.phrase_id, gender=gender, source=source,
                                       record_id=record.record_id)
                        )
                    t_attr += perf_counter() - t2
    except Exception as exc:
        raise LayerError(layer, exc) from exc
    loop_end = perf_counter()
    tr.record("score.loop", "trace", loop_start, loop_end)
    tr.record("corpus_io.parse", "score.loop", loop_start, loop_end, t_parse, records + 1,
              records=records, sentences=sentences, tokens=tokens)
    tr.record("matcher.match", "score.loop", loop_start, loop_end, t_match, sentences,
              tokens=tokens, matches=matches_total)
    tr.record("attribution.attribute", "score.loop", loop_start, loop_end, t_attr, matches_total,
              matches=matches_total, occurrences=len(occurrences))
    stage_counts = [
        ("corpus", path),
        ("records_read", records),
        ("sentences_read", sentences),
        ("matches_total", matches_total),
        ("matches_unattributed", unattributed),
        ("occurrences_attributed", len(occurrences)),
    ]
    return occurrences, stage_counts


def traced_lexicons_evaluate(cfg: Path, data: Path, lexout: Path, evalout: Path) -> tuple[Tracer, dict[str, str]]:
    """``build-lexicons`` then ``evaluate --ratings`` over the two score
    tables, as the CLI runs them."""
    tr = Tracer()
    mods = _import(tr)
    cio, lx, sc, ev = (mods[m] for m in ("corpus_io", "lexicons", "scoring", "evaluation"))
    config = _config(tr, mods, cfg, output_dir=str(lexout))
    tag_map = tr.call(
        "corpus_io.load_resources",
        lambda: cio.load_tag_map(config.tag_map) if config.tag_map else cio.default_tag_map(),
    )

    read_names = public(lx, "read_name_list", "lexicons.load_names")
    load_names = public(lx, "load_name_lexicon", "lexicons.load_names")

    def names():
        raw_m, raw_f = read_names(config.male_names), read_names(config.female_names)
        return raw_m, raw_f, load_names(config.male_names, config.female_names)

    raw_male, raw_female, lexicon = tr.call("lexicons.load_names", names)
    tag_counts = tr.call(
        "lexicons.tag_counts", public(lx, "load_tag_counts", "lexicons.tag_counts"), config.tag_counts
    )
    verbs = tr.call(
        "lexicons.verb_lexicon", public(lx, "build_verb_lexicon", "lexicons.verb_lexicon"),
        tag_counts, config.dominance_ratio, tag_map,
    )
    load_concepts = public(lx, "load_concepts", "lexicons.extract_actions")
    extract = public(lx, "extract_actions", "lexicons.extract_actions")
    concepts, actions = tr.call(
        "lexicons.extract_actions",
        lambda: (lambda c: (c, extract(c, verbs)))(list(load_concepts(config.concepts))),
    )
    conflicts = len(set(raw_male) & set(raw_female))
    artifacts = {
        "names_male.txt": "".join(f"{n}\n" for n in sorted(lexicon.male_names)),
        "names_female.txt": "".join(f"{n}\n" for n in sorted(lexicon.female_names)),
        "verbs.txt": "".join(f"{v}\n" for v in sorted(verbs.verbs)),
        "actions.tsv": "\n".join(
            ["# phrase_id\tphrase_text"] + [f"{a.source_id}\t{a.text}" for a in actions]
        ) + "\n",
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

    parse_table = public(sc, "parse_score_table", "scoring.parse_tables")
    score_paths = [data / "tweet_scores.tsv", data / "document_scores.tsv"]

    def tables():
        out = []
        for p in score_paths:
            with open(p, encoding="utf-8") as fh:
                scores, texts = parse_table(fh, path=str(p))
            out.append((p.stem, {s.phrase_id: s.z for s in scores if s.z is not None}, texts))
        return out

    parsed = tr.call("scoring.parse_tables", tables)
    phrase_texts: dict[str, str] = {}
    for _, _, texts in parsed:
        phrase_texts.update(texts)
    load_ratings = public(ev, "load_ratings", "evaluation.aggregate_gold")
    aggregate_gold = public(ev, "aggregate_gold", "evaluation.aggregate_gold")
    gold = tr.call(
        "evaluation.aggregate_gold",
        lambda: aggregate_gold(load_ratings(data / "ratings.tsv"), phrase_texts=phrase_texts),
    )
    combine = public(sc, "combine_average", "evaluation.evaluate")
    signs = public(sc, "matching_signs_filter", "evaluation.evaluate")
    evaluate_method = public(ev, "evaluate_method", "evaluation.evaluate")
    (_, preds_a, _), (_, preds_b, _) = parsed
    methods = [(name, preds) for name, preds, _ in parsed]

    def evaluate():
        methods.append(("combined", combine(preds_a, preds_b)))
        methods.append(("matching_signs", signs(preds_a, preds_b)))
        return [evaluate_method(name, preds, gold) for name, preds in methods]

    reports = tr.call("evaluation.evaluate", evaluate)
    fmt_scatter = public(ev, "format_scatter", "evaluation.format")
    fmt_reports = public(ev, "format_eval_reports", "evaluation.format")
    fmt_gold = public(ev, "format_gold", "evaluation.format")
    scatter, report, gold_text = tr.call(
        "evaluation.format",
        lambda: (fmt_scatter(preds_a, preds_b, gold, phrase_texts), fmt_reports(reports), fmt_gold(gold)),
    )
    labeled = [g for g in gold if g.mean_score != 0.0]
    manifest = [("gold_entries", len(gold)), ("gold_nonzero_mean", len(labeled))]
    for name, preds in methods:
        manifest.append((f"predictions_{name}", len(preds)))
        manifest.append((f"labeled_covered_{name}", sum(1 for g in labeled if g.phrase_id in preds)))
    artifacts.update(
        {
            "scatter.tsv": scatter,
            "eval_report.tsv": report,
            "gold_aggregated.tsv": gold_text,
            "eval_manifest.tsv": _manifest(manifest),
        }
    )
    return tr, artifacts


def layer_metrics(tr: Tracer, total: float, untraced_wall: float) -> dict[str, float]:
    """Every per-layer metric; a layer the workload does not call reads 0."""
    out = {name: tr.busy(name[:-2]) if unit == "s" else 0.0 for name, unit in LAYER_METRICS.items()}
    parse_tokens = tr.work("corpus_io.parse", "tokens")
    match_tokens = tr.work("matcher.match", "tokens")
    matches = tr.work("attribution.attribute", "matches")
    out["corpus_io.parse_mtok_per_s"] = parse_tokens / out["corpus_io.parse_s"] / 1e6 if parse_tokens else 0.0
    out["matcher.match_mtok_per_s"] = match_tokens / out["matcher.match_s"] / 1e6 if match_tokens else 0.0
    out["attribution.kept_ratio"] = tr.work("attribution.attribute", "occurrences") / matches if matches else 0.0
    out["trace.total_s"] = total
    out["trace.overhead_s"] = total - untraced_wall
    out["trace.unspanned_s"] = total - tr.leaf_busy()
    return out
