"""Checks of the CLI's artifacts against what the generator planted.

Each check takes the artifact text and the expectation and returns a
list of problems; an empty list means the artifact is right.  None of
them imports ``stereomine``: counts and manifests are compared with the
planted truth, ``s`` with the textbook binomial form, ``z`` with a
population z-score of that, and the evaluation rows with the
generator's own mid-rank Spearman and pairwise-count AUC.
"""

from __future__ import annotations

import math

from generate import (
    ACTIONS_HEADER,
    COUNTS_HEADER,
    SCORES_HEADER,
    population_z,
    textbook_s,
)

GOLD_HEADER = "# phrase_id\tphrase_text\tmean_score\tn_raters"
REPORT_HEADER = "# method\tspearman\tauc\taccuracy\tcoverage_pct\tcoverage_n"
SCATTER_HEADER = "# phrase_text\tz_corpusA\tz_corpusB\tgold_mean\tquadrant"
MAX_REPORTED = 5


def _rows(text: str, header: str, width: int, problems: list[str], name: str) -> list[list[str]]:
    lines = text.split("\n")
    if lines[-1] != "":
        problems.append(f"{name}: no final newline")
    lines = lines[:-1]
    if not lines or lines[0] != header:
        problems.append(f"{name}: header {lines[:1]!r} != {header!r}")
        return []
    rows = [line.split("\t") for line in lines[1:]]
    bad = [r for r in rows if len(r) != width]
    if bad:
        problems.append(f"{name}: {len(bad)} rows without {width} fields, first {bad[0]!r}")
        return []
    return rows


def _compare(problems: list[str], name: str, got: dict, want: dict) -> None:
    missing = sorted(want.keys() - got.keys())
    extra = sorted(got.keys() - want.keys())
    if missing:
        problems.append(f"{name}: {len(missing)} rows missing, first {missing[0]!r}")
    if extra:
        problems.append(f"{name}: {len(extra)} unexpected rows, first {extra[0]!r}")
    wrong = [k for k in sorted(want.keys() & got.keys()) if got[k] != want[k]]
    for k in wrong[:MAX_REPORTED]:
        problems.append(f"{name}: {k!r} is {got[k]!r}, expected {want[k]!r}")
    if len(wrong) > MAX_REPORTED:
        problems.append(f"{name}: {len(wrong) - MAX_REPORTED} more wrong rows")


def _sorted_ids(problems: list[str], name: str, rows: list[list[str]]) -> None:
    ids = [r[0] for r in rows]
    if ids != sorted(ids) or len(set(ids)) != len(ids):
        problems.append(f"{name}: rows not sorted by unique phrase id")


def check_counts(text: str, expect: dict, name: str = "counts") -> list[str]:
    problems: list[str] = []
    rows = _rows(text, COUNTS_HEADER, 4, problems, name)
    _sorted_ids(problems, name, rows)
    got = {r[0]: (r[1], r[2], r[3]) for r in rows}
    texts = expect["phrase_texts"]
    want = {pid: (texts[pid], str(m), str(f)) for pid, (m, f) in expect["counts"].items()}
    _compare(problems, name, got, want)
    return problems


def check_scores(text: str, expect: dict, name: str = "scores") -> list[str]:
    problems: list[str] = []
    rows = _rows(text, SCORES_HEADER, 7, problems, name)
    _sorted_ids(problems, name, rows)
    texts = expect["phrase_texts"]
    counts = expect["counts"]
    got_mf = {r[0]: (r[1], r[2], r[3]) for r in rows}
    want_mf = {pid: (texts[pid], str(m), str(f)) for pid, (m, f) in counts.items()}
    _compare(problems, name, got_mf, want_mf)
    if problems:
        return problems
    M = sum(m for m, _ in counts.values())
    F = sum(f for _, f in counts.values())
    ids = sorted(counts)
    s_want = [textbook_s(*counts[pid], M, F) for pid in ids]
    # z is left empty where it is undefined: one phrase, or all s equal
    defined = len(set(s_want)) > 1
    z_want = population_z(s_want) if defined else [None] * len(ids)
    bad = []
    for row, s, z in zip(rows, s_want, z_want):
        m, f = counts[row[0]]
        if (row[6] == "") != (z is None):
            bad.append(f"{row[0]} z={row[6]!r}, expected {z!r}")
            continue
        fields = [("raw", float(row[4]), m / (m + f)), ("s", float(row[5]), s)]
        if z is not None:
            fields.append(("z", float(row[6]), z))
        for label, value, want in fields:
            if not math.isclose(value, want, rel_tol=1e-9, abs_tol=1e-12):
                bad.append(f"{row[0]} {label}={value!r}, expected {want!r}")
    problems += [f"{name}: {b}" for b in bad[:MAX_REPORTED]]
    if len(bad) > MAX_REPORTED:
        problems.append(f"{name}: {len(bad) - MAX_REPORTED} more wrong values")
    return problems


def check_manifest(text: str, pairs, name: str = "manifest", skip=("corpus",)) -> list[str]:
    problems: list[str] = []
    got = {}
    for line in text.splitlines():
        key, _, value = line.partition("\t")
        got[key] = value
    want = {k: str(v) for k, v in (pairs.items() if isinstance(pairs, dict) else pairs)}
    for key in skip:
        got.pop(key, None)
    _compare(problems, name, got, want)
    return problems


def check_lexicons(texts: dict[str, str], expect: dict) -> list[str]:
    lex = expect["lexicons"]
    problems: list[str] = []
    want = {
        "actions.tsv": "\n".join([ACTIONS_HEADER] + [f"{cid}\t{t}" for cid, t in lex["actions"]]) + "\n",
        "verbs.txt": "".join(f"{v}\n" for v in lex["verbs"]),
        "names_male.txt": "".join(f"{n}\n" for n in lex["male"]),
        "names_female.txt": "".join(f"{n}\n" for n in lex["female"]),
    }
    for name, text in want.items():
        if texts[name] != text:
            got, exp = texts[name].splitlines(), text.splitlines()
            first = next((i for i, (a, b) in enumerate(zip(got, exp)) if a != b), min(len(got), len(exp)))
            problems.append(f"{name}: differs from the planted set at line {first + 1} ({len(got)} vs {len(exp)} lines)")
    problems += check_manifest(texts["lexicons_manifest.tsv"], lex["manifest"], "lexicons_manifest")
    return problems


def check_evaluation(texts: dict[str, str], expect: dict) -> list[str]:
    ev = expect["evaluation"]
    problems: list[str] = []
    gold = "\n".join([GOLD_HEADER] + [f"{p}\t{t}\t{m}\t{n}" for p, t, m, n in ev["gold"]]) + "\n"
    if texts["gold_aggregated.tsv"] != gold:
        problems.append("gold_aggregated.tsv: differs from the aggregation of the planted ratings")
    scatter = "\n".join([SCATTER_HEADER] + ev["scatter"]) + "\n"
    if texts["scatter.tsv"] != scatter:
        problems.append("scatter.tsv: differs from the planted z pairs")
    rows = _rows(texts["eval_report.tsv"], REPORT_HEADER, 6, problems, "eval_report")
    if [r[0] for r in rows] != [w[0] for w in ev["report"]]:
        problems.append(f"eval_report: methods {[r[0] for r in rows]} != {[w[0] for w in ev['report']]}")
    else:
        labels = ("spearman", "auc", "accuracy", "coverage_pct")
        for row, want in zip(rows, ev["report"]):
            for label, value, exp in zip(labels, row[1:5], want[1:5]):
                if not math.isclose(float(value), exp, rel_tol=1e-12, abs_tol=1e-12):
                    problems.append(f"eval_report: {row[0]} {label}={value}, expected {exp!r}")
            if row[5] != str(want[5]):
                problems.append(f"eval_report: {row[0]} coverage_n={row[5]}, expected {want[5]}")
    problems += check_manifest(texts["eval_manifest.tsv"], ev["manifest"], "eval_manifest")
    return problems
