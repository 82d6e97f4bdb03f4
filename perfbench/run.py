#!/usr/bin/env python3
"""Pipeline benchmark for the stereomine CLI.

    python3 perfbench/run.py --workload tweet_paper --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed (cached under
``perfbench/work/``), then runs the CLI the way a user does: one
process per subcommand, one after another.  With ``--trace 0`` it times
one cold set-up (the same commands on cut-down inputs) and then whole
rounds of the workload's commands for ``--seconds``, checking every
artifact, and prints the end-to-end metrics.  With ``--trace 1`` it
runs one checked round, then the same work in-process through the
package's public functions with a span around each module's calls, and
prints the per-layer metrics.  The last line of standard output is the
JSON result; progress goes to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import generate
import traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def commands(workload: str, data: Path, lexdir: Path, out: Path) -> list[tuple[list[str], Path, tuple[str, ...]]]:
    """(CLI arguments, output directory, artifact names) per command."""
    cfg = str(data / "run.cfg")
    if workload in ("tweet_paper", "document_dense"):
        kind = "tweet" if workload == "tweet_paper" else "document"
        return [(
            ["score", "--config", cfg, "--kind", kind, "--lexicon-dir", str(lexdir), "--output-dir", str(out)],
            out,
            (f"{kind}_counts.tsv", f"{kind}_scores.tsv", f"{kind}_manifest.tsv"),
        )]
    return [
        (
            ["build-lexicons", "--config", cfg, "--output-dir", str(out / "lex")],
            out / "lex",
            ("actions.tsv", "verbs.txt", "names_male.txt", "names_female.txt", "lexicons_manifest.tsv"),
        ),
        (
            ["evaluate", "--config", cfg, "--output-dir", str(out / "eval"),
             "--scores", str(data / "tweet_scores.tsv"), str(data / "document_scores.tsv"),
             "--ratings", str(data / "ratings.tsv")],
            out / "eval",
            ("eval_report.tsv", "gold_aggregated.tsv", "scatter.tsv", "eval_manifest.tsv"),
        ),
    ]


def check_artifacts(workload: str, texts: dict[str, str], expect: dict) -> list[str]:
    if workload == "lexicons_evaluate":
        if "actions.tsv" in texts:
            return checks.check_lexicons(texts, expect)
        return checks.check_evaluation(texts, expect)
    kind = "tweet" if workload == "tweet_paper" else "document"
    return (
        checks.check_counts(texts[f"{kind}_counts.tsv"], expect, f"{kind}_counts")
        + checks.check_scores(texts[f"{kind}_scores.tsv"], expect, f"{kind}_scores")
        + checks.check_manifest(texts[f"{kind}_manifest.tsv"], expect["manifest"], f"{kind}_manifest")
    )


class Runner:
    """Launches CLI commands and keeps the run's tallies."""

    def __init__(self, workload: str, inputs: Path):
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # commands that exited 0 but wrote a wrong artifact
        self.verified: dict[tuple[str, str], str] = {}  # (part, command) -> artifact digest
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.log = WORK / f"{workload}.stderr"

    def spawn(self, args: list[str]) -> tuple[int, int]:
        """Run one CLI process to its end; (exit code, peak RSS in KiB)."""
        with open(self.log, "ab") as err:
            pid = os.posix_spawn(
                sys.executable,
                [sys.executable, "-m", "stereomine.cli", *args],
                self.env,
                file_actions=[
                    (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                    (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                    (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
                ],
            )
            _, status, usage = os.wait4(pid, 0)
        return os.waitstatus_to_exitcode(status), usage.ru_maxrss

    def round(self, part: str) -> tuple[float, float, dict[str, str]]:
        """All commands of the workload once on ``inputs/<part>``; returns
        wall seconds, the highest peak RSS in MB and the artifacts."""
        data = self.inputs / part
        out = WORK / f"{self.workload}-out" / part
        shutil.rmtree(out, ignore_errors=True)
        expect = json.loads((data / "expect.json").read_text(encoding="utf-8"))
        cmds = commands(self.workload, data, self.inputs / "lex", out)
        codes = []
        peak = 0
        start = time.perf_counter()
        for args, _, _ in cmds:
            code, rss = self.spawn(args)
            codes.append(code)
            peak = max(peak, rss)
        wall = time.perf_counter() - start

        artifacts: dict[str, str] = {}
        for (args, outdir, names), code in zip(cmds, codes):
            self.attempted += 1
            if code != 0:
                self.failed += 1
                log(f"FAIL {args[0]} on {part}: exit code {code}, see {self.log}")
                continue
            try:
                texts = {n: (outdir / n).read_text(encoding="utf-8") for n in names}
            except OSError as exc:
                self.failed += 1
                self.wrong += 1
                log(f"FAIL {args[0]} on {part}: {exc}")
                continue
            artifacts.update(texts)
            digest = hashlib.sha256(json.dumps(texts, sort_keys=True).encode()).hexdigest()
            key = (part, args[0])
            if key in self.verified:
                problems = [] if digest == self.verified[key] else ["artifacts differ from the first round's"]
            else:
                problems = check_artifacts(self.workload, texts, expect)
                if not problems:
                    self.verified[key] = digest
            if problems:
                self.failed += 1
                self.wrong += 1
                for p in problems:
                    log(f"FAIL {args[0]} on {part}: {p}")
        return wall, peak / 1024.0, artifacts


def trace_run(workload: str, inputs: Path, untraced: dict[str, str], untraced_wall: float, seed: int):
    """The in-process traced pass; per-layer metrics and whether its
    artifacts equal the CLI's (None when a layer could not be timed)."""
    data = inputs / "full"
    out = WORK / f"{workload}-out" / "full"
    start = time.perf_counter()
    try:
        if workload == "lexicons_evaluate":
            tr, built = traced.traced_lexicons_evaluate(data / "run.cfg", data, out / "lex", out / "eval")
        else:
            kind = "tweet" if workload == "tweet_paper" else "document"
            tr, built = traced.traced_score(kind, data / "run.cfg", inputs / "lex", out)
    except traced.LayerError as exc:
        log(f"trace: {exc}; end-to-end runs and checks are unaffected")
        return {name: 0.0 for name in traced.LAYER_METRICS}, None
    total = time.perf_counter() - start
    differ = [name for name, text in built.items() if untraced.get(name) != text]
    for name in differ:
        log(f"FAIL trace: {name} built through the public functions differs from the CLI's")
    metrics = traced.layer_metrics(tr, total, untraced_wall)
    (WORK / f"trace-{workload}-s{seed}.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "total_s": total, "spans": tr.spans}, indent=1),
        encoding="utf-8",
    )
    match = next((s for s in tr.spans if s["name"] == "matcher.match"), None)
    if match and "busy_unknown_author" in match:
        share = match["busy_unknown_author"] / match["busy"]
        log(f"trace: {share:.1%} of matcher.match_s falls on records whose author gender is unknown")
    return metrics, not differ


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        commit = done.stdout.strip() or commit
    try:
        import stereomine.matcher as matcher
    except ImportError:
        matcher = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "backend": getattr(matcher, "BACKEND", None),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=generate.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "stereomine" / "cli.py").is_file():
        log(f"error: the stereomine sources are not at {SRC}; run from a checkout of the repository")
        return 1
    sys.path.insert(0, str(SRC))  # for the traced run and the environment record

    WORK.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    inputs = generate.ensure_inputs(args.workload, args.seed, WORK)
    log(f"{args.workload} seed {args.seed}: inputs ready in {time.perf_counter() - t0:.1f}s at {inputs}")
    runner = Runner(args.workload, inputs)
    if runner.log.exists():
        runner.log.unlink()

    if args.trace:
        wall, _, artifacts = runner.round("full")
        metrics, same = trace_run(args.workload, inputs, artifacts, wall, args.seed)
        correct = runner.wrong == 0 and same is not False
        units = traced.LAYER_METRICS
    else:
        setup_s, _, _ = runner.round("tiny")
        walls, peaks = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            wall, peak, _ = runner.round("full")
            walls.append(wall)
            peaks.append(peak)
        log(f"{len(walls)} rounds, wall_s {[round(w, 3) for w in walls]}")
        # the first round warms the caches after generation and set-up;
        # it is checked like the others but not timed
        metrics = {
            "wall_s": statistics.median(walls[1:] or walls),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(peaks),
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        correct = runner.wrong == 0

    env = environment()
    env.update(workload=args.workload, seed=args.seed, attempted=runner.attempted, failed=runner.failed)
    print("env " + json.dumps(env), flush=True)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
