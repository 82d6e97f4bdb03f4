"""Run configuration: a flat key=value file plus command-line overrides.

Every key can be set in the config file or overridden by the flag of
the same name (underscores become hyphens on the command line).  Paths
in the file are resolved relative to the file's directory.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping

from .errors import ConfigError, open_text

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _to_bool(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _to_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _to_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


@dataclass
class RunConfig:
    tweet_corpus: Path | None = None
    document_corpus: Path | None = None
    document_format: str = "vertical"
    male_names: Path | None = None
    female_names: Path | None = None
    concepts: Path | None = None
    tag_counts: Path | None = None
    tag_map: Path | None = None
    wordlist: Path | None = None
    dominance_ratio: float = 2.0
    max_nonenglish_ratio: float = 0.20
    min_occurrences: int = 1
    dedup: bool = False
    extended_pronouns: bool = False
    seed: int = 0
    output_dir: Path = Path("out")
    lexicon_dir: Path | None = None

    def __post_init__(self):
        if self.document_format not in ("vertical", "plain"):
            raise ConfigError(
                f"document_format must be vertical or plain, got {self.document_format!r}"
            )
        if self.min_occurrences < 1:
            raise ConfigError("min_occurrences must be >= 1")

    def require(self, *keys: str) -> None:
        """Fail fast when a command needs keys the config leaves unset
        or pointing at missing files."""
        missing = [k for k in keys if getattr(self, k) is None]
        if missing:
            raise ConfigError(
                "missing required configuration: " + ", ".join(sorted(missing))
            )
        for k in keys:
            value = getattr(self, k)
            if isinstance(value, Path) and not value.is_file():
                raise ConfigError(f"{k}: no such file: {value}")


_PATH_KEYS = {
    "tweet_corpus",
    "document_corpus",
    "male_names",
    "female_names",
    "concepts",
    "tag_counts",
    "tag_map",
    "wordlist",
    "output_dir",
    "lexicon_dir",
}

CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))
_COMMENT = re.compile(r"(?:^|\s)#.*")


def strip_comment(line: str) -> str:
    """Strip a line and its comment: a '#' at the start or after whitespace."""
    return _COMMENT.sub("", line, count=1).strip()


def parse_config_file(path: Path) -> dict[str, str]:
    """Read ``key = value`` lines; comments as in ``strip_comment``, blanks skipped."""
    values: dict[str, str] = {}
    try:
        with open_text(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw)
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{line_no}: empty value for {key!r}")
        values[key] = value
    return values


def build_config(
    file_values: Mapping[str, str],
    overrides: Mapping[str, str | None],
    base_dir: Path | None = None,
) -> RunConfig:
    """Merge (defaults < config file < flags) and coerce types.

    Relative paths from the file resolve against ``base_dir``; relative
    paths given on the command line stay relative to the working
    directory.
    """
    merged: dict[str, tuple[str, bool]] = {
        k: (v, True) for k, v in file_values.items()
    }
    for key, value in overrides.items():
        if value is not None:
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown configuration key {key!r}")
            merged[key] = (value, False)

    kwargs: dict[str, object] = {}
    for key, (raw, from_file) in merged.items():
        if key in _PATH_KEYS:
            p = Path(raw)
            if from_file and base_dir is not None and not p.is_absolute():
                p = base_dir / p
            kwargs[key] = p
        elif key in ("dedup", "extended_pronouns"):
            kwargs[key] = _to_bool(key, raw)
        elif key in ("min_occurrences", "seed"):
            kwargs[key] = _to_int(key, raw)
        elif key in ("dominance_ratio", "max_nonenglish_ratio"):
            kwargs[key] = _to_float(key, raw)
        else:
            kwargs[key] = raw
    return RunConfig(**kwargs)


def load_config(path: Path | None, overrides: Mapping[str, str | None]) -> RunConfig:
    if path is None:
        return build_config({}, overrides)
    return build_config(parse_config_file(path), overrides, base_dir=path.parent)
