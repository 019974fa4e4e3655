"""Runtime configuration: lexicon locations, retrieval technique and the
behavior switches exposed for evaluation experiments."""

from __future__ import annotations

from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .errors import LexiconParseError
from .text_core import read_rows

# Each data-file field and the bundled file it defaults to.
_DATA_FILES = {
    "stopwords": "stopwords.txt",
    "negation": "negation.txt",
    "article_exceptions": "alef_lam.txt",
    "thesaurus": "thesaurus.tsv",
    "stem_overrides": "stem_overrides.tsv",
}


def default_data_path(name: str) -> Path:
    return Path(resources.files("halqa").joinpath("data", name))


@dataclass(frozen=True)
class Config:
    corpus_dir: Path | None = None
    stopwords: Path = None
    negation: Path = None
    article_exceptions: Path = None
    thesaurus: Path = None
    stem_overrides: Path = None
    technique: str = "paragraph"        # paragraph | document
    k_paras: int = 5
    k_docs: int = 5
    use_thesaurus: bool = True
    use_advanced_search: bool = True

    def __post_init__(self):
        for name, filename in _DATA_FILES.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, default_data_path(filename))
            else:
                object.__setattr__(self, name, Path(getattr(self, name)))
        if self.corpus_dir is not None:
            object.__setattr__(self, "corpus_dir", Path(self.corpus_dir))
        if self.k_paras < 1 or self.k_docs < 1:
            raise ValueError("k_paras and k_docs must be >= 1")
        if self.technique not in ("paragraph", "document"):
            raise ValueError(f"unknown technique: {self.technique}")


def load_config(path: Path | str) -> Config:
    """Parse a key = value config file (UTF-8, # comments), each key at
    most once. A value is read as the kind of its field's default; the path
    fields default to None."""
    path = Path(path)
    defaults = {f.name: f.default for f in fields(Config)}
    values = {}
    for lineno, row in read_rows(path):
        if "=" not in row:
            raise LexiconParseError("expected key = value", path, lineno)
        key, _, value = row.partition("=")
        key, value = key.strip(), value.strip()
        if key not in defaults:
            raise LexiconParseError(f"unknown config key {key!r}", path, lineno)
        if key in values:
            raise LexiconParseError(f"duplicate config key {key!r}", path, lineno)
        kind = type(defaults[key])
        if kind is bool:
            if value.lower() not in ("on", "off", "true", "false"):
                raise LexiconParseError(f"expected on/off for {key}", path, lineno)
            value = value.lower() in ("on", "true")
        elif defaults[key] is None:
            if not value:
                raise LexiconParseError(f"bad {key}: empty path", path, lineno)
            # Relative paths resolve against the config file's directory.
            value = (path.parent / value).resolve()
        try:
            if kind is int:
                value = int(value)
            Config(**{key: value})  # Config alone holds the value rules
        except ValueError as exc:
            raise LexiconParseError(f"bad {key}: {exc}", path, lineno) from exc
        values[key] = value
    return Config(**values)
