"""Keyword lexicon driving the section and telephone detectors.

Phrases are grouped per feature and per language tag; matching is
casefolded and whitespace-normalized, so lexicon files may use any case.
The built-in lexicon ships English seed phrases (with their link-path
forms) plus Italian, Spanish, French and German equivalents, and may be
replaced or extended via a JSON file.

This module owns section matching: :meth:`KeywordLexicon.sections_shown`
is the one test of whether a text region shows a contact, about or terms
section, for the detectors and for picking candidate pages alike.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

from ..errors import LexiconError
from ..files import DATA, naming, read_json_object
from .html_text import normalize_text

__all__ = ["KeywordLexicon", "SECTION_KINDS", "load_lexicon", "default_lexicon"]

SECTION_KINDS = ("contact", "about", "terms")

# Baseline English synonyms every lexicon must keep so the three section
# detectors retain their documented meaning.
_REQUIRED_ENGLISH = {
    "contact": ("contact us", "connect with us", "gives us a tip"),
    "about": ("about us", "information", "who we are"),
    "terms": ("terms and conditions", "terms", "legal notes", "terms of use"),
}


@dataclass(frozen=True)
class KeywordLexicon:
    """Immutable phrase lists for the contact/about/terms/telephone detectors."""

    contact: Mapping[str, tuple[str, ...]]
    about: Mapping[str, tuple[str, ...]]
    terms: Mapping[str, tuple[str, ...]]
    telephone_keywords: tuple[str, ...]
    languages: tuple[str, ...]

    def __post_init__(self):
        def strings(where: str, value) -> tuple[str, ...]:
            if isinstance(value, (list, tuple)) and all(isinstance(item, str) for item in value):
                return tuple(value)
            raise LexiconError(f"{where} is not a list of strings")

        for field in ("languages", "telephone_keywords"):
            object.__setattr__(self, field, strings(field, getattr(self, field)))
        if not self.languages:
            raise LexiconError("lexicon declares no languages")
        for kind in SECTION_KINDS:
            table = getattr(self, kind)
            if not isinstance(table, Mapping):
                raise LexiconError(f"malformed lexicon document ({kind} is not an object)")
            table = {lang: strings(f"{kind}/{lang}", phrases) for lang, phrases in table.items()}
            object.__setattr__(self, kind, MappingProxyType(table))
            for lang, phrases in table.items():
                if lang not in self.languages:
                    raise LexiconError(f"{kind}: language {lang!r} not declared in 'languages'")
                for phrase in phrases:
                    if not phrase.strip():
                        raise LexiconError(f"{kind}/{lang}: empty phrase")
            present = {normalize_text(p) for p in table.get("en", ())}
            missing = [p for p in _REQUIRED_ENGLISH[kind] if p not in present]
            if missing:
                raise LexiconError(f"{kind}: lexicon must keep English seed phrases {missing}")
        if not self.telephone_keywords:
            raise LexiconError("lexicon declares no telephone keywords")
        for keyword in self.telephone_keywords:
            if not keyword.strip():
                raise LexiconError("empty telephone keyword")

    @cached_property
    def section_phrases(self) -> Mapping[str, tuple[str, ...]]:
        """Each section kind's normalized phrases, in language order, first
        occurrence kept."""
        return MappingProxyType({kind: tuple(dict.fromkeys(
            normalize_text(p) for lang in self.languages for p in getattr(self, kind).get(lang, ())))
            for kind in SECTION_KINDS})

    @cached_property
    def telephone_phrases(self) -> tuple[str, ...]:
        """The normalized telephone keywords, first occurrence kept."""
        return tuple(dict.fromkeys(normalize_text(k) for k in self.telephone_keywords))

    @cached_property
    def telephone_patterns(self) -> tuple[re.Pattern, ...]:
        """Per telephone phrase, in order, a pattern for it with no word
        character after it.  A literal-led pattern is tried only at its hits,
        so the left word boundary is the caller's to check."""
        return tuple(re.compile(re.escape(k) + r"(?!\w)") for k in self.telephone_phrases)

    def sections_shown(self, region: str, kinds: Iterable[str] = SECTION_KINDS) -> list[str]:
        """The kinds among ``kinds`` that have a phrase inside ``region``, a
        normalized text (regions joined by newlines match one at a time)."""
        phrases = self.section_phrases
        return [kind for kind in kinds if any(p in region for p in phrases[kind])]


def load_lexicon(path: str | Path) -> KeywordLexicon:
    """Load a lexicon from a UTF-8 JSON file, with or without a byte-order mark."""
    raw = read_json_object(path, LexiconError)
    try:
        fields = {key: raw[key] for key in ("languages", "telephone_keywords", *SECTION_KINDS)}
    except KeyError as exc:
        raise LexiconError(f"{path}: malformed lexicon document ({exc})") from None
    return naming(path, LexiconError, KeywordLexicon, **fields)


@lru_cache(maxsize=1)
def default_lexicon() -> KeywordLexicon:
    """The packaged five-language lexicon."""
    return load_lexicon(DATA / "lexicon.json")
