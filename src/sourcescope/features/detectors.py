"""The five binary site detectors and their composition.

Each detector is a pure function of an immutable snapshot and lexicon, so
adding pages or languages can only raise bits, never lower them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional
from urllib.parse import urlsplit

from ..errors import MissingFeatureError
from .html_text import PageText, normalize_text
from .lexicon import SECTION_KINDS, KeywordLexicon, default_lexicon
from .snapshot import FetchPolicy, SiteSnapshot, fetch_site

__all__ = [
    "FeatureVector",
    "FEATURE_NAMES",
    "detect_padlock",
    "extract_features",
]

FEATURE_NAMES = ("padlock", "contact", "telephone", "about", "terms")

_PHONE_SCHEMES = ("tel:", "fax:", "callto:")
# maximal run of digits with common separators, optionally led by '+'
_DIGIT_RUN = re.compile(r"\+?\d[\d\s().\-]*")
_WORD_CHAR = re.compile(r"\w")
_PHONE_PROXIMITY = 40
_MIN_DIGITS, _MAX_DIGITS = 7, 15


@dataclass(frozen=True)
class FeatureVector:
    """The five 0/1 predictors for one website."""

    padlock: int
    contact: int
    telephone: int
    about: int
    terms: int
    source_url: Optional[str] = None

    def __post_init__(self):
        for name in FEATURE_NAMES:
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"feature {name!r} must be 0 or 1")

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in FEATURE_NAMES}

    def get(self, name: str) -> int:
        if name not in FEATURE_NAMES:
            raise MissingFeatureError(f"unknown feature {name!r}")
        return getattr(self, name)


def detect_padlock(snapshot: SiteSnapshot) -> int:
    """1 iff the connection that served the final URL was TLS-secured."""
    return int(snapshot.final_scheme_secure)


def _is_phone_link(href: str) -> bool:
    return href.strip().casefold().startswith(_PHONE_SCHEMES)


def _page_regions(page: PageText) -> str:
    """Anchor texts, link paths, headings and footer text of one page.

    The regions are joined by newlines.  Normalized text never holds one,
    so a phrase found in the joined string lies within a single region.
    A phone link's number is not a path.
    """
    regions = [text for text, _ in page.anchors]
    for _, href in page.anchors:
        if href and not _is_phone_link(href):
            try:
                path = urlsplit(href).path
            except ValueError:      # e.g. an unclosed "[" host: skip this link only
                continue
            regions.append(normalize_text(path))
    regions.extend(page.headings)
    regions.append(page.footer_text)
    return "\n".join(regions)


def _digit_spans(text: str):
    """(start, end) spans of separator-tolerant digit runs of phone length."""
    for match in _DIGIT_RUN.finditer(text):
        run = match.group().rstrip(" ().-")
        digits = sum(ch.isdigit() for ch in run)
        if _MIN_DIGITS <= digits <= _MAX_DIGITS:
            yield match.start(), match.start() + len(run)


def _keyword_patterns(lexicon: KeywordLexicon) -> list[re.Pattern]:
    # Literal first: a pattern led by a lookbehind is tried at every
    # position of the text, so the left word boundary is checked per hit.
    return [re.compile(re.escape(k) + r"(?!\w)") for k in lexicon.telephone_phrases]


def _keyword_spans(text: str, pattern: re.Pattern):
    """Spans of word-bounded keyword hits, as ``(?<!\\w)kw(?!\\w)`` finds them."""
    pos = 0
    while hit := pattern.search(text, pos):
        start = hit.start()
        if start and _WORD_CHAR.match(text, start - 1):
            pos = start + 1
        else:
            yield hit.span()
            pos = hit.end()


def _page_has_telephone(page: PageText, keyword_patterns: list[re.Pattern]) -> bool:
    """Whether a phone-scheme link exists or a phone-length digit run sits
    within 40 characters of a telephone/fax keyword."""
    for _, href in page.anchors:
        if href and _is_phone_link(href):
            return True
    text = page.full_text
    hits = [span for pattern in keyword_patterns for span in _keyword_spans(text, pattern)]
    if not hits:
        return False
    numbers = list(_digit_spans(text))
    for kw_start, kw_end in hits:
        for start, end in numbers:
            if max(start - kw_end, kw_start - end) <= _PHONE_PROXIMITY:
                return True
    return False


def extract_features(url: str, policy: FetchPolicy,
                     lexicon: Optional[KeywordLexicon] = None) -> FeatureVector:
    """Fetch a site and reduce it to the five binary predictors."""
    lexicon = lexicon or default_lexicon()
    snapshot = fetch_site(url, policy, lexicon)
    return features_from_snapshot(snapshot, lexicon, source_url=url)


def features_from_snapshot(snapshot: SiteSnapshot, lexicon: Optional[KeywordLexicon] = None,
                           source_url: Optional[str] = None) -> FeatureVector:
    """Apply all five detectors to an existing snapshot, reading its pages
    in order until every bit is set."""
    lexicon = lexicon or default_lexicon()
    unseen = SECTION_KINDS
    patterns = _keyword_patterns(lexicon)
    telephone = False
    for page in snapshot.pages:
        text = page.text
        if unseen:
            shown = lexicon.sections_shown(_page_regions(text), unseen)
            unseen = tuple(kind for kind in unseen if kind not in shown)
        telephone = telephone or _page_has_telephone(text, patterns)
        if telephone and not unseen:
            break
    return FeatureVector(
        padlock=detect_padlock(snapshot),
        contact=int("contact" not in unseen),
        telephone=int(telephone),
        about=int("about" not in unseen),
        terms=int("terms" not in unseen),
        source_url=source_url if source_url is not None else snapshot.requested_url,
    )
