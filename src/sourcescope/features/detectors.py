"""The five binary site detectors and their composition.

Each detector is a pure function of an immutable snapshot and lexicon, so
adding pages or languages can only raise bits, never lower them.
"""

from __future__ import annotations

import re
from typing import Optional
from urllib.parse import urlsplit

from ..model import FEATURE_NAMES, FeatureVector
from .html_text import PageText, normalize_text
from .lexicon import SECTION_KINDS, KeywordLexicon, default_lexicon
from .snapshot import FetchPolicy, SiteSnapshot, fetch_site

__all__ = [
    "FeatureVector",
    "FEATURE_NAMES",
    "extract_features",
]

_PHONE_SCHEMES = ("tel:", "fax:", "callto:")
# maximal run of digits with common separators, optionally led by '+'
_DIGIT_RUN = re.compile(r"\+?\d[\d\s().\-]*")
_WORD_CHAR = re.compile(r"\w")
_PHONE_PROXIMITY = 40
_MIN_DIGITS, _MAX_DIGITS = 7, 15
_URL_UNSAFE = str.maketrans("", "", "\t\r\n")     # removed from a URL by urlsplit


def _sections_unseen(page: PageText, hrefs: list[str], kinds: tuple[str, ...],
                     lexicon: KeywordLexicon) -> tuple[str, ...]:
    """The kinds among ``kinds`` that no anchor text, heading, footer text or
    link path (of ``hrefs``, the page's non-phone links) shows.

    The texts are tested first, then the kinds they leave on all hrefs at
    once: ``urlsplit(href).path`` is a substring of ``href`` less its tabs
    and line breaks, and a normalized substring is a substring of the
    normalized whole, so a kind with no phrase in the joined hrefs shows in
    no path, and no href is split for it.
    """
    texts = [text for text, _ in page.anchors] + [*page.headings, page.footer_text]
    shown = lexicon.sections_shown("\n".join(texts), kinds)
    unseen = [kind for kind in kinds if kind not in shown]
    maybe = unseen and lexicon.sections_shown(
        normalize_text(" ".join(hrefs).translate(_URL_UNSAFE)), unseen)
    if maybe:
        paths = []
        for href in hrefs:
            try:
                paths.append(normalize_text(urlsplit(href).path))
            except ValueError:      # e.g. an unclosed "[" host: skip this link only
                continue
        shown = lexicon.sections_shown("\n".join(paths), maybe)
        unseen = [kind for kind in unseen if kind not in shown]
    return tuple(unseen)


def _digit_spans(text: str):
    """(start, end) spans of separator-tolerant digit runs of phone length."""
    for match in _DIGIT_RUN.finditer(text):
        run = match.group().rstrip(" ().-")
        digits = sum(ch.isdigit() for ch in run)
        if _MIN_DIGITS <= digits <= _MAX_DIGITS:
            yield match.start(), match.start() + len(run)


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


def _keyword_near_number(text: str, lexicon: KeywordLexicon) -> bool:
    """Whether a phone-length digit run sits within 40 characters of a
    telephone/fax keyword in ``text``."""
    hits = [span for keyword, pattern in zip(lexicon.telephone_phrases, lexicon.telephone_patterns)
            if keyword in text for span in _keyword_spans(text, pattern)]
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
    snapshot = fetch_site(url, policy, lexicon)
    return features_from_snapshot(snapshot, lexicon)


def features_from_snapshot(snapshot: SiteSnapshot, lexicon: Optional[KeywordLexicon] = None,
                           source_url: Optional[str] = None) -> FeatureVector:
    """Apply all five detectors to an existing snapshot, reading its pages
    in order until every bit is set.

    A page is read only for the bits still unset: each distinct href is
    tested once for a phone scheme, link paths are split only when the
    hrefs could show a kind the texts do not (:func:`_sections_unseen`),
    and a telephone keyword is searched only where the text contains it.
    The bits are those of testing every region of every page.
    """
    lexicon = lexicon or default_lexicon()
    unseen = SECTION_KINDS
    telephone = False
    for page in snapshot.pages:
        text = page.text
        phone_link = {href: href.strip().casefold().startswith(_PHONE_SCHEMES)
                      for _, href in text.anchors if href}
        if unseen:
            hrefs = [href for href, phone in phone_link.items() if not phone]
            unseen = _sections_unseen(text, hrefs, unseen, lexicon)
        telephone = (telephone or any(phone_link.values())
                     or _keyword_near_number(text.full_text, lexicon))
        if telephone and not unseen:
            break
    return FeatureVector(
        padlock=int(snapshot.final_scheme_secure),
        contact=int("contact" not in unseen),
        telephone=int(telephone),
        about=int("about" not in unseen),
        terms=int("terms" not in unseen),
        source_url=source_url if source_url is not None else snapshot.requested_url,
    )
