"""Section matching on the lexicon against the code it replaced.

The references below are the earlier ``KeywordLexicon.phrases_for`` /
``all_section_phrases`` / ``telephone_keywords_normalized`` methods and the
earlier ``snapshot._candidate_links``, since deleted or rewritten, kept
verbatim apart from names (a method's ``self`` is the ``lexicon`` argument).
The lexicon's derived phrase lists, its one section test and the candidate
pages it picks must be the same on every lexicon and every link list.
"""

from urllib.parse import urljoin, urlsplit, urlunsplit

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sourcescope.errors import LexiconError, UnparseableUrlError
from sourcescope.features import (
    SECTION_KINDS,
    KeywordLexicon,
    PageText,
    default_lexicon,
    normalize_text,
)
from sourcescope.features.lexicon import _REQUIRED_ENGLISH
from sourcescope.features.snapshot import _MAX_SECONDARY_PAGES, _candidate_links
from sourcescope.screener import normalize_domain


def reference_phrases_for(lexicon: KeywordLexicon, kind: str) -> tuple[str, ...]:
    """All normalized phrases for a section feature, across languages."""
    if kind not in SECTION_KINDS:
        raise LexiconError(f"unknown section kind {kind!r}; expected one of {SECTION_KINDS}")
    table = getattr(lexicon, kind)
    out = []
    for lang in lexicon.languages:
        out.extend(normalize_text(p) for p in table.get(lang, ()))
    return tuple(dict.fromkeys(out))


def reference_all_section_phrases(lexicon: KeywordLexicon) -> tuple[str, ...]:
    """Union of the three section vocabularies (secondary-page candidates)."""
    out = []
    for kind in SECTION_KINDS:
        out.extend(reference_phrases_for(lexicon, kind))
    return tuple(dict.fromkeys(out))


def reference_telephone_keywords_normalized(lexicon: KeywordLexicon) -> tuple[str, ...]:
    return tuple(dict.fromkeys(normalize_text(k) for k in lexicon.telephone_keywords))


def reference_candidate_links(landing_url: str, page: PageText, lexicon: KeywordLexicon) -> list[str]:
    """Same-domain links whose text or path matches any section phrase."""
    phrases = reference_all_section_phrases(lexicon)
    try:
        site_domain = normalize_domain(landing_url)
    except UnparseableUrlError:
        return []
    seen: dict[str, None] = {}
    for text, href in page.anchors:
        if not href or href.startswith(("#", "mailto:", "tel:", "fax:", "callto:", "javascript:")):
            continue
        try:
            parts = urlsplit(urljoin(landing_url, href))
        except ValueError:          # e.g. an unclosed "[" host: skip this link only
            continue
        if parts.scheme not in ("http", "https"):
            continue
        resolved = urlunsplit((parts.scheme, parts.netloc, parts.path, parts.query, ""))
        if resolved == landing_url:
            continue
        try:
            if normalize_domain(resolved) != site_domain:
                continue
        except UnparseableUrlError:
            continue
        path = normalize_text(parts.path)
        if any(p in text or p in path for p in phrases):
            seen.setdefault(resolved, None)
        if len(seen) >= _MAX_SECONDARY_PAGES:
            break
    return list(seen)


WORDS = ["contact", "us", "about", "terms", "kontakt", "über", "uns", "agb", "legal",
         "/contact", "/about-us", "chi siamo", "who", "info", "tel", "phone", "ü", "x"]


def _variant(phrase: str):
    """``phrase`` in another case or with other whitespace, same normal form."""
    return st.sampled_from([phrase, phrase.upper(), phrase.title(), f"  {phrase}\t",
                            phrase.replace(" ", " \n ")])


_phrase = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join).flatmap(_variant)
_other_languages = st.lists(st.sampled_from(["it", "es", "fr", "de", "xx"]), unique=True, max_size=4)


@st.composite
def lexicons(draw) -> KeywordLexicon:
    """Multi-language lexicons: the English seeds in any case or spacing,
    phrases repeated within and across languages and kinds, languages
    declared in any order and some with no phrases for a kind."""
    others = draw(_other_languages)
    languages = draw(st.permutations(["en", *others]))
    tables = {}
    for kind in SECTION_KINDS:
        seeds = [draw(_variant(p)) for p in _REQUIRED_ENGLISH[kind]]
        table = {"en": tuple(draw(st.permutations(seeds + draw(st.lists(_phrase, max_size=3)))))}
        for lang in others:
            if draw(st.booleans()):
                table[lang] = tuple(draw(st.lists(_phrase, max_size=4)))
        tables[kind] = table
    telephone = tuple(draw(st.lists(_phrase, min_size=1, max_size=5)))
    return KeywordLexicon(telephone_keywords=telephone, languages=tuple(languages), **tables)


_any_lexicon = st.one_of(st.just(default_lexicon()), lexicons())


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_any_lexicon)
def test_derived_phrases_match_reference(lexicon):
    for kind in SECTION_KINDS:
        assert lexicon.section_phrases[kind] == reference_phrases_for(lexicon, kind)
    assert lexicon.telephone_phrases == reference_telephone_keywords_normalized(lexicon)


_regions = st.lists(st.lists(st.sampled_from(WORDS), max_size=4).map(" ".join),
                    max_size=4).map("\n".join)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_any_lexicon, _regions, st.lists(st.sampled_from(SECTION_KINDS), unique=True))
def test_sections_shown_matches_reference(lexicon, region, kinds):
    expected = [kind for kind in kinds
                if any(phrase in region for phrase in reference_phrases_for(lexicon, kind))]
    assert lexicon.sections_shown(region, kinds) == expected
    assert lexicon.sections_shown(region) == [
        kind for kind in SECTION_KINDS
        if any(phrase in region for phrase in reference_phrases_for(lexicon, kind))]


LANDINGS = ["http://news.test/", "https://www.news.test/section/story.html",
            "http://news.test/a/b?page=2", "https://news.test/#top", "http://news.test"]
HREFS = [
    "", "#", "#contact", "contact.html", "/contact-us", "../about-us/", "?terms=1", "/über uns",
    "/Who%20We%20Are", "//news.test/terms", "http://news.test/", "https://news.test/contact",
    "http://www.news.test/legal-notes", "http://sub.news.test/kontakt#x", "http://other.test/contact",
    "https://news.test.evil.test/about", "mailto:contact@news.test", "tel:1-800-CONTACT",
    "TEL:1-800-CONTACT", " tel:about-us", "Callto:terms", "fax:1", "javascript:contact()",
    "MAILTO:about@news.test", "javascript:location='/about-us'",
    "ftp://news.test/terms", "http://[::1", "http://[oops/about-us", " /terms ", "/x#about",
]
TEXTS = ["", "contact us", "About Us", "who we are", "agb", "read more", "x", "terms of use",
         "kontakt", "home"]
_anchors = st.lists(st.tuples(st.sampled_from(TEXTS).map(normalize_text), st.sampled_from(HREFS)),
                    max_size=14)


# a phrase that spans the end of a link's text and the start of its path
SPANNING = KeywordLexicon(
    contact={"en": ("contact us", "connect with us", "gives us a tip", "more/home")},
    telephone_keywords=("phone",), languages=("en",),
    **{kind: {"en": _REQUIRED_ENGLISH[kind]} for kind in ("about", "terms")})


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_any_lexicon, st.sampled_from(LANDINGS), _anchors)
@example(SPANNING, "http://news.test/", [("read more", "/home"), ("x", "/more/home")])
# links that show a phrase but lead to another domain, then one that stays
@example(default_lexicon(), "http://news.test/",
         [("contact us", "http://other.test/contact"), ("about us", "https://news.test.evil.test/about"),
          ("terms of use", "//other.test/terms"), ("contact us", "/contact")])
# a landing URL with no hostname to compare with, and a link whose host is no domain
@example(default_lexicon(), "http://[oops/", [("contact us", "/contact")])
@example(default_lexicon(), "http://news.test/",
         [("contact us", "http://x_y.test/contact"), ("about us", "/about")])
def test_candidate_links_match_reference(lexicon, landing, anchors):
    page = PageText(anchors=tuple(anchors), headings=(), footer_text="", full_text="")
    assert _candidate_links(landing, page, lexicon) == reference_candidate_links(landing, page, lexicon)

