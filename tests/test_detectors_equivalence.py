"""The one-pass detectors against the per-detector loops they replaced.

The reference below is the earlier ``detect_section`` / ``detect_telephone``
code, since deleted, kept verbatim apart from names, the skip of a link
that ``urlsplit`` cannot parse, the lexicon's normalized phrase lists (read
through the reference functions of ``test_section_matching_equivalence``)
and the phone-link test, which now strips and casefolds the href as the
telephone detector always did: each section kind rebuilt every page's
regions and tested each phrase against each region, and each telephone
keyword was searched with a lookbehind-led pattern.  The current detectors
must give the same bits.
"""

import re
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sourcescope.features import (
    SECTION_KINDS,
    KeywordLexicon,
    default_lexicon,
    features_from_snapshot,
    normalize_text,
    parse_page,
)
from tests.conftest import make_snapshot
from tests.test_section_matching_equivalence import (
    reference_phrases_for,
    reference_telephone_keywords_normalized,
)

_PHONE_SCHEMES = ("tel:", "fax:", "callto:")
_DIGIT_RUN = re.compile(r"\+?\d[\d\s().\-]*")
_PHONE_PROXIMITY = 40
_MIN_DIGITS, _MAX_DIGITS = 7, 15


def _page_regions(html: str):
    """Anchor texts, link paths, headings and footer text of one page."""
    page = parse_page(html)
    regions = [text for text, _ in page.anchors]
    for _, href in page.anchors:
        if href and not href.strip().casefold().startswith(_PHONE_SCHEMES):
            try:
                path = urlsplit(href).path
            except ValueError:
                continue
            regions.append(normalize_text(path))
    regions.extend(page.headings)
    if page.footer_text:
        regions.append(page.footer_text)
    return regions


def reference_detect_section(snapshot, lexicon, kind):
    """1 iff any page shows a ``kind`` phrase in a link, heading or footer."""
    if kind not in SECTION_KINDS:
        raise ValueError(f"kind must be one of {SECTION_KINDS}, got {kind!r}")
    phrases = reference_phrases_for(lexicon, kind)
    for _, html in snapshot.pages:
        for region in _page_regions(html):
            if region and any(phrase in region for phrase in phrases):
                return 1
    return 0


def _digit_spans(text: str):
    """(start, end) spans of separator-tolerant digit runs of phone length."""
    for match in _DIGIT_RUN.finditer(text):
        run = match.group().rstrip(" ().-")
        digits = sum(ch.isdigit() for ch in run)
        if _MIN_DIGITS <= digits <= _MAX_DIGITS:
            yield match.start(), match.start() + len(run)


def reference_detect_telephone(snapshot, lexicon):
    """1 iff a phone-scheme link exists or a phone-length digit run sits
    within 40 characters of a telephone/fax keyword."""
    keywords = reference_telephone_keywords_normalized(lexicon)
    keyword_res = [re.compile(rf"(?<!\w){re.escape(k)}(?!\w)") for k in keywords]
    for _, html in snapshot.pages:
        page = parse_page(html)
        for _, href in page.anchors:
            if href and href.strip().casefold().startswith(_PHONE_SCHEMES):
                return 1
        text = page.full_text
        number_spans = list(_digit_spans(text))
        if not number_spans:
            continue
        for regex in keyword_res:
            for kw in regex.finditer(text):
                for start, end in number_spans:
                    gap = max(start - kw.end(), kw.start() - end)
                    if gap <= _PHONE_PROXIMITY:
                        return 1
    return 0


def reference_features(snapshot, lexicon):
    return {
        "padlock": int(snapshot.final_scheme_secure),
        "contact": reference_detect_section(snapshot, lexicon, "contact"),
        "telephone": reference_detect_telephone(snapshot, lexicon),
        "about": reference_detect_section(snapshot, lexicon, "about"),
        "terms": reference_detect_section(snapshot, lexicon, "terms"),
    }


# English seed phrases only, with a keyword led by a non-word character and
# a keyword that overlaps itself
CUSTOM = KeywordLexicon(
    contact={"en": ("contact us", "connect with us", "gives us a tip")},
    about={"en": ("about us", "information", "who we are")},
    terms={"en": ("terms and conditions", "terms", "legal notes", "terms of use")},
    telephone_keywords=("+tel", "tel tel"),
    languages=("en",),
)
LEXICONS = {"default": default_lexicon(), "custom": CUSTOM}

NUMBER = "5551234567"


def _near(keyword: str, filler: int) -> list[str]:
    # filler + 2 spaces characters between keyword and number, either side
    pad = "y" * filler
    return [f"{keyword} {pad} {NUMBER}", f"{NUMBER} {pad} {keyword}"]


TOKENS = [
    "contact", "us", "contact us", "who we", "are", "who we are", "about", "terms",
    "of use", "legal", "notes", "über uns", "Kontakt", "AGB", "information",
    "tel", "hotel", "phone", "Fax:", "+tel", "a+tel", "(+tel)", "tel tel", "hotel tel tel",
    "call us", "mobile", "2020", NUMBER, "+39 06 1234 5678", "(02) 1234-5678",
    "12345678901234567890", "x", "ÜBER UNS", "straße",
] + [text for keyword in ("tel", "+tel", "tel tel") for filler in (37, 38, 39)
     for text in _near(keyword, filler)]
HREFS = ["", "#top", "/contact", "/about-us", "/über-uns", "/terms?x=1", "/Who%20We%20Are",
         "http://x.test/legal-notes", "tel:+15550100", " TEL:5550100", "fax:1", "callto:x",
         "TEL:1-800-CONTACT", " tel:about-us", "Callto:terms",
         "mailto:a@b.test", "http://[::1", "http://[oops/about-us",
         # urlsplit removes tabs and line breaks, so these paths show a phrase
         "/con\ntact", "/ter\rms", "/ab\tout",
         # a phrase outside the path: query, fragment, netloc
         "/x?about-us", "/x#contact", "//contact.test/x", "http://terms.test/",
         # a leading space or C0 control before the scheme, stripped by urlsplit
         " http://x.test/about-us", "\x01http://x.test/terms", "\x1f/contact",
         # case, whitespace runs, and characters that casefold to two (ß, İ)
         "/ÜBER-UNS", "/Über  uns", "/Impreßum", "/İnformation", "/who%20we%20are", "/About-Us"]

_text = st.builds(
    "".join,
    st.lists(st.one_of(st.sampled_from(TOKENS), st.sampled_from(["", " ", "-", "\n"])),
             max_size=8))
_element = st.one_of(
    st.builds('<a href="{}">{}</a>'.format, st.sampled_from(HREFS), _text),
    st.builds("<h{0}>{1}</h{0}>".format, st.integers(1, 6), _text),
    st.builds("<footer>{}</footer>".format, _text),
    st.builds('<div class="site-footer">{}</div>'.format, _text),
    st.builds("<p>{}</p>".format, _text),
    st.builds("<script>{}</script>".format, _text),
)
_page = st.builds(lambda parts: "<html><body>" + "".join(parts) + "</body></html>",
                  st.lists(_element, max_size=8))


def assert_same(snapshot, lexicon):
    assert (features_from_snapshot(snapshot, lexicon).as_dict()
            == reference_features(snapshot, lexicon))


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.lists(_page, min_size=1, max_size=3), st.booleans(), st.sampled_from(sorted(LEXICONS)))
def test_generated_pages_match_reference(pages, secure, lexicon):
    assert_same(make_snapshot(*pages, secure=secure), LEXICONS[lexicon])


def body(*parts: str) -> str:
    return "<html><body>" + "".join(parts) + "</body></html>"


@pytest.mark.parametrize("href", HREFS)
@pytest.mark.parametrize("lexicon", sorted(LEXICONS))
def test_each_href_alone_matches_reference(href, lexicon):
    assert_same(make_snapshot(body(f'<a href="{href}">x</a>')), LEXICONS[lexicon])


@pytest.mark.parametrize("lexicon,text,expected", [
    ("default", "hotel 5551234567", 0),
    ("default", "hotel phone 5551234567", 1),
    ("custom", "a+tel 5551234567", 0),
    ("custom", "(+tel) 5551234567", 1),
    ("custom", "tel tel tel 5551234567", 1),
    ("custom", "hotel tel tel 5551234567", 1),
    ("custom", "hotel tel 5551234567", 0),
    *[("default", text, int(filler < 39))
      for filler in (37, 38, 39) for text in _near("tel", filler)],
    *[("custom", text, int(filler < 39))
      for filler in (37, 38, 39) for text in _near("+tel", filler) + _near("tel tel", filler)],
])
def test_keyword_boundaries_and_window(lexicon, text, expected):
    snapshot = make_snapshot(body(f"<p>{text}</p>"))
    assert_same(snapshot, LEXICONS[lexicon])
    assert features_from_snapshot(snapshot, LEXICONS[lexicon]).telephone == expected


def test_phrase_split_across_anchors_does_not_match():
    snapshot = make_snapshot(body('<a href="#">who we</a><a href="#">are</a>',
                                  "<h2>legal</h2><h2>notes</h2>"))
    assert_same(snapshot, CUSTOM)
    bits = features_from_snapshot(snapshot, CUSTOM).as_dict()
    assert (bits["about"], bits["terms"]) == (0, 0)


def test_bits_found_on_different_pages():
    snapshot = make_snapshot(body("<p>nothing</p>"), body('<a href="/x">Contact us</a>'),
                             body("<p>phone 5551234567</p>", "<footer>terms of use</footer>"))
    assert_same(snapshot, default_lexicon())
    assert features_from_snapshot(snapshot).as_dict() == {
        "padlock": 0, "contact": 1, "telephone": 1, "about": 0, "terms": 1}


def test_unparseable_link_is_skipped_and_the_site_scores():
    snapshot = make_snapshot(
        body('<a href="/">Contact us</a><h2>terms</h2><a href="tel:1">t</a>'),
        body('<a href="http://[::1">x</a><a href="http://[oops/about-us">y</a>',
             '<a href="/about-us">z</a>'))
    assert_same(snapshot, default_lexicon())
    assert features_from_snapshot(snapshot).as_dict() == {
        "padlock": 0, "contact": 1, "telephone": 1, "about": 1, "terms": 1}


def test_phone_link_beside_a_section_path():
    snapshot = make_snapshot(body('<a href="tel:555">a</a><a href="/about-us">b</a>',
                                  '<a href=" TEL:/terms">c</a>'))
    assert_same(snapshot, default_lexicon())
    assert features_from_snapshot(snapshot).as_dict() == {
        "padlock": 0, "contact": 0, "telephone": 1, "about": 1, "terms": 0}


@pytest.mark.parametrize("html,splits,bits", [
    # the texts show all three kinds
    (body('<a href="/about-us">Contact us</a><h2>About us</h2><footer>terms</footer>'),
     False, (1, 1, 1)),
    # no href holds a phrase of the kinds the texts leave
    (body('<a href="/news/contact">Contact us</a><a href="/sport?id=1">x</a>'), False, (1, 0, 0)),
    # a kind shows only in a link path
    (body('<a href="/about-us">x</a>'), True, (0, 1, 0)),
])
def test_link_paths_are_split_only_when_a_missing_kind_could_show(monkeypatch, html, splits, bits):
    calls = []

    def counting_urlsplit(url, *args, **kwargs):
        calls.append(url)
        return urlsplit(url, *args, **kwargs)

    monkeypatch.setattr("sourcescope.features.detectors.urlsplit", counting_urlsplit)
    snapshot = make_snapshot(html)
    features = features_from_snapshot(snapshot)
    assert (features.contact, features.about, features.terms) == bits
    assert bool(calls) is splits, calls
