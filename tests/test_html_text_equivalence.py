"""The one-pass tokenizer against the ``html.parser`` extractor it replaced.

The reference below is the earlier ``_Extractor`` / ``parse_page`` code,
since deleted, kept verbatim apart from names.  ``parse_page`` must give an
equal ``PageText`` on every input, except one deliberate difference: where
``html.parser`` raises (a ``<![`` marked section without a known keyword,
such as ``<![ if !IE ]>``), the reference drops the rest of the page and
the tokenizer reads the section as a bogus comment up to the next ``>``.
Those inputs are left out here; ``test_features.py`` pins the new reading.

The reference runs on the interpreter's own ``html.parser``.  The tokenizer
copies that module's rules as Python 3.11.7 has them; a later release
that changes them shows up here as a difference.
"""

from html.parser import HTMLParser
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sourcescope
from sourcescope.features import PageText, normalize_text, parse_page

_SKIP_CONTENT = {"script", "style", "noscript", "template"}
_HEADINGS = {"h1", "h2", "h3", "h4", "h5", "h6"}
_VOID = {"area", "base", "br", "col", "embed", "hr", "img", "input",
         "link", "meta", "source", "track", "wbr"}


def _is_footer_container(tag: str, attrs: dict) -> bool:
    if tag == "footer":
        return True
    # div/section footers are the dominant idiom on older news sites
    if tag not in ("div", "section"):
        return False
    ident = (attrs.get("id") or "") + " " + (attrs.get("class") or "")
    return "footer" in ident.casefold()


class _Extractor(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.anchors: list[tuple[str, str]] = []
        self.headings: list[str] = []
        self.footer_parts: list[str] = []
        self.text_parts: list[str] = []
        self._skip_depth = 0
        self._depth = 0
        self._footer_levels: list[int] = []   # element depths of open footer containers
        self._anchor_href: str | None = None
        self._anchor_parts: list[str] = []
        self._heading_parts: list[str] | None = None

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_CONTENT:
            self._skip_depth += 1
            return
        attrs_dict = dict(attrs)
        if tag not in _VOID:
            self._depth += 1
            if _is_footer_container(tag, attrs_dict):
                self._footer_levels.append(self._depth)
        if tag == "a":
            # a nested <a> is invalid HTML; treat it as closing the previous one
            self._flush_anchor()
            self._anchor_href = attrs_dict.get("href") or ""
            self._anchor_parts = []
        elif tag in _HEADINGS:
            self._heading_parts = []
        elif tag in ("br", "p", "div", "li", "tr", "td", "th", "section", "article"):
            self.text_parts.append(" ")

    def handle_startendtag(self, tag, attrs):
        # self-closed form: no depth change
        if tag == "a":
            self._flush_anchor()
            self.anchors.append(("", dict(attrs).get("href") or ""))

    def handle_endtag(self, tag):
        if tag in _SKIP_CONTENT:
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if tag == "a":
            self._flush_anchor()
        elif tag in _HEADINGS and self._heading_parts is not None:
            heading = normalize_text("".join(self._heading_parts))
            if heading:
                self.headings.append(heading)
            self._heading_parts = None
        if tag not in _VOID:
            while self._footer_levels and self._footer_levels[-1] >= self._depth:
                self._footer_levels.pop()
            self._depth = max(0, self._depth - 1)
        self.text_parts.append(" ")

    def handle_data(self, data):
        if self._skip_depth:
            return
        self.text_parts.append(data)
        if self._anchor_href is not None:
            self._anchor_parts.append(data)
        if self._heading_parts is not None:
            self._heading_parts.append(data)
        if self._footer_levels:
            self.footer_parts.append(data)

    def _flush_anchor(self):
        if self._anchor_href is None:
            return
        self.anchors.append((normalize_text("".join(self._anchor_parts)), self._anchor_href))
        self._anchor_href = None
        self._anchor_parts = []


def reference_parse_page(html: str) -> PageText:
    """Extract the detector-relevant regions from one HTML document."""
    extractor = _Extractor()
    try:
        extractor.feed(html)
        extractor.close()
    except Exception:
        # salvage whatever was collected before the parser gave up
        pass
    extractor._flush_anchor()
    return PageText(
        anchors=tuple(extractor.anchors),
        headings=tuple(extractor.headings),
        footer_text=normalize_text("".join(extractor.footer_parts)),
        full_text=normalize_text(" ".join(extractor.text_parts)),
    )


def reference_raises(html: str) -> bool:
    try:
        extractor = _Extractor()
        extractor.feed(html)
        extractor.close()
    except AssertionError:
        return True
    return False


def assert_same_page(html: str) -> None:
    expected, got = reference_parse_page(html), parse_page(html)
    assert got.anchors == expected.anchors
    assert got.headings == expected.headings
    assert got.footer_text == expected.footer_text
    assert got.full_text == expected.full_text


# --------------------------------------------------------------------------
# generated documents
# --------------------------------------------------------------------------

_ATOMS = [
    # anchors: nested, unclosed, self-closed, headings inside
    '<a href="/contact-us">', "<a href=/about>", "<A HREF='/terms'>", "<a>", "</a>",
    '<a href="/x"/>', "<a/>", "<a href=/x/>", "<a href='#' class=nav>",
    "<h2>", "</h2>", "<H3 class=t>", "</h3>", "<h1>", "</h6>",
    # footers by tag, id or class
    "<footer>", "</footer>", '<div id="footer">', "<div class='site-footer'>",
    '<div class="f&#111;oter">', "<section id=Footer>", "</section>", "<div>", "</div>",
    "<p>", "</p>", "<li>", "<br>", "<br/>", "</br>", "<img src=x.png alt='a>b'>", "<hr />",
    # raw text and skipped regions
    "<script>", "</script>", "<script>var a = '</a>';</script>", "<SCRIPT>x</SCRIPT >",
    "<style>a{}</style>", "<style>", "</ script>", "<script>a</ script >b",
    "<noscript>", "</noscript>", "<template>", "</template>", "<script/>",
    # comments, declarations, processing instructions, marked sections
    "<!-- a > b -->", "<!---->", "<!-->", "<!--->", "<!-- x --  >", "<!--",
    "<!DOCTYPE html>", "<!doctype", "<!x>", "<!>", "<?php echo 1 ?>", "<?",
    "<![CDATA[x]]>", "<![CDATA[a>b]]>", "<![CDATA[", "<![if !IE]>", "<![else]>",
    "<![else a>b]>", "<![endif]>", "<![",
    # odd tags
    "<a b==c>", '<a"b>', "<a:b>", "</ x>", "</>", "</a b>", "</ x y>", "</1>",
    '<a href="x>y">', "<a href=x\"y>", "<a\nhref='/contact'\r\n>", "<div\tclass=footer\n>",
    "<a b='c'd=e>", "<a =x>", "<a b= >", "<a / >", "<a b=c />", "<a\x00b>", "<a\xa0b>",
    "<a href=\"/contact\" href=/about>", "<div id class=footer>", "<a\x0bhref=/contact/us>",
    "<div\xa0class=footer\x00>",
    # entities
    "&amp;", "&#x27;", "&", "&#", "&#39;", "&nbsp;", "&copy", "&#1;", "&#xD800;",
    # stray "<" and plain text
    "<", "< ", "<3", "a < b", "Contact us", "About", "Terms of use", "555", "1234",
    " ", "\n", "\r\n", "\t", "x", "Café",
]
_ALPHABET = "<>/!?-=\"' \n\r\t\x0b\xa0\x00&#;[]aAbhdfrsc1xX"


@st.composite
def documents(draw):
    parts = draw(st.lists(st.one_of(st.sampled_from(_ATOMS), st.text(_ALPHABET, max_size=8)),
                          max_size=30))
    html = "".join(parts)
    if html and draw(st.booleans()):
        # a tag, quote or entity cut off at end of input
        html = html[:draw(st.integers(0, len(html)))]
    return html


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(documents())
def test_generated_documents_parse_as_before(html):
    assume(not reference_raises(html))
    assert_same_page(html)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.text(_ALPHABET + "\x0c\u2003\u017f", max_size=60))
def test_character_soup_parses_as_before(html):
    assume(not reference_raises(html))
    assert_same_page(html)


@pytest.mark.parametrize("html", [
    "555<!---->1234",
    "<a href=/a>one<a href=/b>two</a>three",
    "<a href=/contact><h2>Contact</h2></a>",
    "<div class=footer><p>Terms</p></div>after",
    "<div class=footer><br>x</div>y",
    "<div class=footer><p>x</br>y</p>z</div>after",
    "<script>if (a</b) {}</a></SCRIPT >text",
    "<noscript><a href=/about>About</a></noscript>",
    "<a href=/x>cut &amp",
    "<a href='/x",
    "<p>a < b</p>",
])
def test_known_pages_parse_as_before(html):
    assert_same_page(html)


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace")


def _fixture_pages():
    roots = (Path(__file__).parent / "fixtures" / "sites",
             Path(sourcescope.__file__).parent / "data" / "fixtures")
    # conditional-comments.test is the deliberate difference, left out
    return sorted(path for root in roots for path in root.rglob("*.html")
                  if not reference_raises(_read(path)))


@pytest.mark.parametrize("path", _fixture_pages(), ids=lambda p: f"{p.parent.name}/{p.name}")
def test_fixture_pages_parse_as_before(path):
    assert_same_page(_read(path))
